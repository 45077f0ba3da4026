// Package paper reproduces the paper's Section 2 and 5 experiments and is
// not the service: cmd/, pkg/ and internal/ import none of it. Under it are
// an execution engine standing in for the DB2 prototype (engine), the
// planner that applies ReduceOrder⁺ to its plans (plan), monotone
// expressions (monotone), the date hierarchy (datetime) and the TPC-DS-style
// suite (tpcds); its own tests and benchmarks regenerate the figures.
package paper
