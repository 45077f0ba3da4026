// Package warehouse generates a TPC-DS-style star schema — a date dimension
// and a sales fact table — as typed columns, from a seed, and declares the
// order dependencies its date dimension holds by construction. The date
// dimension is the relation the discover-date benchmark mines; the paper's
// Section 2.3 query suite over both tables is paper/tpcds.
package warehouse
