// Package tpcds runs the paper's Section 2.3 experiment: TPC-DS-style
// date-range queries over the internal/warehouse star schema, each planned
// as the oblivious join and as the OD-licensed rewrite, executed on the
// engine, checked for equal answers and measured. The paper's prototype
// rewrote 13 TPC-DS queries of this shape on DB2, an average gain of 48%,
// and later 18. TPC-DS is a proprietary toolkit; the warehouse generator
// reproduces what the rewrite needs: a surrogate date key ordered like the
// natural date ([d_date_sk] ↔ [d_date]), calendar attributes functionally
// and order-dependent on the date, and a fact table that references dates
// only through the surrogate key.
package tpcds
