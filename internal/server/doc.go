// Package server exposes the sharded, durable OD constraint catalog over
// HTTP/JSON: the network front end of the theorem-prover-as-a-service that
// the paper's future-work section sketches for optimizer integration.
//
// Endpoints:
//
//	POST   /ods          declare OD statements ("->", "<->", "~" all accepted)
//	GET    /ods          list declared ODs and closures, per shard (?schema= for one)
//	DELETE /ods          withdraw declared ODs
//	POST   /ods/batch    declare and withdraw many statements in one shard mutation
//	POST   /prove        decide catalog ⊨ statement, with a counterexample on refutation
//	POST   /prove/batch  decide many statements against one snapshot per shard
//	POST   /rewrite      ReduceOrder⁺ / ReduceGroupBy a list under the catalog
//	POST   /snapshot     force a durable snapshot (admin; ?schema= or body for one shard)
//	GET    /generation   per-shard constraint generation counters (?schema= for one)
//	GET    /healthz      liveness plus per-shard catalog, store and recovery statistics
//
// docs/API.md documents every endpoint with request/response examples and
// error shapes; pkg/odclient is the Go client over this surface.
//
// Every mutating or proving request may carry a "schema" field selecting the
// shard; without one the request lands on the default shard (or, when the
// router runs with prefix derivation, the shard named by the unanimous
// attribute prefix). Mutations are acknowledged only after they are durable
// in the shard's write-ahead log.
//
// All handlers are safe for concurrent use; they delegate synchronization to
// the router and its shards. Request and response bodies are JSON; parse
// errors and malformed statements answer 400 with {"error": ...}.
//
// With telemetry or an access log on, ServeHTTP wraps the ResponseWriter in
// a recorder that captures the status and carries the request's
// annotations: a handler notes the shard that answered and, for a prove,
// the verdict tier on the writer it was given (noteShard, noteTier), and
// the wrapper reads them back for the access log. The request itself is
// never copied to carry them. Without either, the handlers run on the bare
// writer and the notes are dropped.
//
// A refutation's witness goes on the wire projected onto the attributes
// where its two rows differ and realized as integers — row 1 all 0, row 2 1
// for < and -1 for > — written straight from the prover's sign vector.
//
// Prove and rewrite handlers thread the request's context into the catalog
// tier chain: a client that disconnects mid-/prove aborts the in-flight
// pattern search instead of leaving it burning CPU, and WithProveTimeout
// bounds every search server-side (a deadline answers 504).
//
// POST /discover carries a relation inline, and most of its body is the
// "rows" member. The handler reads the body whole and scans it once
// (rows.go): the rows are decoded where they stand into one typed vector per
// column (a number is read by one routine, and an integer of at most 15
// digits, its commonest cell, in one pass of its digits), the rest of the
// object — a few hundred bytes — goes through the same strict encoding/json
// decode every endpoint uses. Once row 0 has made every column an
// integer one, the rows after it are decoded by one loop (intRows), not a
// call per cell: it takes a row of plain integers — no white space, at most
// 15 digits, no leading zero, not -0, no fraction or exponent — writing each
// cell straight into its column's reserved cells, and at the first byte it
// does not expect it drops the row's cells taken so far and hands the row,
// unchanged, to the cell-by-cell path, resuming at the next row while every
// column is still an integer one. What it takes is what that path would
// have taken, so the same bodies are accepted and refused, with the same
// messages; the loop's and the path's cells are counted apart
// (odserve_discover_loop_cells_total, _cell_cells_total). A body the scan
// does not expect goes through it whole, so it accepts and refuses exactly
// what the [][]any decode it replaced did (rows_test.go holds it to that, on
// a corpus and under fuzzing of the rows value and of the whole body). Every
// size bound — attributes, candidate space — is checked before the NDJSON
// stream opens, so a refused request is a 400, never an error line under a
// 200; a body of any endpoint past 8 MiB is a 413.
//
// A /discover request reuses the data plane of the requests before it
// through one core.Scratch, taken from core's bounded free list when the
// handler starts and released by one defer when it returns — after the
// pipeline, whose workers have all returned, cancelled or not, and after the
// summary line. The body buffer, the integer cells, the relation's rank views
// and partitions and the pipeline's run block are all the scratch's, so none
// is reset while still read. The declared Content-Length sizes the body
// buffer only up to maxReserve (256 KiB): a client that declares 8 MB and
// sends 40 bytes costs at most the reserve, and the buffer grows past it
// only with the bytes that arrive.
package server
