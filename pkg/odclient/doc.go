// Package odclient is the optimizer-side client of the odserve constraint
// daemon: the first first-class consumer of the HTTP/JSON surface, built for
// the workload the paper's Section 6 sketches — a query optimizer consulting
// declared order dependencies on every rewrite, in bursts of near-duplicate
// implication questions.
//
// Three mechanisms turn that burst shape into few wire requests:
//
//   - Coalescing: concurrent identical Prove calls collapse into one
//     in-flight request (singleflight per canonical OD key). Waiters are
//     refcounted; when every caller abandons, the underlying request is
//     cancelled, preserving the daemon's disconnect-aborts-search contract.
//   - Pipelining: individual Prove/Declare/Remove calls accumulate for a
//     configurable window or statement budget and flush through
//     /prove/batch and /ods/batch — one round trip, one shard snapshot,
//     one WAL group commit per burst (WithPipelining).
//   - Caching: verdicts are cached under the generation number the server
//     stamps them with, and served only while the shard's generation is
//     unchanged; the client's view of "current" refreshes from every
//     response it sees and, past a staleness bound, from the dedicated
//     GET /generation poll (WithCache). Equal generation means the shard
//     saw no effective mutation since the verdict was computed — a cache
//     hit is exactly as fresh as an answer from the daemon. (The daemon's
//     own verdict store knows what each mutation added or withdrew and
//     keeps more across one; the client sees only the number.)
//
// Failure handling mirrors the server's cancellation semantics: direct
// calls inherit the caller's context end to end (a cancelled context aborts
// the server-side pattern search), pipelined calls run under the client's
// request timeout because a flushed batch is shared work, transport errors
// and 502/503 retry with exponential backoff (WithRetry), and the daemon's
// 504 prove-timeout answer is surfaced via IsProveTimeout, never retried.
//
// The Reasoner adapter exposes the odlib.Reasoner surface (Implies,
// Counterexample, Equivalent, OrderCompatible) against a remote shard and
// implements rewrite.Oracle, so Client.Constraints can hand existing
// rewrite/planner call sites a *rewrite.Constraints whose implication
// questions — FD steps and OD steps alike — travel to the daemon, and
// Client.ReduceOrder reduces a list from prove requests alone. Remote
// verdicts and reductions are differentially tested to match the local
// catalog's.
//
// On the wire, request bodies are marshalled from structs (the same bytes
// the equivalent maps gave), and a 2xx answer is read whole into a pooled
// buffer and decoded by one json.Unmarshal. A buffer that grew past 64 KB —
// a large listing or /healthz — is dropped instead of returned to the
// pool, so one big read never stays resident.
//
// A Client is safe for concurrent use and meant to be shared process-wide:
// sharing is what makes coalescing, pipelining and the cache effective.
// Close flushes the pipeliner; calls after Close fail with ErrClosed.
package odclient
