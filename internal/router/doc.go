// Package router shards the OD constraint catalog by schema namespace: one
// catalog.Catalog — and, when persistence is on, one internal/store WAL +
// snapshot pair — per schema, behind a single front door.
//
// The paper's setting is a DBMS optimizer consulting declared constraints on
// every query (Sections 2.3 and 6). Constraint sets of unrelated schemas
// never interact logically — an OD over sales columns cannot entail one over
// inventory columns it shares no attributes with — so serializing their
// mutations behind one catalog lock, and invalidating one shared verdict
// memo, is pure contention. The router keys requests to a shard either by an
// explicit schema name or (opt-in) by the attribute-name prefix convention
// of TPC-DS style schemas ("d_date", "ss_sold_date_sk" → schemas "d", "ss");
// each shard recovers, snapshots, memoizes and advances generations
// independently. Requests that name no shard and requests for listings and
// stats fan out across shards and merge.
//
// Mutations are staged (WAL append) under the store's own lock, which
// numbers a record and stages its frame together, so WAL order is seq
// order; but the catalog is only touched after the group commit
// succeeds: each staged record holds an apply ticket (its WAL sequence
// number), and durable mutations apply strictly in ticket order, so
// in-memory apply order equals WAL order — the invariant replay depends on.
// The durability wait itself happens with no lock held, so concurrent
// writers on one shard still share fsyncs.
//
// Visibility contract: a mutation is published to readers only once durable
// — read committed. A reader can never observe a constraint whose commit
// later fails; the old read-uncommitted window (apply first, roll back on
// commit failure) is gone, and with it the rollback machinery. Reads never
// take shard mutexes at all; they ride the catalog's snapshot path.
//
// A follower router (Options.Follower) opens a store.FollowerStore per shard
// instead — with a data dir a durable one, without one a pure cache, the
// same type either way — and its replication surface (replica.go) is a thin
// pass-through: bytes go to the shard's FollowerStore, the records it parses
// apply to the catalog in seq order under the apply lock. The store keeps
// the fetch cursor, the leader's last-polled position and the counters, so
// the shard needs no lock of its own for them.
//
// Prove traffic accepts a context.Context and threads it into the
// catalog's tier chain, so an HTTP client disconnect or prove deadline
// aborts the in-flight pattern search.
package router
