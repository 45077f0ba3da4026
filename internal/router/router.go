package router

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"odlib/internal/catalog"
	"odlib/internal/core"
	"odlib/internal/store"
)

// errSchema tags invalid-schema errors; the HTTP layer maps them to 400.
var errSchema = errors.New("invalid schema")

// IsSchemaError reports whether err stems from an invalid schema name.
func IsSchemaError(err error) bool { return errors.Is(err, errSchema) }

// errBackpressure tags admission-control rejections: the shard's WAL has
// outrun its compactor past the configured segment threshold, and declares
// must back off instead of queueing unboundedly on a disk the compactor
// cannot reclaim. The HTTP layer maps it to 429 with Retry-After.
var errBackpressure = errors.New("compaction backpressure")

// IsBackpressure reports whether err is an admission-control rejection.
func IsBackpressure(err error) bool { return errors.Is(err, errBackpressure) }

// errReadOnly tags mutations routed at a follower: replicas replay the
// leader's log and accept no writes of their own. The HTTP layer maps it to
// 421 (Misdirected Request) carrying the leader's URL.
var errReadOnly = errors.New("read-only replica")

// IsReadOnly reports whether err is a mutation-on-follower rejection.
func IsReadOnly(err error) bool { return errors.Is(err, errReadOnly) }

// ReadOnlyError returns an IsReadOnly-tagged rejection when this router is a
// follower, nil on a leader. Callers that would mutate through a side door
// (discovery's declare-back, for one) use it to refuse before any work runs.
func (r *Router) ReadOnlyError(what string) error {
	if !r.opt.Follower {
		return nil
	}
	return fmt.Errorf("router: %w: %s", errReadOnly, what)
}

// errLag tags follower reads refused because the replica has fallen further
// behind its leader than the configured bound (or has never synced at all).
// Refusing beats answering: a verdict from an over-stale constraint set is
// exactly the wrong-answer mode replication must never introduce. The HTTP
// layer maps it to 503 with Retry-After.
var errLag = errors.New("replica lag exceeded")

// IsLagExceeded reports whether err is a staleness-bound refusal.
func IsLagExceeded(err error) bool { return errors.Is(err, errLag) }

// DefaultShard is the shard of requests that name no schema.
const DefaultShard = ""

// defaultAlias is what the default shard goes by wherever its empty name
// cannot stand. The "@" cannot appear in a valid schema name, so it never
// collides.
const defaultAlias = "@default"

// Alias maps a shard name to the name it goes by outside the process: its
// directory on disk, its /segments URL path and JSON key, and its metric
// label. Only the default shard's differs.
func Alias(name string) string {
	if name == DefaultShard {
		return defaultAlias
	}
	return name
}

// Unalias is Alias's inverse.
func Unalias(alias string) string {
	if alias == defaultAlias {
		return DefaultShard
	}
	return alias
}

// Options configures a Router.
type Options struct {
	// DataDir roots the per-shard store directories; empty runs fully
	// in-memory (no WAL, no snapshots).
	DataDir string
	// Store configures each shard's store (fsync, snapshot cadence).
	Store store.Options
	// Catalog options applied to every shard's catalog.
	Catalog []catalog.Option
	// ShardByPrefix derives a shard key from attribute-name prefixes (the
	// part before the first underscore) when a request names no schema and
	// all mentioned attributes agree on one prefix. Off by default: implicit
	// cross-shard splitting changes which constraints a prove consults, so
	// it must be an explicit deployment decision.
	ShardByPrefix bool
	// BackpressureSegments rejects mutations (IsBackpressure errors, HTTP
	// 429) on a shard whose compaction lag — sealed WAL segments the last
	// durable snapshot does not cover — has reached this count. Reads and
	// proves are never rejected. 0 disables admission control.
	BackpressureSegments int
	// Follower opens every shard read-only: recovery uses follower-mode
	// stores (no WAL writer, no compactor), records arrive only through
	// FollowerIngest/FollowerBootstrap (driven by internal/replica's tailer),
	// and mutations fail with IsReadOnly errors. With an empty DataDir the
	// follower is a pure cache: it re-tails from scratch on restart.
	Follower bool
	// MaxLagRecords bounds follower staleness: prove and rewrite reads are
	// refused with IsLagExceeded errors while the replica's applied watermark
	// trails the leader's last-polled applied seq by more than this many
	// records, or before the first successful poll. 0 serves at any lag.
	// Listings and generation reads always serve — they carry the generation
	// stamp, so the caller can judge staleness itself.
	MaxLagRecords int
	// Telemetry installs per-shard observation hooks; nil disables them.
	Telemetry *Telemetry
}

// Telemetry is the router's metric hook set: latency observers keyed by
// shard name plus the admission-control rejection tally. Fields may be nil
// individually; hooks must be cheap and concurrency-safe.
type Telemetry struct {
	// MutateSeconds observes one mutation's full latency on a shard: WAL
	// staging, the group commit and the committer's catalog apply.
	MutateSeconds func(shard string, seconds float64)
	// ProveSeconds observes one prove call's latency against a shard — for
	// batches, the whole per-shard group (one snapshot, many statements).
	ProveSeconds func(shard string, seconds float64)
	// BackpressureRejected counts mutations turned away by admission
	// control, per shard.
	BackpressureRejected func(shard string)
}

// Shard is one schema namespace: its catalog and, when durable, its store.
type Shard struct {
	name string
	cat  *catalog.Catalog
	st   *store.Store // nil when the router is ephemeral or a follower

	// fs is a follower shard's log, replication cursor and fetch counters —
	// set on every follower shard; without a data dir it persists nothing.
	fs *store.FollowerStore

	// tel and backpressure are copied from the router's Options at open, so
	// the hot mutation path never reaches back through the router.
	tel          *Telemetry
	backpressure int
}

// Router is the sharded catalog front door.
type Router struct {
	opt Options

	mu     sync.RWMutex
	shards map[string]*Shard

	// empty answers reads routed at shards that do not exist without
	// materializing them: an absent shard implies an empty constraint set.
	empty *catalog.Catalog

	// Follower-wide poll bookkeeping, written by the replica tailer.
	pollMu      sync.Mutex
	lastPoll    time.Time
	polls       uint64
	pollErrors  uint64
	lastPollErr string
}

// Open builds a router. With a data dir it recovers every existing shard
// directory — snapshot load plus WAL replay, applied to a fresh catalog via
// the no-relog path — before returning, so a restarted daemon answers from
// its pre-crash state immediately.
func Open(opt Options) (*Router, error) {
	r := &Router{
		opt:    opt,
		shards: make(map[string]*Shard),
		empty:  catalog.New(opt.Catalog...),
	}
	if opt.DataDir == "" {
		return r, nil
	}
	if err := os.MkdirAll(opt.DataDir, 0o755); err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(opt.DataDir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		name := Unalias(e.Name())
		if err := ValidSchema(name); err != nil {
			return nil, fmt.Errorf("router: data dir entry %q is not a shard directory: %w", e.Name(), err)
		}
		if _, err := r.openShard(name); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// ValidSchema checks a schema name: lowercase letters, digits and
// underscores, not digit-initial. Lowercase-only keeps one shard per
// directory even on case-insensitive filesystems (macOS APFS default),
// where "Sales" and "sales" would otherwise open the same WAL segments from
// two independent shards; and no name can collide with the default shard's
// "@default" directory.
func ValidSchema(name string) error {
	if name == DefaultShard {
		return nil
	}
	for i, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c == '_':
		case c >= '0' && c <= '9':
			if i == 0 {
				return fmt.Errorf("router: %w: %q starts with a digit", errSchema, name)
			}
		case c >= 'A' && c <= 'Z':
			return fmt.Errorf("router: %w: %q contains an uppercase letter (schemas are lowercase, to map 1:1 onto directories on case-insensitive filesystems)", errSchema, name)
		default:
			return fmt.Errorf("router: %w: invalid character %q in %q", errSchema, c, name)
		}
	}
	if len(name) > 128 {
		return fmt.Errorf("router: %w: name longer than 128 bytes", errSchema)
	}
	return nil
}

// openShard creates or recovers the named shard. Caller must not hold r.mu.
// The read-locked fast path keeps steady-state mutations off the router's
// exclusive lock entirely — it is taken only the first time a schema is
// seen, when shard creation (directory fsyncs, WAL scan) runs under it.
func (r *Router) openShard(name string) (*Shard, error) {
	if sh := r.shard(name); sh != nil {
		return sh, nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if sh, ok := r.shards[name]; ok {
		return sh, nil
	}
	sh := &Shard{
		name:         name,
		cat:          catalog.New(r.opt.Catalog...),
		tel:          r.opt.Telemetry,
		backpressure: r.opt.BackpressureSegments,
	}
	dir := ""
	if r.opt.DataDir != "" {
		dir = filepath.Join(r.opt.DataDir, Alias(name))
	}
	switch {
	case r.opt.Follower:
		fs, snap, replay, err := store.OpenFollower(dir)
		if err != nil {
			return nil, fmt.Errorf("router: opening follower shard %q: %w", name, err)
		}
		sh.fs = fs
		recoverCatalog(sh.cat, snap, replay)
	case dir != "":
		st, snap, replay, err := store.Open(dir, r.opt.Store)
		if err != nil {
			return nil, fmt.Errorf("router: opening shard %q: %w", name, err)
		}
		recoverCatalog(sh.cat, snap, replay)
		sh.st = st
		// The committer applies what it commits; the compactor snapshots the
		// catalog's applied state, and the write path only ever nudges it.
		st.OnCommit(sh.publish)
		st.StartCompactor(sh.cat.Applied)
	}
	r.shards[name] = sh
	return sh, nil
}

// recMutations converts one WAL record to the catalog mutation batch the
// live path applied for it: an OpRemove record withdraws its ODs, any other
// declares its ODs and then withdraws its Removes.
func recMutations(rec store.Record) []catalog.Mutation {
	if rec.Op == store.OpRemove {
		return []catalog.Mutation{{Remove: true, ODs: rec.ODs}}
	}
	return []catalog.Mutation{{ODs: rec.ODs}, {Remove: true, ODs: rec.Removes}}
}

// applyRecords applies WAL records to cat as one group through its
// seq-aware entry point — the shape leader commits, recovery and follower
// ingest share, so generation stays the same function of the applied
// history on every process that applies it.
func applyRecords(cat *catalog.Catalog, recs []store.Record) ([]catalog.Effect, catalog.Stats, error) {
	logged := make([]catalog.Logged, len(recs))
	for i, rec := range recs {
		logged[i] = catalog.Logged{Seq: rec.Seq, Muts: recMutations(rec)}
	}
	return cat.ApplyLogged(logged)
}

// recoverCatalog rebuilds a fresh cat from a snapshot and its replay suffix
// and returns the last applied seq. Neither step can refuse: nothing is
// behind a fresh catalog, and store recovery refused any gap past the
// snapshot.
func recoverCatalog(cat *catalog.Catalog, snap store.Snapshot, replay []store.Record) uint64 {
	_ = cat.ResetLogged(snap.Seq, snap.Gen, snap.ODs)
	_, _, _ = applyRecords(cat, replay)
	seq, _, _ := cat.Applied()
	return seq
}

// publish is a durable shard's store.Applier. Each record's effect is its
// MutationResult, with the group's post-apply stats, or the error that kept
// it from applying.
func (sh *Shard) publish(recs []store.Record) []any {
	effects, st, err := applyRecords(sh.cat, recs)
	out := make([]any, len(recs))
	for i, rec := range recs {
		out[i] = err
		if err == nil {
			out[i] = MutationResult{Schema: sh.name, Added: effects[i].Added, Removed: effects[i].Removed, Seq: rec.Seq, Stats: st}
		}
	}
	return out
}

// shard returns an existing shard, or nil.
func (r *Router) shard(name string) *Shard {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.shards[name]
}

// readCatalog resolves the catalog reads against: the shard's when it
// exists, a shared empty catalog otherwise (reads must not materialize
// shard directories).
func (r *Router) readCatalog(name string) *catalog.Catalog {
	if sh := r.shard(name); sh != nil {
		return sh.cat
	}
	return r.empty
}

// ShardNames lists existing shards, sorted, default first.
func (r *Router) ShardNames() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.shards))
	for name := range r.shards {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// SchemaFor resolves the shard key of a request: an explicit schema wins
// (after validation); otherwise, with ShardByPrefix on, the unanimous
// attribute-name prefix of the statement's attributes; otherwise the
// default shard.
func (r *Router) SchemaFor(explicit string, ods []core.OD) (string, error) {
	if explicit != DefaultShard {
		if err := ValidSchema(explicit); err != nil {
			return "", err
		}
		return explicit, nil
	}
	if !r.opt.ShardByPrefix {
		return DefaultShard, nil
	}
	prefix := ""
	for _, od := range ods {
		for _, a := range od.LHS.Concat(od.RHS) {
			p := attrPrefix(string(a))
			if p == "" {
				return DefaultShard, nil
			}
			if prefix == "" {
				prefix = p
			} else if prefix != p {
				return DefaultShard, nil
			}
		}
	}
	// A derived prefix that is not a valid schema name (e.g. uppercase)
	// falls back to the default shard rather than erroring: derivation is a
	// convention, not a contract.
	if ValidSchema(prefix) != nil {
		return DefaultShard, nil
	}
	return prefix, nil
}

// attrPrefix returns the schema prefix of an attribute name: the part
// before the first underscore, empty when there is none to derive.
func attrPrefix(name string) string {
	i := strings.Index(name, "_")
	if i <= 0 {
		return ""
	}
	return name[:i]
}

// MutationResult reports one shard mutation: effective counts, the catalog
// stats once its group applied, and the WAL sequence number when durable.
type MutationResult struct {
	Schema  string
	Added   int
	Removed int
	Seq     uint64
	Stats   catalog.Stats
}

// Declare declares ODs on the schema's shard: ApplyBatch of one step, so
// it stages and waits for its group's commit and publish exactly as a
// batch does. The mutation becomes visible to readers before it is
// acknowledged, and only once durable.
func (r *Router) Declare(schema string, ods []core.OD) (MutationResult, error) {
	return r.applyOne(BatchOp{Schema: schema, ODs: ods})
}

// Remove withdraws ODs from the schema's shard, with the same durability
// contract as Declare.
func (r *Router) Remove(schema string, ods []core.OD) (MutationResult, error) {
	return r.applyOne(BatchOp{Schema: schema, Remove: true, ODs: ods})
}

// applyOne runs one step through ApplyBatch and returns its shard's result.
func (r *Router) applyOne(op BatchOp) (MutationResult, error) {
	out, err := r.ApplyBatch([]BatchOp{op})
	// One step resolves to one shard: out is nil on error, else holds one result.
	for _, res := range out {
		return res, nil
	}
	return MutationResult{}, err
}

// stagedMutation is one WAL-appended mutation batch whose group has not
// necessarily committed yet: the durability handle to wait on.
type stagedMutation struct {
	sh      *Shard
	start   time.Time
	pending *store.Pending
}

// stage appends the batch to the shard's WAL without touching the catalog,
// and returns the staged handle. On an ephemeral shard there is no WAL and
// nothing to wait for: the batch applies immediately and the final
// MutationResult is returned instead.
func (sh *Shard) stage(declares, removes []core.OD) (*stagedMutation, MutationResult, error) {
	start := time.Now()
	// Admission control runs before any lock or WAL touch: when the sealed
	// log has outrun the compactor past the threshold, the shard sheds the
	// write (callers see IsBackpressure → 429) and nudges the compactor —
	// rejections actively push toward the condition clearing.
	if sh.st != nil && sh.backpressure > 0 {
		if lag := sh.st.CompactionLagSegments(); lag >= sh.backpressure {
			sh.st.Kick()
			if sh.tel != nil && sh.tel.BackpressureRejected != nil {
				sh.tel.BackpressureRejected(sh.name)
			}
			return nil, MutationResult{}, fmt.Errorf("router: shard %q: %w: %d sealed segments behind the last snapshot (threshold %d)",
				sh.name, errBackpressure, lag, sh.backpressure)
		}
	}
	if sh.st == nil {
		added, removed, st := sh.cat.Apply([]catalog.Mutation{{ODs: declares}, {Remove: true, ODs: removes}})
		sh.observeMutate(start)
		return nil, MutationResult{Schema: sh.name, Added: added, Removed: removed, Stats: st}, nil
	}
	pending, _, err := sh.st.AppendBatch(declares, removes)
	if err != nil {
		return nil, MutationResult{}, fmt.Errorf("router: shard %q WAL append: %w", sh.name, err)
	}
	return &stagedMutation{sh: sh, start: start, pending: pending}, MutationResult{}, nil
}

// observeMutate reports one mutation's latency since start to the telemetry
// hook, when one is installed.
func (sh *Shard) observeMutate(start time.Time) {
	if sh.tel != nil && sh.tel.MutateSeconds != nil {
		sh.tel.MutateSeconds(sh.name, time.Since(start).Seconds())
	}
}

// wait blocks until the staged batch's group has committed and the
// committer has published it, and returns the batch's own effect. When the
// commit failed nothing was applied: the catalog never saw the batch,
// readers never saw the constraints, and the caller gets the durability
// error. Nothing to roll back.
func (m *stagedMutation) wait() (MutationResult, error) {
	if err := m.pending.Wait(); err != nil {
		return MutationResult{}, fmt.Errorf("router: shard %q mutation not durable: %w", m.sh.name, err)
	}
	m.sh.observeMutate(m.start)
	eff := m.pending.Effect()
	if err, ok := eff.(error); ok {
		return MutationResult{}, fmt.Errorf("router: shard %q mutation not applied: %w", m.sh.name, err)
	}
	return eff.(MutationResult), nil
}

// BatchOp is one schema-addressed step of a batch mutation.
type BatchOp struct {
	Schema string
	Remove bool
	ODs    []core.OD
}

// ApplyBatch groups the steps by resolved shard and applies each shard's
// steps as ONE WAL record — a single staging and a single group commit per
// shard regardless of how many statements the batch carries. All shards stage before any durability wait,
// so cross-shard batches overlap their fsyncs instead of serializing them.
// A shard whose commit failed never applies; shards that committed publish —
// cross-shard batches are not atomic, each shard is. Results are per shard,
// keyed by shard name.
func (r *Router) ApplyBatch(ops []BatchOp) (map[string]MutationResult, error) {
	if r.opt.Follower {
		return nil, fmt.Errorf("router: %w: mutations must go to the leader", errReadOnly)
	}
	type bucket struct {
		declares []core.OD
		removes  []core.OD
	}
	order := []string{}
	buckets := map[string]*bucket{}
	for i := range ops {
		schema, err := r.SchemaFor(ops[i].Schema, ops[i].ODs)
		if err != nil {
			return nil, err
		}
		b, ok := buckets[schema]
		if !ok {
			b = &bucket{}
			buckets[schema] = b
			order = append(order, schema)
		}
		if ops[i].Remove {
			b.removes = append(b.removes, ops[i].ODs...)
		} else {
			b.declares = append(b.declares, ops[i].ODs...)
		}
	}

	out := make(map[string]MutationResult, len(buckets))
	var staged []*stagedMutation
	var firstErr error
	for _, schema := range order {
		b := buckets[schema]
		sh, err := r.openShard(schema)
		if err != nil {
			firstErr = err
			break
		}
		sm, res, err := sh.stage(b.declares, b.removes)
		if err != nil {
			firstErr = err
			break
		}
		if sm == nil {
			out[schema] = res // ephemeral shard, already applied
			continue
		}
		staged = append(staged, sm)
	}
	// Drain every staged shard even when a later one failed mid-loop: each
	// commits and publishes, or fails unapplied, before the call returns.
	for _, sm := range staged {
		res, err := sm.wait()
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		out[sm.sh.name] = res
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// ProveOne decides one statement (a conjunction of ODs) against its shard,
// honoring ctx cancellation.
func (r *Router) ProveOne(ctx context.Context, schema string, ods []core.OD) (catalog.ProveResult, uint64, string, error) {
	key, err := r.SchemaFor(schema, ods)
	if err != nil {
		return catalog.ProveResult{}, 0, "", err
	}
	if err := r.CheckReadLag(key, 0); err != nil {
		return catalog.ProveResult{}, 0, "", err
	}
	start := time.Now()
	res, gen := r.readCatalog(key).ProveEachCtx(ctx, [][]core.OD{ods})
	r.observeProve(key, start)
	return res[0], gen, key, nil
}

// observeProve reports one prove call's latency since start to the telemetry
// hook, when one is installed.
func (r *Router) observeProve(shard string, start time.Time) {
	if t := r.opt.Telemetry; t != nil && t.ProveSeconds != nil {
		t.ProveSeconds(shard, time.Since(start).Seconds())
	}
}

// BatchVerdict is one statement's outcome within a batch prove.
type BatchVerdict struct {
	Schema     string
	Generation uint64
	Result     catalog.ProveResult
}

// ProveBatch decides many statements, grouping them by shard so each shard
// is snapshotted once: statements on the same shard are answered against one
// constraint generation, and shards are consulted independently. Order of
// verdicts matches order of statements. Cancelling ctx aborts the in-flight
// search and fails the remaining statements with the context's error.
func (r *Router) ProveBatch(ctx context.Context, schema string, stmts [][]core.OD) ([]BatchVerdict, error) {
	type group struct {
		idx []int
		qs  [][]core.OD
	}
	order := []string{}
	groups := map[string]*group{}
	for i, ods := range stmts {
		key, err := r.SchemaFor(schema, ods)
		if err != nil {
			return nil, err
		}
		g, ok := groups[key]
		if !ok {
			g = &group{}
			groups[key] = g
			order = append(order, key)
		}
		g.idx = append(g.idx, i)
		g.qs = append(g.qs, ods)
	}
	out := make([]BatchVerdict, len(stmts))
	for _, key := range order {
		if err := r.CheckReadLag(key, 0); err != nil {
			return nil, err
		}
	}
	for _, key := range order {
		g := groups[key]
		start := time.Now()
		res, gen := r.readCatalog(key).ProveEachCtx(ctx, g.qs)
		r.observeProve(key, start)
		for j, i := range g.idx {
			out[i] = BatchVerdict{Schema: key, Generation: gen, Result: res[j]}
		}
	}
	return out, nil
}

// Generations reports every shard's current constraint generation, keyed by
// shard name — the lightweight staleness poll behind GET /generation. It
// reads one atomic-ish counter per shard (a brief read lock, no listing
// copy), so clients can revalidate cached verdicts far cheaper than a
// listing or health scrape.
func (r *Router) Generations() map[string]uint64 {
	out := make(map[string]uint64)
	for _, name := range r.ShardNames() {
		if sh := r.shard(name); sh != nil {
			out[name] = sh.cat.Generation()
		}
	}
	return out
}

// GenerationOf reports one shard's generation; absent shards answer 0, the
// generation an empty catalog starts at.
func (r *Router) GenerationOf(schema string) (uint64, error) {
	if err := ValidSchema(schema); err != nil {
		return 0, err
	}
	return r.readCatalog(schema).Generation(), nil
}

// Listing returns one shard's consistent listing.
func (r *Router) Listing(schema string) (catalog.Listing, error) {
	if err := ValidSchema(schema); err != nil {
		return catalog.Listing{}, err
	}
	return r.readCatalog(schema).Listing(), nil
}

// ListingAll fans out across every shard and returns the per-shard listings
// keyed by shard name — each internally consistent; cross-shard consistency
// is not a meaningful notion since shards share no attributes by contract.
func (r *Router) ListingAll() map[string]catalog.Listing {
	out := make(map[string]catalog.Listing)
	for _, name := range r.ShardNames() {
		if sh := r.shard(name); sh != nil {
			out[name] = sh.cat.Listing()
		}
	}
	return out
}

// Catalog exposes a shard's catalog for read-side helpers (rewrite); absent
// shards read as empty.
func (r *Router) Catalog(schema string) (*catalog.Catalog, error) {
	if err := ValidSchema(schema); err != nil {
		return nil, err
	}
	return r.readCatalog(schema), nil
}

// SchemaForList resolves the shard for an attribute list (rewrite requests).
func (r *Router) SchemaForList(explicit string, l core.List) (string, error) {
	return r.SchemaFor(explicit, []core.OD{{LHS: l}})
}

// ShardStats is one shard's health summary. OK is false when the shard is
// degraded — its WAL carries a sticky failure (mutations are rejected) or
// its last snapshot/compaction failed (the log compacts no more and
// recovery time grows unboundedly) — and Reason then names the failing
// component, so an orchestrator reads the per-shard verdict without
// diffing raw counters.
type ShardStats struct {
	OK       bool                 `json:"ok"`
	Reason   string               `json:"reason,omitempty"`
	Catalog  catalog.Stats        `json:"catalog"`
	Store    *store.Stats         `json:"store,omitempty"`
	Follower *store.FollowerStats `json:"follower,omitempty"`
	Replica  *ReplicaStatus       `json:"replica,omitempty"`
}

// Stats fans out across shards.
func (r *Router) Stats() map[string]ShardStats {
	out := make(map[string]ShardStats)
	for _, name := range r.ShardNames() {
		sh := r.shard(name)
		if sh == nil {
			continue
		}
		ss := ShardStats{OK: true, Catalog: sh.cat.Stats()}
		if sh.st != nil {
			st := sh.st.Stats()
			ss.Store = &st
			switch {
			case st.WALError != "":
				ss.OK, ss.Reason = false, "wal: "+st.WALError
			case st.SnapshotError != "":
				ss.OK, ss.Reason = false, "snapshot: "+st.SnapshotError
			case st.CompactionError != "":
				ss.OK, ss.Reason = false, "compaction: "+st.CompactionError
			}
		}
		if r.opt.Follower {
			fst := sh.fs.Stats()
			ss.Follower = &fst
			rs := r.replicaStatus(sh)
			ss.Replica = &rs
			if err := r.CheckReadLag(name, 0); err != nil {
				ss.OK, ss.Reason = false, "replication: "+err.Error()
			}
		}
		out[name] = ss
	}
	return out
}

// ShardStore exposes the named shard's durability store — nil for absent or
// ephemeral shards. Admin and fault-drill access (health tests kill a
// shard's WAL through it and assert the degraded flip).
func (r *Router) ShardStore(schema string) *store.Store {
	if sh := r.shard(schema); sh != nil {
		return sh.st
	}
	return nil
}

// SnapshotResult reports one shard's admin-triggered compaction: the
// snapshot cut point, the ODs it captured, and how many fully covered WAL
// segments were deleted.
type SnapshotResult struct {
	Seq             int `json:"seq"`
	Declared        int `json:"declared"`
	SegmentsRemoved int `json:"segmentsRemoved"`
}

// SnapshotAll nudges every durable shard's compactor and waits for each
// pass to finish, returning per-shard results. Ephemeral shards are
// skipped. Writers are never blocked: compaction snapshots off the apply
// path by design.
func (r *Router) SnapshotAll() (map[string]SnapshotResult, error) {
	if r.opt.Follower {
		return nil, fmt.Errorf("router: %w: snapshots are cut by the leader", errReadOnly)
	}
	return r.snapshotNames(r.ShardNames())
}

// SnapshotOne compacts the named shard alone — the default shard when
// schema is empty, which SnapshotAll cannot address individually.
func (r *Router) SnapshotOne(schema string) (map[string]SnapshotResult, error) {
	if r.opt.Follower {
		return nil, fmt.Errorf("router: %w: snapshots are cut by the leader", errReadOnly)
	}
	if err := ValidSchema(schema); err != nil {
		return nil, err
	}
	return r.snapshotNames([]string{schema})
}

func (r *Router) snapshotNames(names []string) (map[string]SnapshotResult, error) {
	out := make(map[string]SnapshotResult)
	for _, name := range names {
		sh := r.shard(name)
		if sh == nil || sh.st == nil {
			continue
		}
		res, err := sh.st.CompactNow()
		if err != nil {
			return nil, fmt.Errorf("router: compacting shard %q: %w", name, err)
		}
		out[name] = SnapshotResult{Seq: int(res.Seq), Declared: res.Declared, SegmentsRemoved: res.SegmentsRemoved}
	}
	return out, nil
}

// Close closes every shard's store.
func (r *Router) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	var first error
	for _, sh := range r.shards {
		if sh.st != nil {
			if err := sh.st.Close(); err != nil && first == nil {
				first = err
			}
		}
		if sh.fs != nil {
			if err := sh.fs.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}
