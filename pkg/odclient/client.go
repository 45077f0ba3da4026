package odclient

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"odlib/internal/core"
)

// ErrClosed is returned by calls made after Close.
var ErrClosed = errors.New("odclient: client is closed")

// APIError is a non-2xx answer from the daemon, carrying the HTTP status and
// the server's {"error": ...} message. Follower refusals (421 misdirected
// mutations, 503 over-lag reads) also carry the leader's URL in Leader, so a
// caller holding only a replica address can still find the write path.
type APIError struct {
	Status  int
	Message string
	Leader  string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("odclient: server answered %d: %s", e.Status, e.Message)
}

// IsProveTimeout reports whether err is the server's 504 — the configured
// -prove-timeout expired before the pattern search finished. Retrying the
// same statement will almost certainly time out again, so the client never
// retries these; callers may re-ask with a smaller question instead.
func IsProveTimeout(err error) bool {
	var ae *APIError
	return errors.As(err, &ae) && ae.Status == http.StatusGatewayTimeout
}

// Verdict is one statement's implication answer.
type Verdict struct {
	Statement string `json:"statement"`
	// Schema is the shard that answered — the resolved shard, which may
	// differ from the requested schema when the server derives shards from
	// attribute prefixes.
	Schema  string `json:"schema"`
	Implied bool   `json:"implied"`
	// Generation stamps the constraint set the verdict was computed under;
	// the cache keys its validity on it.
	Generation uint64   `json:"generation"`
	Witness    *Witness `json:"witness,omitempty"`
}

// Witness is a two-row counterexample projected onto its discriminating
// attributes, as served by the daemon.
type Witness struct {
	Pattern string            `json:"pattern"`
	Signs   map[string]string `json:"signs"`
	Rows    [][]int64         `json:"rows"`
	Attrs   []string          `json:"attrs"`
}

// Relation materializes the witness as a two-row core.Relation that
// satisfies the declared constraints and falsifies the refuted statement.
func (w *Witness) Relation() (*core.Relation, error) {
	attrs := make(core.List, len(w.Attrs))
	for i, a := range w.Attrs {
		attrs[i] = core.Attribute(a)
	}
	rel, err := core.NewRelation(attrs)
	if err != nil {
		return nil, err
	}
	for _, row := range w.Rows {
		if err := rel.AddIntRow(row...); err != nil {
			return nil, err
		}
	}
	return rel, nil
}

// Mutation is one shard's outcome of a declare/remove, mirroring the
// daemon's mutation response.
type Mutation struct {
	Schema     string `json:"schema"`
	Added      int    `json:"added"`
	Removed    int    `json:"removed"`
	Declared   int    `json:"declared"`
	Closure    int    `json:"closure"`
	Generation uint64 `json:"generation"`
	Seq        uint64 `json:"seq"`
}

// Listing is one shard's declared set and closure at a generation.
type Listing struct {
	Schema     string   `json:"schema"`
	Generation uint64   `json:"generation"`
	Declared   []string `json:"declared"`
	Closure    []string `json:"closure"`
}

// RewriteResult is the daemon's ReduceOrder⁺/ReduceGroupBy answer.
type RewriteResult struct {
	Input      string `json:"input"`
	Reduced    string `json:"reduced"`
	Schema     string `json:"schema"`
	Generation uint64 `json:"generation"`
	Steps      []struct {
		Rule    string `json:"rule"`
		Segment string `json:"segment"`
		Pos     int    `json:"pos"`
		By      string `json:"by"`
	} `json:"steps"`
}

// Health is the subset of /healthz a client acts on: overall liveness and
// each shard's generation (used to invalidate cached verdicts).
type Health struct {
	OK          bool
	Generations map[string]uint64
}

// Stats are cumulative client-side counters; read them with Stats().
type Stats struct {
	// Proves counts Prove calls; CacheHits of them were answered from the
	// verdict cache and CoalesceJoins joined another caller's in-flight
	// request — neither reached the wire.
	Proves        uint64
	CacheHits     uint64
	CoalesceJoins uint64
	// HTTPRequests counts requests actually sent (each retry attempt is
	// one); Retries counts re-attempts after a retryable failure.
	HTTPRequests uint64
	Retries      uint64
	// PipelineBatches counts flushes, PipelineStatements the statements
	// they carried; their ratio is the amortization the pipeliner bought.
	PipelineBatches    uint64
	PipelineStatements uint64
	// GenerationPolls counts GET /generation revalidations issued by the
	// cache's staleness bound.
	GenerationPolls uint64
	// ReplicaReads counts reads routed to a configured replica;
	// ReplicaFailovers of them could not be answered there (transport error,
	// lag refusal) and fell over to the leader.
	ReplicaReads     uint64
	ReplicaFailovers uint64
}

type statsCounters struct {
	proves, cacheHits, coalesceJoins    atomic.Uint64
	httpRequests, retries               atomic.Uint64
	pipelineBatches, pipelineStatements atomic.Uint64
	generationPolls                     atomic.Uint64
	replicaReads, replicaFailovers      atomic.Uint64
}

type options struct {
	hc             *http.Client
	coalesce       bool
	pipeWindow     time.Duration
	pipeMaxBatch   int
	cacheCap       int
	cacheMaxAge    time.Duration
	retries        int
	retryBackoff   time.Duration
	requestTimeout time.Duration
	metrics        MetricsRegistry
	replicas       []string
	maxLag         int
}

// Option configures a Client.
type Option func(*options)

// WithHTTPClient substitutes the underlying *http.Client (e.g. an
// httptest.Server's client in tests). The default is a fresh client with no
// global timeout — per-call contexts bound every request.
func WithHTTPClient(hc *http.Client) Option {
	return func(o *options) { o.hc = hc }
}

// WithCoalescing toggles per-OD-key singleflight coalescing of concurrent
// identical Prove calls. On by default: it changes no semantics, only
// collapses duplicate in-flight work.
func WithCoalescing(on bool) Option {
	return func(o *options) { o.coalesce = on }
}

// WithPipelining turns on the background batch pipeliner: individual Prove,
// Declare and Remove calls accumulate for up to window (or maxBatch
// statements, whichever first) and flush through /prove/batch and
// /ods/batch. Callers still block until their own statement's answer is
// back; what changes is that a burst shares one round trip, one shard
// snapshot and one WAL group commit. window <= 0 or maxBatch <= 1 disable.
//
// A pipelined request runs under the client's request timeout rather than
// the submitting caller's context: the flushed batch is shared work, and one
// caller hanging up must not abort everyone else's statements. A caller
// whose context dies stops waiting immediately; its statement's answer still
// lands in the verdict cache for the next asker.
func WithPipelining(window time.Duration, maxBatch int) Option {
	return func(o *options) { o.pipeWindow, o.pipeMaxBatch = window, maxBatch }
}

// WithCache enables the bounded-staleness verdict cache: up to capacity
// verdicts, each keyed by the generation the server stamped it with. A hit
// is served only when its generation still equals the shard's current one;
// the client's view of "current" is refreshed by every response it sees and,
// when that view is older than maxAge, by a GET /generation poll before the
// hit is trusted. maxAge 0 polls before every hit — still far cheaper than
// re-proving; maxAge < 0 disables the staleness bound entirely (trust the
// last observed generation indefinitely, suitable when this client is the
// only mutator).
func WithCache(capacity int, maxAge time.Duration) Option {
	return func(o *options) { o.cacheCap, o.cacheMaxAge = capacity, maxAge }
}

// WithRetry configures transport-failure handling: up to retries
// re-attempts with exponential backoff starting at backoff. Only transport
// errors and 502/503 answers are retried — 4xx are the request's own fault,
// 504 is a prove deadline (see IsProveTimeout), and a dead context is never
// retried.
func WithRetry(retries int, backoff time.Duration) Option {
	return func(o *options) { o.retries, o.retryBackoff = retries, backoff }
}

// WithRequestTimeout bounds each background (pipelined) HTTP request, which
// has no caller context to inherit. Direct calls are bounded by their own
// context only. Default 30s.
func WithRequestTimeout(d time.Duration) Option {
	return func(o *options) { o.requestTimeout = d }
}

// Client talks to an odserve daemon. All methods are safe for concurrent
// use; a Client is intended to be shared process-wide, since sharing is
// what makes coalescing, pipelining and the verdict cache effective.
type Client struct {
	base  string
	hc    *http.Client
	o     options
	stats statsCounters
	met   clientMetrics

	gens   *generations
	cache  *verdictCache // nil when disabled
	flight *flightGroup  // nil when coalescing disabled
	pipe   *pipeliner    // nil when pipelining disabled

	replicaRR atomic.Uint64 // round-robin cursor over o.replicas
	closed    atomic.Bool
}

// New builds a client for the daemon at baseURL (e.g. "http://localhost:8080").
// Close it when done to flush and stop the pipeliner.
func New(baseURL string, opts ...Option) (*Client, error) {
	if baseURL == "" {
		return nil, errors.New("odclient: empty base URL")
	}
	o := options{
		coalesce:       true,
		retryBackoff:   50 * time.Millisecond,
		requestTimeout: 30 * time.Second,
	}
	for _, f := range opts {
		f(&o)
	}
	if o.hc == nil {
		o.hc = &http.Client{}
	}
	c := &Client{
		base: strings.TrimRight(baseURL, "/"),
		hc:   o.hc,
		o:    o,
		met:  newClientMetrics(o.metrics),
		gens: newGenerations(),
	}
	if o.cacheCap > 0 {
		c.cache = newVerdictCache(o.cacheCap)
	}
	if o.coalesce {
		c.flight = newFlightGroup()
	}
	if o.pipeWindow > 0 && o.pipeMaxBatch > 1 {
		c.pipe = newPipeliner(c, o.pipeWindow, o.pipeMaxBatch)
	}
	return c, nil
}

// Close flushes and stops the background pipeliner. In-flight calls finish;
// calls made after Close fail with ErrClosed.
func (c *Client) Close() error {
	if !c.closed.CompareAndSwap(false, true) {
		return nil
	}
	if c.pipe != nil {
		c.pipe.stop()
	}
	return nil
}

// Stats returns a point-in-time copy of the client's counters.
func (c *Client) Stats() Stats {
	return Stats{
		Proves:             c.stats.proves.Load(),
		CacheHits:          c.stats.cacheHits.Load(),
		CoalesceJoins:      c.stats.coalesceJoins.Load(),
		HTTPRequests:       c.stats.httpRequests.Load(),
		Retries:            c.stats.retries.Load(),
		PipelineBatches:    c.stats.pipelineBatches.Load(),
		PipelineStatements: c.stats.pipelineStatements.Load(),
		GenerationPolls:    c.stats.generationPolls.Load(),
		ReplicaReads:       c.stats.replicaReads.Load(),
		ReplicaFailovers:   c.stats.replicaFailovers.Load(),
	}
}

// proveKey canonicalizes a statement into the coalescing/cache key: the
// parsed ODs' canonical keys, so textual variants of the same question
// ("[a]->[b]" vs "[a] -> [b]") collapse.
func proveKey(schema string, ods []core.OD) string {
	var b strings.Builder
	b.WriteString(schema)
	for _, od := range ods {
		b.WriteByte(0)
		b.WriteString(od.Key())
	}
	return b.String()
}

// Prove decides catalog ⊨ statement on the schema's shard. The full client
// path applies: verdict cache, then singleflight coalescing with concurrent
// identical calls, then the batch pipeliner (when enabled), then the wire.
// A direct (unpipelined) request is cancelled when ctx dies, aborting the
// server-side search; see WithPipelining for the pipelined contract.
func (c *Client) Prove(ctx context.Context, schema, statement string) (Verdict, error) {
	if c.closed.Load() {
		return Verdict{}, ErrClosed
	}
	c.stats.proves.Add(1)
	obs(c.met.proves, 1)
	ods, err := core.ParseStatement(statement)
	if err != nil {
		return Verdict{}, fmt.Errorf("odclient: %w", err)
	}
	key := proveKey(schema, ods)
	if v, ok := c.cacheGet(ctx, key); ok {
		return v, nil
	}
	if c.flight == nil {
		return c.proveFetch(ctx, schema, statement, key)
	}
	return c.flight.do(ctx, key, func(fctx context.Context) (Verdict, error) {
		// Re-check the cache under the flight: an earlier leader or a batch
		// flush may have filled it while this caller queued.
		if v, ok := c.cacheGet(fctx, key); ok {
			return v, nil
		}
		return c.proveFetch(fctx, schema, statement, key)
	}, func() {
		c.stats.coalesceJoins.Add(1)
		obs(c.met.coalesceJoins, 1)
	})
}

// proveFetch asks the daemon: through the pipeliner when one runs, else a
// direct POST /prove.
func (c *Client) proveFetch(ctx context.Context, schema, statement, key string) (Verdict, error) {
	if c.pipe != nil {
		return c.pipe.prove(ctx, schema, statement, key)
	}
	var resp struct {
		Verdict
		Error string `json:"error,omitempty"`
	}
	err := c.doRead(ctx, http.MethodPost, "/prove", proveBody{Schema: schema, Statement: statement}, &resp)
	if err != nil {
		return Verdict{}, err
	}
	if resp.Error != "" {
		return Verdict{}, fmt.Errorf("odclient: prove %q: %s", statement, resp.Error)
	}
	c.observe(resp.Verdict.Schema, resp.Verdict.Generation)
	c.cachePut(key, resp.Verdict)
	return resp.Verdict, nil
}

// ProveBatch decides many statements in one explicit /prove/batch request,
// bypassing the pipeliner (the caller has already batched). Verdicts come
// back in statement order. Statements that failed individually (the server
// answers them in place without failing the batch) keep their Statement
// field set but are otherwise zero; every such failure is reported in the
// returned error, joined and labeled with its statement index, alongside
// the verdicts of the statements that succeeded.
func (c *Client) ProveBatch(ctx context.Context, schema string, statements []string) ([]Verdict, error) {
	if c.closed.Load() {
		return nil, ErrClosed
	}
	results, err := c.proveBatchWire(ctx, schema, statements)
	if err != nil {
		return nil, err
	}
	out := make([]Verdict, len(results))
	var errs []error
	for i, r := range results {
		if r.Error != "" {
			errs = append(errs, fmt.Errorf("odclient: statement %d %q: %s", i, statements[i], r.Error))
			out[i] = Verdict{Statement: statements[i]}
			continue
		}
		if ods, perr := core.ParseStatement(statements[i]); perr == nil {
			c.cachePut(proveKey(schema, ods), r.Verdict)
		}
		out[i] = r.Verdict
	}
	return out, errors.Join(errs...)
}

// wireVerdict is one /prove/batch result slot: a verdict or a
// statement-level error.
type wireVerdict struct {
	Verdict
	Error string `json:"error,omitempty"`
}

// proveBatchWire is the raw /prove/batch round trip, shared by ProveBatch
// and the pipeliner's flush (which must keep working while Close drains).
// Generations are observed; the cache is NOT filled here — callers decide
// which statements map to which cache keys.
func (c *Client) proveBatchWire(ctx context.Context, schema string, statements []string) ([]wireVerdict, error) {
	var resp struct {
		Results []wireVerdict `json:"results"`
	}
	err := c.doRead(ctx, http.MethodPost, "/prove/batch", proveBatchBody{Schema: schema, Statements: statements}, &resp)
	if err != nil {
		return nil, err
	}
	if len(resp.Results) != len(statements) {
		return nil, fmt.Errorf("odclient: %d results for %d statements", len(resp.Results), len(statements))
	}
	for _, r := range resp.Results {
		if r.Error == "" {
			c.observe(r.Verdict.Schema, r.Verdict.Generation)
		}
	}
	return resp.Results, nil
}

// Declare declares OD statements on the schema's shard. With pipelining on,
// the statements join the current batch window and the call returns once
// the flushed mutation is durable; without, it is one direct /ods/batch
// round trip. Either way the server acknowledges only after the WAL commit.
func (c *Client) Declare(ctx context.Context, schema string, statements ...string) error {
	return c.mutateStmts(ctx, schema, statements, nil)
}

// Remove withdraws OD statements, with the same batching contract as
// Declare.
func (c *Client) Remove(ctx context.Context, schema string, statements ...string) error {
	return c.mutateStmts(ctx, schema, nil, statements)
}

func (c *Client) mutateStmts(ctx context.Context, schema string, declare, remove []string) error {
	if c.closed.Load() {
		return ErrClosed
	}
	if len(declare)+len(remove) == 0 {
		return errors.New("odclient: no statements given")
	}
	// Validate client-side before enqueueing: a pipelined flush merges many
	// callers' statements into one /ods/batch, and the server rejects a
	// batch wholesale on any parse error — one caller's typo must not
	// poison everyone else's window.
	for _, stmts := range [][]string{declare, remove} {
		for _, s := range stmts {
			if _, err := core.ParseStatement(s); err != nil {
				return fmt.Errorf("odclient: %w", err)
			}
		}
	}
	if c.pipe != nil {
		return c.pipe.mutate(ctx, schema, declare, remove)
	}
	_, err := c.Mutate(ctx, schema, declare, remove)
	return err
}

// Mutate is the explicit one-shot /ods/batch call: declare and withdraw in
// one shard mutation, returning per-shard outcomes. It bypasses the
// pipeliner; use it when the exact added/removed counts matter.
func (c *Client) Mutate(ctx context.Context, schema string, declare, remove []string) (map[string]Mutation, error) {
	if c.closed.Load() {
		return nil, ErrClosed
	}
	return c.mutateWire(ctx, schema, declare, remove)
}

// mutateWire is the raw /ods/batch round trip, shared by Mutate and the
// pipeliner's flush.
func (c *Client) mutateWire(ctx context.Context, schema string, declare, remove []string) (map[string]Mutation, error) {
	var resp struct {
		Shards map[string]Mutation `json:"shards"`
	}
	err := c.do(ctx, http.MethodPost, "/ods/batch", mutateBody{Declare: declare, Remove: remove, Schema: schema}, &resp)
	if err != nil {
		return nil, err
	}
	for name, m := range resp.Shards {
		c.observe(name, m.Generation)
	}
	return resp.Shards, nil
}

// Listing fetches one shard's declared ODs and closure.
func (c *Client) Listing(ctx context.Context, schema string) (Listing, error) {
	if c.closed.Load() {
		return Listing{}, ErrClosed
	}
	var out Listing
	if err := c.doRead(ctx, http.MethodGet, "/ods?schema="+schema, nil, &out); err != nil {
		return Listing{}, err
	}
	c.observe(out.Schema, out.Generation)
	return out, nil
}

// Rewrite runs the daemon-side ReduceOrder⁺ on an ORDER BY list (statement
// syntax, e.g. "[year, quarter, month]").
func (c *Client) Rewrite(ctx context.Context, schema, order string) (RewriteResult, error) {
	return c.rewrite(ctx, rewriteOrderBody{Order: order, Schema: schema})
}

// RewriteGroupBy runs the daemon-side GROUP BY reduction.
func (c *Client) RewriteGroupBy(ctx context.Context, schema, group string) (RewriteResult, error) {
	return c.rewrite(ctx, rewriteGroupBody{GroupBy: group, Schema: schema})
}

func (c *Client) rewrite(ctx context.Context, req any) (RewriteResult, error) {
	if c.closed.Load() {
		return RewriteResult{}, ErrClosed
	}
	var out RewriteResult
	if err := c.doRead(ctx, http.MethodPost, "/rewrite", req, &out); err != nil {
		return RewriteResult{}, err
	}
	c.observe(out.Schema, out.Generation)
	return out, nil
}

// Generations polls GET /generation — the cheapest staleness check — and
// folds the answer into the client's generation view, revalidating (or
// invalidating) every cached verdict in one round trip.
func (c *Client) Generations(ctx context.Context) (map[string]uint64, error) {
	if c.closed.Load() {
		return nil, ErrClosed
	}
	var resp struct {
		Shards map[string]uint64 `json:"shards"`
	}
	if err := c.doRead(ctx, http.MethodGet, "/generation", nil, &resp); err != nil {
		return nil, err
	}
	for name, gen := range resp.Shards {
		c.observe(name, gen)
	}
	return resp.Shards, nil
}

// Healthz scrapes /healthz, folding each shard's generation into the
// client's view exactly like Generations. It reports OK even when the
// daemon answers 503 — unhealth is data here, not a transport failure.
func (c *Client) Healthz(ctx context.Context) (Health, error) {
	if c.closed.Load() {
		return Health{}, ErrClosed
	}
	var resp struct {
		OK     bool `json:"ok"`
		Shards map[string]struct {
			Catalog struct {
				Generation uint64 `json:"generation"`
			} `json:"catalog"`
		} `json:"shards"`
	}
	err := c.do(ctx, http.MethodGet, "/healthz", nil, &resp)
	var ae *APIError
	if err != nil && !(errors.As(err, &ae) && ae.Status == http.StatusServiceUnavailable) {
		return Health{}, err
	}
	h := Health{OK: resp.OK, Generations: make(map[string]uint64, len(resp.Shards))}
	for name, sh := range resp.Shards {
		h.Generations[name] = sh.Catalog.Generation
		c.observe(name, sh.Catalog.Generation)
	}
	return h, nil
}

// observe folds a generation stamp seen on any response into the client's
// per-shard view.
func (c *Client) observe(schema string, gen uint64) {
	c.gens.observe(schema, gen)
}

// cacheGet serves a still-valid cached verdict. Validity is generation
// equality against the client's view of the entry's shard; when that view
// is older than the staleness bound, one GET /generation refreshes it
// first. Entries that lost their generation are evicted on the way out.
func (c *Client) cacheGet(ctx context.Context, key string) (Verdict, bool) {
	if c.cache == nil {
		return Verdict{}, false
	}
	v, ok := c.cache.get(key)
	if !ok {
		return Verdict{}, false
	}
	gen, seen, known := c.gens.current(v.Schema)
	if !known {
		return Verdict{}, false
	}
	if c.o.cacheMaxAge >= 0 && time.Since(seen) > c.o.cacheMaxAge {
		c.stats.generationPolls.Add(1)
		obs(c.met.generationPolls, 1)
		if _, err := c.Generations(ctx); err != nil {
			return Verdict{}, false
		}
		gen, _, known = c.gens.current(v.Schema)
		if !known {
			return Verdict{}, false
		}
	}
	if v.Generation != gen {
		c.cache.evict(key)
		return Verdict{}, false
	}
	c.stats.cacheHits.Add(1)
	obs(c.met.cacheHits, 1)
	return v, true
}

func (c *Client) cachePut(key string, v Verdict) {
	if c.cache != nil {
		c.cache.put(key, v)
	}
}

// retryable reports whether an attempt's failure is worth a re-send against
// the SAME host: transport errors, 502/503 answers, and 429 (the daemon
// shedding declares under compaction backpressure — explicitly transient, the
// response says Retry-After) are; anything else the server decided (4xx, 500,
// 504) and any form of cancellation is not. 421 in particular is never
// retryable here: a follower answering "misdirected, go to the leader" will
// answer it identically forever — re-sending to the same host only burns the
// retry budget (failover is doRead's job, not do's).
func retryable(err error) bool {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var ae *APIError
	if errors.As(err, &ae) {
		if ae.Status == http.StatusMisdirectedRequest {
			return false
		}
		return ae.Status == http.StatusBadGateway ||
			ae.Status == http.StatusServiceUnavailable ||
			ae.Status == http.StatusTooManyRequests
	}
	return true
}

// Request bodies. Fields are declared in name order, so each marshals to the
// bytes the equivalent map did: encoding/json writes a map's keys sorted.
type (
	proveBody struct {
		Schema    string `json:"schema"`
		Statement string `json:"statement"`
	}
	proveBatchBody struct {
		Schema     string   `json:"schema"`
		Statements []string `json:"statements"`
	}
	mutateBody struct {
		Declare []string `json:"declare"`
		Remove  []string `json:"remove"`
		Schema  string   `json:"schema"`
	}
	rewriteOrderBody struct {
		Order  string `json:"order"`
		Schema string `json:"schema"`
	}
	rewriteGroupBody struct {
		GroupBy string `json:"groupBy"`
		Schema  string `json:"schema"`
	}
)

func marshalBody(in any) ([]byte, error) {
	if in == nil {
		return nil, nil
	}
	return json.Marshal(in)
}

// do sends one JSON request to the leader, decodes the JSON answer into out,
// and retries retryable failures per WithRetry. The context bounds all
// attempts and the backoff sleeps between them.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	body, err := marshalBody(in)
	if err != nil {
		return err
	}
	backoff := c.o.retryBackoff
	for attempt := 0; ; attempt++ {
		err := c.doOnce(ctx, c.base, method, path, body, out, false)
		if err == nil || attempt >= c.o.retries || !retryable(err) || ctx.Err() != nil {
			return err
		}
		c.stats.retries.Add(1)
		obs(c.met.retries, 1)
		select {
		case <-time.After(backoff):
		case <-ctx.Done():
			return ctx.Err()
		}
		backoff *= 2
	}
}

// doOnce sends one request to the host at base. Replica reads carry the
// client's staleness bound so an over-stale follower refuses instead of
// answering wrong-by-omission.
func (c *Client) doOnce(ctx context.Context, base, method, path string, body []byte, out any, replica bool) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if replica && c.o.maxLag > 0 {
		req.Header.Set("X-OD-Max-Lag-Records", strconv.Itoa(c.o.maxLag))
	}
	c.stats.httpRequests.Add(1)
	obs(c.met.httpRequests, 1)
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		msg := resp.Status
		var we struct {
			Error  string `json:"error"`
			Leader string `json:"leader"`
		}
		if json.Unmarshal(b, &we) == nil && we.Error != "" {
			msg = we.Error
		} else if out != nil {
			// /healthz carries its full payload on a 503; hand it to callers
			// alongside the APIError so unhealth remains inspectable data.
			_ = json.Unmarshal(b, out)
		}
		return &APIError{Status: resp.StatusCode, Message: msg, Leader: we.Leader}
	}
	if out == nil {
		return nil
	}
	buf := bodyBuffers.Get().(*bytes.Buffer)
	defer releaseBody(buf)
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return err
	}
	return json.Unmarshal(buf.Bytes(), out)
}

// maxPooledBody caps the buffers bodyBuffers keeps: a prove's answer is a
// few hundred bytes, and one large read (a listing, /healthz) must not stay
// resident for the life of the process.
const maxPooledBody = 64 << 10

// bodyBuffers holds the buffers doOnce reads a 2xx answer into before one
// json.Unmarshal. The decoded value never aliases the buffer: encoding/json
// copies every string and byte slice out of its input.
var bodyBuffers = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func releaseBody(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledBody {
		bodyBuffers.Put(buf)
	}
}
