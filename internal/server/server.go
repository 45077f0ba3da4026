package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"time"

	"odlib/internal/catalog"
	"odlib/internal/core"
	"odlib/internal/prover"
	"odlib/internal/router"
)

// Server is the HTTP front end over a sharded constraint catalog.
type Server struct {
	rt              *router.Router
	mux             *http.ServeMux
	proveTimeout    time.Duration
	tel             *Telemetry
	accessLog       *slog.Logger
	discoverWorkers int
	discoverPool    *prover.Pool
	leader          string
}

// Option configures a Server.
type Option func(*Server)

// WithProveTimeout bounds every prove/rewrite request's search time; zero
// (the default) leaves searches bounded only by the client's patience.
func WithProveTimeout(d time.Duration) Option {
	return func(s *Server) { s.proveTimeout = d }
}

// WithTelemetry serves t's registry on GET /metrics and turns on the
// request-level instruments (latency histogram, request counter, in-flight
// gauge). The layer hooks inside t must be threaded into the router's
// options separately — see Telemetry.
func WithTelemetry(t *Telemetry) Option {
	return func(s *Server) { s.tel = t }
}

// WithAccessLog emits one structured line per request on logger: method,
// route, status, resolved shard, verdict tier (for proves) and duration.
func WithAccessLog(logger *slog.Logger) Option {
	return func(s *Server) { s.accessLog = logger }
}

// WithDiscoverWorkers sets the default validation parallelism for POST
// /discover runs that do not name their own worker count; zero or negative
// falls through to the pipeline's default (GOMAXPROCS).
func WithDiscoverWorkers(n int) Option {
	return func(s *Server) { s.discoverWorkers = n }
}

// WithDiscoverPool shares the daemon's bounded prover pool with discovery
// runs: the pipeline's pruning catalog draws its implication-search
// goroutines from the same budget every serving prove draws from, so a
// discovery run never oversubscribes a machine that is also answering
// proves. Only relations wider than 9 attributes prune through a catalog;
// narrower ones — all the default maxAttrs admits — search nothing and
// leave the pool alone.
func WithDiscoverPool(pool *prover.Pool) Option {
	return func(s *Server) { s.discoverPool = pool }
}

// New builds a server over the given router.
func New(rt *router.Router, opts ...Option) *Server {
	s := &Server{rt: rt, mux: http.NewServeMux()}
	for _, o := range opts {
		o(s)
	}
	s.mux.HandleFunc("POST /ods", s.handleDeclare)
	s.mux.HandleFunc("GET /ods", s.handleList)
	s.mux.HandleFunc("DELETE /ods", s.handleRemove)
	s.mux.HandleFunc("POST /ods/batch", s.handleBatchMutate)
	s.mux.HandleFunc("POST /prove", s.handleProve)
	s.mux.HandleFunc("POST /prove/batch", s.handleBatchProve)
	s.mux.HandleFunc("POST /rewrite", s.handleRewrite)
	s.mux.HandleFunc("POST /discover", s.handleDiscover)
	s.mux.HandleFunc("POST /snapshot", s.handleSnapshot)
	s.mux.HandleFunc("GET /segments", s.handleSegments)
	s.mux.HandleFunc("GET /segments/{shard}/{item}", s.handleSegment)
	s.mux.HandleFunc("GET /generation", s.handleGeneration)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	if s.tel != nil {
		s.mux.Handle("GET /metrics", s.tel.Registry())
	}
	return s
}

// ServeHTTP implements http.Handler. With telemetry or access logging on,
// every request runs under the observing wrapper; the bare path stays
// untouched so a plain Server adds zero overhead.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s.tel == nil && s.accessLog == nil {
		s.mux.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
	if s.tel != nil {
		s.tel.inflight.Add(1)
	}
	s.mux.ServeHTTP(rec, r)
	elapsed := time.Since(start)
	route := routeLabel(r.Pattern)
	if s.tel != nil {
		s.tel.inflight.Add(-1)
		s.tel.httpRequests.With(route, r.Method, strconv.Itoa(rec.status)).Inc()
		s.tel.httpSeconds.With(route).Observe(elapsed.Seconds())
	}
	if s.accessLog != nil {
		attrs := []slog.Attr{
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", rec.status),
			slog.Duration("duration", elapsed),
		}
		if rec.meta.shard != "" || rec.meta.shardSet {
			attrs = append(attrs, slog.String("shard", router.Alias(rec.meta.shard)))
		}
		if rec.meta.tier != "" {
			attrs = append(attrs, slog.String("tier", rec.meta.tier))
		}
		s.accessLog.LogAttrs(r.Context(), slog.LevelInfo, "request", attrs...)
	}
}

// routeLabel is the path part of the pattern the mux matched ("GET
// /segments/{shard}/{item}" labels as "/segments/{shard}/{item}"), so the
// label set is the set of served routes; a request no pattern matched —
// a 404, or a 405 on a served path — labels as "other".
func routeLabel(pattern string) string {
	if pattern == "" {
		return "other"
	}
	return pattern[strings.IndexByte(pattern, ' ')+1:]
}

// statusRecorder captures the status code a handler writes; handlers that
// never call WriteHeader implicitly answered 200. It also carries the
// request's annotations (meta) from the handler back to the observing
// wrapper, which owns it for the request's lifetime.
type statusRecorder struct {
	http.ResponseWriter
	status int
	wrote  bool
	meta   reqMeta
}

func (r *statusRecorder) WriteHeader(code int) {
	if !r.wrote {
		r.status = code
		r.wrote = true
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	r.wrote = true
	return r.ResponseWriter.Write(b)
}

// Flush sends what the handler has written so far, when the writer beneath
// can: /discover streams one NDJSON line per accepted OD, and the wrapper
// must not hold the lines back until the handler returns. A flush commits
// the status as a write does.
func (r *statusRecorder) Flush() {
	r.wrote = true
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// reqMeta is what a handler notes for the access log: the shard that
// answered and, for proves, the verdict tier. Handlers run on one
// goroutine, so plain fields suffice.
type reqMeta struct {
	shard    string
	shardSet bool
	tier     string
}

// noteShard records the shard a request resolved to (the default shard's
// empty name included — hence the explicit set flag). w is the writer the
// handler was given; on the bare path, which observes nothing, it is not a
// statusRecorder and the note is dropped.
func noteShard(w http.ResponseWriter, shard string) {
	if rec, ok := w.(*statusRecorder); ok {
		rec.meta.shard, rec.meta.shardSet = shard, true
	}
}

// noteTier records the verdict tier that answered a prove.
func noteTier(w http.ResponseWriter, tier string) {
	if rec, ok := w.(*statusRecorder); ok && tier != "" {
		rec.meta.tier = tier
	}
}

// maxBodyBytes bounds request bodies; even bulk constraint batches are small.
const maxBodyBytes = 8 << 20

// writeJSON emits compact JSON: batch responses run to hundreds of results,
// and indentation costs real encoder time and wire bytes at that size —
// pipe through jq to read interactively.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeBodyError(w, err)
		return false
	}
	return true
}

// writeBodyError answers a request whose body could not be read or decoded:
// 413 when it ran past maxBodyBytes, 400 otherwise.
func writeBodyError(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		status = http.StatusRequestEntityTooLarge
	}
	writeError(w, status, fmt.Errorf("bad request body: %w", err))
}

// odsRequest declares or withdraws constraints. Statements accepts the full
// statement syntax and is expanded ("<->" and "~" become OD pairs); Text is
// a newline/semicolon-separated alternative for piping constraint files.
// Schema selects the shard.
type odsRequest struct {
	Schema     string   `json:"schema,omitempty"`
	Statements []string `json:"statements,omitempty"`
	Text       string   `json:"text,omitempty"`
}

// parse expands the request into plain ODs.
func (q *odsRequest) parse() ([]core.OD, error) {
	var ods []core.OD
	for _, s := range q.Statements {
		parsed, err := core.ParseStatement(s)
		if err != nil {
			return nil, err
		}
		ods = append(ods, parsed...)
	}
	if q.Text != "" {
		parsed, err := core.ParseStatements(q.Text)
		if err != nil {
			return nil, err
		}
		ods = append(ods, parsed...)
	}
	if len(ods) == 0 {
		return nil, fmt.Errorf("no statements given")
	}
	return ods, nil
}

// mutationJSON is the per-shard outcome of a mutation.
type mutationJSON struct {
	Schema     string `json:"schema"`
	Added      int    `json:"added,omitempty"`
	Removed    int    `json:"removed,omitempty"`
	Declared   int    `json:"declared"`
	Closure    int    `json:"closure"`
	Generation uint64 `json:"generation"`
	Seq        uint64 `json:"seq,omitempty"`
}

func mutationOf(m router.MutationResult) mutationJSON {
	return mutationJSON{
		Schema:     m.Schema,
		Added:      m.Added,
		Removed:    m.Removed,
		Declared:   m.Stats.Declared,
		Closure:    m.Stats.Closure,
		Generation: m.Stats.Generation,
		Seq:        m.Seq,
	}
}

func (s *Server) handleDeclare(w http.ResponseWriter, r *http.Request) {
	s.handleMutation(w, r, s.rt.Declare)
}

func (s *Server) handleRemove(w http.ResponseWriter, r *http.Request) {
	s.handleMutation(w, r, s.rt.Remove)
}

func (s *Server) handleMutation(w http.ResponseWriter, r *http.Request,
	apply func(string, []core.OD) (router.MutationResult, error)) {
	var req odsRequest
	if !decodeBody(w, r, &req) {
		return
	}
	ods, err := req.parse()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	res, err := apply(req.Schema, ods)
	if err != nil {
		s.writeRouterError(w, err)
		return
	}
	noteShard(w, res.Schema)
	writeJSON(w, http.StatusOK, mutationOf(res))
}

// statusOf maps router errors: invalid schemas are client errors,
// backpressure rejections ask the client to slow down, mutations against a
// follower are misdirected (421 — go talk to the leader), a follower past its
// staleness bound refuses reads with 503, and failed durability is a server
// error.
func statusOf(err error) int {
	switch {
	case router.IsSchemaError(err):
		return http.StatusBadRequest
	case router.IsBackpressure(err):
		return http.StatusTooManyRequests
	case router.IsReadOnly(err):
		return http.StatusMisdirectedRequest
	case router.IsLagExceeded(err):
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

// writeRouterError answers a failed router call. Backpressure rejections and
// lag refusals carry Retry-After: a short pause is genuinely expected to
// clear either condition (compaction kicked; the tailer is catching up).
// Follower refusals — 421 mutations and 503 over-lag reads — carry the
// leader's URL in the body so a client can redirect without configuration.
func (s *Server) writeRouterError(w http.ResponseWriter, err error) {
	status := statusOf(err)
	switch status {
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		w.Header().Set("Retry-After", "1")
	}
	body := map[string]string{"error": err.Error()}
	if s.leader != "" && (status == http.StatusMisdirectedRequest || status == http.StatusServiceUnavailable) {
		body["leader"] = s.leader
	}
	writeJSON(w, status, body)
}

// proveCtx derives the context a prove or rewrite runs under: the request's
// own (cancelled when the client disconnects), bounded by the configured
// prove timeout when one is set.
func (s *Server) proveCtx(r *http.Request) (context.Context, context.CancelFunc) {
	if s.proveTimeout > 0 {
		return context.WithTimeout(r.Context(), s.proveTimeout)
	}
	return r.Context(), func() {}
}

// writeSearchError answers a failed prove: deadline exhaustion is a gateway
// timeout, a disconnected client gets nothing (nobody is listening — the
// write would be wasted bytes at best), and anything else (the attribute
// guard) is the statement's own fault.
func writeSearchError(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, fmt.Errorf("prove timed out: %w", err))
	case errors.Is(err, context.Canceled) && r.Context().Err() != nil:
		// Client went away; abort silently.
	default:
		writeError(w, http.StatusUnprocessableEntity, err)
	}
}

// batchRequest is one request's worth of declares and removes, applied with
// one WAL record per op kind and one closure rebuild per shard.
type batchRequest struct {
	Schema  string   `json:"schema,omitempty"`
	Declare []string `json:"declare,omitempty"`
	Remove  []string `json:"remove,omitempty"`
}

type batchMutateResponse struct {
	Shards map[string]mutationJSON `json:"shards"`
}

func (s *Server) handleBatchMutate(w http.ResponseWriter, r *http.Request) {
	var req batchRequest
	if !decodeBody(w, r, &req) {
		return
	}
	var ops []router.BatchOp
	for _, group := range []struct {
		stmts  []string
		remove bool
	}{{req.Declare, false}, {req.Remove, true}} {
		for _, stmt := range group.stmts {
			ods, err := core.ParseStatement(stmt)
			if err != nil {
				writeError(w, http.StatusBadRequest, err)
				return
			}
			ops = append(ops, router.BatchOp{Schema: req.Schema, Remove: group.remove, ODs: ods})
		}
	}
	if len(ops) == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("no statements given"))
		return
	}
	res, err := s.rt.ApplyBatch(ops)
	if err != nil {
		s.writeRouterError(w, err)
		return
	}
	out := batchMutateResponse{Shards: make(map[string]mutationJSON, len(res))}
	for name, m := range res {
		out.Shards[name] = mutationOf(m)
	}
	writeJSON(w, http.StatusOK, out)
}

type listResponse struct {
	Schema     string   `json:"schema"`
	Generation uint64   `json:"generation"`
	Declared   []string `json:"declared"`
	Closure    []string `json:"closure"`
}

func odStrings(ods []core.OD) []string {
	out := make([]string, 0, len(ods))
	for _, od := range ods {
		out = append(out, od.String())
	}
	return out
}

func listingOf(schema string, l catalog.Listing) listResponse {
	return listResponse{
		Schema:     schema,
		Generation: l.Generation,
		Declared:   odStrings(l.Declared),
		Closure:    odStrings(l.Closure),
	}
}

// handleList serves one shard's listing with ?schema=..., or fans out over
// every shard.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	if schema, ok := queryShard(r); ok {
		l, err := s.rt.Listing(schema)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, http.StatusOK, listingOf(schema, l))
		return
	}
	all := s.rt.ListingAll()
	out := struct {
		Shards map[string]listResponse `json:"shards"`
	}{Shards: make(map[string]listResponse, len(all))}
	for name, l := range all {
		out.Shards[name] = listingOf(name, l)
	}
	writeJSON(w, http.StatusOK, out)
}

// queryShard reads the ?schema= selector; ok reports whether it was present.
func queryShard(r *http.Request) (string, bool) {
	vals, ok := r.URL.Query()["schema"]
	if !ok || len(vals) == 0 {
		return "", false
	}
	return vals[0], true
}

type proveRequest struct {
	Schema    string `json:"schema,omitempty"`
	Statement string `json:"statement"`
}

// witnessJSON is a two-row counterexample: the sign pattern per attribute
// and a concrete integer realization. Only discriminating attributes — those
// where the two rows differ — are serialized; every omitted attribute ties.
// That is the prover's own witness contract one step further: its verdicts
// hold the counterexample over the attributes the decide entangled and
// leave the rest of the shard's universe tied, and the wire drops the
// entangled attributes that tie as well, so a refutation never ships
// constant columns.
type witnessJSON struct {
	Pattern string            `json:"pattern"`
	Signs   map[string]string `json:"signs"`
	Rows    [][]int64         `json:"rows"`
	Attrs   []string          `json:"attrs"`
}

type proveResponse struct {
	Statement  string       `json:"statement"`
	Schema     string       `json:"schema"`
	Implied    bool         `json:"implied"`
	Generation uint64       `json:"generation"`
	Witness    *witnessJSON `json:"witness,omitempty"`
	Error      string       `json:"error,omitempty"`
}

// witnessOf projects p onto its discriminating attributes and realizes it:
// row 1 is 0 everywhere, row 2 is 1 where the sign is < and -1 where it is >,
// so comparing row 1 with row 2 gives back each recorded sign. A refuting
// pattern always has at least one non-Equal sign, so the projection is never
// empty.
func witnessOf(p *core.Pattern) *witnessJSON {
	if p == nil {
		return nil
	}
	signs := p.Signs()
	n, size := 0, 0
	for i, a := range p.Universe() {
		if signs[i] != core.Equal {
			n++
			size += len(a) + 2
		}
	}
	w := &witnessJSON{Signs: make(map[string]string, n), Attrs: make([]string, 0, n)}
	cells := make([]int64, 2*n)
	row2 := cells[n:n]
	var b strings.Builder
	b.Grow(size)
	for i, a := range p.Universe() {
		s := signs[i]
		if s == core.Equal {
			continue
		}
		if len(w.Attrs) > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(string(a))
		b.WriteString(s.String())
		w.Attrs = append(w.Attrs, string(a))
		w.Signs[string(a)] = s.String()
		row2 = append(row2, -int64(s))
	}
	w.Pattern = b.String()
	w.Rows = [][]int64{cells[:n:n], row2}
	return w
}

func (s *Server) handleProve(w http.ResponseWriter, r *http.Request) {
	var req proveRequest
	if !decodeBody(w, r, &req) {
		return
	}
	ods, err := core.ParseStatement(req.Statement)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// One atomic conjunction: every expanded OD (a "<->" statement is two)
	// is decided against the same constraint snapshot of its shard, and the
	// reported generation is the one the verdict was computed under.
	if n := maxLagOf(r); n > 0 {
		key, kerr := s.rt.SchemaFor(req.Schema, ods)
		if kerr == nil {
			if lerr := s.rt.CheckReadLag(key, n); lerr != nil {
				s.writeRouterError(w, lerr)
				return
			}
		}
	}
	ctx, cancel := s.proveCtx(r)
	defer cancel()
	res, gen, shard, err := s.rt.ProveOne(ctx, req.Schema, ods)
	if err != nil {
		s.writeRouterError(w, err)
		return
	}
	noteShard(w, shard)
	noteTier(w, res.Tier)
	if res.Err != nil {
		writeSearchError(w, r, res.Err)
		return
	}
	writeJSON(w, http.StatusOK, proveResponse{
		Statement:  req.Statement,
		Schema:     shard,
		Implied:    res.Implied,
		Generation: gen,
		Witness:    witnessOf(res.Witness),
	})
}

type batchProveRequest struct {
	Schema     string   `json:"schema,omitempty"`
	Statements []string `json:"statements"`
}

type batchProveResponse struct {
	Results []proveResponse `json:"results"`
}

// handleBatchProve decides many statements in one request: one shard
// snapshot per shard touched, so the whole batch amortizes transport, lock
// and generation bookkeeping. A statement that fails individually (attribute
// limit) reports its error in place without failing the batch.
func (s *Server) handleBatchProve(w http.ResponseWriter, r *http.Request) {
	var req batchProveRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if len(req.Statements) == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("no statements given"))
		return
	}
	stmts := make([][]core.OD, len(req.Statements))
	for i, stmt := range req.Statements {
		ods, err := core.ParseStatement(stmt)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("statement %d: %w", i, err))
			return
		}
		stmts[i] = ods
	}
	if n := maxLagOf(r); n > 0 {
		checked := map[string]bool{}
		for _, ods := range stmts {
			key, kerr := s.rt.SchemaFor(req.Schema, ods)
			if kerr != nil || checked[key] {
				continue
			}
			checked[key] = true
			if lerr := s.rt.CheckReadLag(key, n); lerr != nil {
				s.writeRouterError(w, lerr)
				return
			}
		}
	}
	ctx, cancel := s.proveCtx(r)
	defer cancel()
	verdicts, err := s.rt.ProveBatch(ctx, req.Schema, stmts)
	if err != nil {
		s.writeRouterError(w, err)
		return
	}
	if err := ctx.Err(); err != nil {
		for _, v := range verdicts {
			if v.Result.Err != nil && errors.Is(v.Result.Err, err) {
				// The context died mid-batch and took statements with it:
				// a server-side deadline answers 504 for the whole batch
				// (mixing real verdicts with deadline errors in a 200 would
				// make them indistinguishable from statement-level faults),
				// a vanished client gets nothing.
				writeSearchError(w, r, err)
				return
			}
		}
	}
	resp := batchProveResponse{Results: make([]proveResponse, len(verdicts))}
	for i, v := range verdicts {
		pr := proveResponse{
			Statement:  req.Statements[i],
			Schema:     v.Schema,
			Generation: v.Generation,
			Implied:    v.Result.Implied,
			Witness:    witnessOf(v.Result.Witness),
		}
		if v.Result.Err != nil {
			pr.Error = v.Result.Err.Error()
		}
		resp.Results[i] = pr
	}
	writeJSON(w, http.StatusOK, resp)
}

type rewriteRequest struct {
	Schema  string `json:"schema,omitempty"`
	Order   string `json:"order,omitempty"`
	GroupBy string `json:"groupBy,omitempty"`
}

type rewriteStep struct {
	Rule    string `json:"rule"`
	Segment string `json:"segment"`
	Pos     int    `json:"pos"`
	By      string `json:"by"`
}

type rewriteResponse struct {
	Input      string        `json:"input"`
	Reduced    string        `json:"reduced"`
	Schema     string        `json:"schema"`
	Steps      []rewriteStep `json:"steps"`
	Generation uint64        `json:"generation"`
}

func (s *Server) handleRewrite(w http.ResponseWriter, r *http.Request) {
	var req rewriteRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if (req.Order == "") == (req.GroupBy == "") {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("exactly one of \"order\" and \"groupBy\" must be set"))
		return
	}
	text, group := req.Order, false
	if req.GroupBy != "" {
		text, group = req.GroupBy, true
	}
	list, err := core.ParseList(text)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	shard, err := s.rt.SchemaForList(req.Schema, list)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	noteShard(w, shard)
	if err := s.rt.CheckReadLag(shard, maxLagOf(r)); err != nil {
		s.writeRouterError(w, err)
		return
	}
	cat, err := s.rt.Catalog(shard)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	ctx, cancel := s.proveCtx(r)
	defer cancel()
	reduce := cat.ReduceOrderStampedCtx
	if group {
		reduce = cat.ReduceGroupByStamped
	}
	out, gen, err := reduce(ctx, list)
	if err != nil {
		writeSearchError(w, r, err)
		return
	}
	resp := rewriteResponse{
		Input:      out.Input.String(),
		Reduced:    out.Reduced.String(),
		Schema:     shard,
		Steps:      []rewriteStep{},
		Generation: gen,
	}
	for _, st := range out.Steps {
		resp.Steps = append(resp.Steps, rewriteStep{
			Rule: st.Rule, Segment: st.Seg.String(), Pos: st.Pos, By: st.By.String(),
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

// snapshotRequest selects a shard. The pointer distinguishes "no selector"
// (snapshot every shard) from an explicit "schema": "" (snapshot just the
// default shard) — the same selection semantics GET /ods?schema= has.
type snapshotRequest struct {
	Schema *string `json:"schema,omitempty"`
}

type snapshotResponse struct {
	Shards map[string]router.SnapshotResult `json:"shards"`
}

// handleSnapshot nudges the background compactor of durable shards — all of
// them, or the one named by body/query (?schema= with an empty value
// addresses the default shard) — and waits for each pass to complete:
// snapshot at the applied watermark, then deletion of the WAL segments the
// snapshot fully covers. Writers are never stalled; concurrent mutations
// simply stay in the log for the next pass. On an ephemeral daemon it
// answers with zero shards.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	// Unlike the other handlers, an absent body is meaningful here ("all
	// shards"), so io.EOF reads as no selector — covering empty sized and
	// empty chunked bodies alike.
	var req snapshotRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil && !errors.Is(err, io.EOF) {
		writeBodyError(w, err)
		return
	}
	if schema, ok := queryShard(r); ok {
		req.Schema = &schema
	}
	var res map[string]router.SnapshotResult
	var err error
	if req.Schema != nil {
		res, err = s.rt.SnapshotOne(*req.Schema)
	} else {
		res, err = s.rt.SnapshotAll()
	}
	if err != nil {
		s.writeRouterError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, snapshotResponse{Shards: res})
}

type generationResponse struct {
	Shards map[string]uint64 `json:"shards"`
}

// handleGeneration serves the per-shard constraint generation counters: the
// cheapest possible staleness poll. A client holding generation-stamped
// verdicts (pkg/odclient's cache) revalidates its whole view with one GET
// here instead of re-proving anything — equal generation means no effective
// mutation happened, so every cached verdict still stands. ?schema= narrows
// to one shard; absent shards answer generation 0 (an empty catalog's).
func (s *Server) handleGeneration(w http.ResponseWriter, r *http.Request) {
	if schema, ok := queryShard(r); ok {
		gen, err := s.rt.GenerationOf(schema)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, http.StatusOK, generationResponse{Shards: map[string]uint64{schema: gen}})
		return
	}
	writeJSON(w, http.StatusOK, generationResponse{Shards: s.rt.Generations()})
}

type healthzResponse struct {
	OK     bool                         `json:"ok"`
	Shards map[string]router.ShardStats `json:"shards"`
	Totals struct {
		Shards    int               `json:"shards"`
		Declared  int               `json:"declared"`
		Closure   int               `json:"closure"`
		Negative  int               `json:"negativeClosure"`
		Tiers     catalog.TierStats `json:"tiers"`
		Searches  uint64            `json:"searches"`
		Nodes     uint64            `json:"searchNodes"`
		Cancelled uint64            `json:"cancelledSearches"`
	} `json:"totals"`
}

// handleHealthz reports per-shard state — including the verdict tier hit
// counters and search parallelism/effort, totalled across shards so an
// operator can read the fast-path economics off one scrape. Each shard
// carries its own ok/reason verdict (computed by the router: sticky WAL
// failure → mutations rejected; snapshot or compaction failure → the log
// compacts no more and recovery time grows unboundedly); the top-level OK
// is the conjunction, so an orchestrator sees unhealth without scraping
// per-shard fields — and the reason without diffing counters.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := healthzResponse{OK: true, Shards: s.rt.Stats()}
	resp.Totals.Shards = len(resp.Shards)
	for _, st := range resp.Shards {
		resp.Totals.Declared += st.Catalog.Declared
		resp.Totals.Closure += st.Catalog.Closure
		resp.Totals.Negative += st.Catalog.Negative
		resp.Totals.Tiers.Trivial += st.Catalog.Tiers.Trivial
		resp.Totals.Tiers.Closure += st.Catalog.Tiers.Closure
		resp.Totals.Tiers.Negative += st.Catalog.Tiers.Negative
		resp.Totals.Tiers.Memo += st.Catalog.Tiers.Memo
		resp.Totals.Tiers.Search += st.Catalog.Tiers.Search
		resp.Totals.Searches += st.Catalog.Prover.Searches
		resp.Totals.Nodes += st.Catalog.Prover.Nodes
		resp.Totals.Cancelled += st.Catalog.Prover.Cancelled
		if !st.OK {
			resp.OK = false
		}
	}
	// Status-code-keyed probes (k8s httpGet) must see unhealth without
	// parsing the body.
	status := http.StatusOK
	if !resp.OK {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, resp)
}
