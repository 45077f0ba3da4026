package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"odlib/internal/catalog"
	"odlib/internal/core"
	"odlib/internal/discover"
	"odlib/internal/metrics"
	"odlib/internal/prover"
	"odlib/internal/replica"
	"odlib/internal/router"
	"odlib/internal/server"
	"odlib/internal/store"
)

// The traced run measures each layer from outside: the same ops are replayed
// by ONE client at successive depths of the call stack, every depth on a
// fresh stack set up identically, and a layer's self time is its depth's time
// minus the time of the depth below it. Spans are kept in memory and written
// to out/trace-<workload>.jsonl when the run ends.
//
//	depth  prove                    rewrite                 mutate                          discover
//	d0     odclient.Prove           odclient.Rewrite        odclient.Mutate                 POST /discover
//	d1     Server.ServeHTTP         Server.ServeHTTP        Server.ServeHTTP                discover.Pipeline
//	d2     Router.ProveOne          Catalog.ReduceOrder…    Router.ApplyBatch
//	d3     Catalog.ProveEachCtx                             Store.AppendBatch+Pending.Wait,
//	                                                        Catalog.Apply (two leaves)
//	d4     Prover.DecideCtx (searched questions only)

// layerNames[kind][depth] names the layer whose call a depth times.
var layerNames = map[opKind][]string{
	opProve:    {"odclient", "server", "router", "catalog", "prover"},
	opRewrite:  {"odclient", "server", "rewrite"},
	opMutate:   {"odclient", "server", "router", "store", "catalog"},
	opDiscover: {"server", "discover"},
}

// span is one timed call: op is the id shared by the spans of one op, parent
// the depth whose call contains this one.
type span struct {
	Op     int     `json:"op"`
	Kind   string  `json:"kind"`
	Layer  string  `json:"layer"`
	Depth  int     `json:"depth"`
	Parent int     `json:"parent"` // -1 at depth 0
	Start  float64 `json:"start_us"`
	Dur    float64 `json:"dur_us"`
}

// tracer collects the spans of one traced run.
type tracer struct {
	origin time.Time
	spans  []span
	// total[kind][depth] sums the depth's durations, count[kind] the ops.
	total map[opKind][]time.Duration
	count map[opKind]int
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), total: map[opKind][]time.Duration{}, count: map[opKind]int{}}
}

func (t *tracer) record(i int, k opKind, depth int, start time.Time, d time.Duration) {
	parent := depth - 1
	if k == opMutate && depth == 4 {
		parent = 2 // the catalog apply is the router's second child, beside the store append
	}
	t.spans = append(t.spans, span{Op: i, Kind: k.String(), Layer: layerNames[k][depth], Depth: depth, Parent: parent,
		Start: us(start.Sub(t.origin)), Dur: us(d)})
	for len(t.total[k]) <= depth {
		t.total[k] = append(t.total[k], 0)
	}
	t.total[k][depth] += d
	if depth == 0 {
		t.count[k]++
	}
}

// mean is the mean duration of kind k at a depth, in microseconds.
func (t *tracer) mean(k opKind, depth int) float64 {
	if t.count[k] == 0 || depth >= len(t.total[k]) {
		return 0
	}
	return us(t.total[k][depth]) / float64(t.count[k])
}

func (t *tracer) write(path string) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			return err
		}
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// traceList is the op list the traced run replays: the clients' lists merged
// round-robin, cut to the workload's trace length scaled by the run length.
func (w *workload) traceList(seconds float64) []op {
	n := max(len(w.lists), int(float64(w.traceOps)*seconds/20))
	out := make([]op, 0, n+len(w.lists))
	for i := 0; len(out) < n; i++ {
		for _, l := range w.lists {
			out = append(out, l[i%len(l)])
		}
	}
	return out[:n]
}

// parsed is an op with everything a depth below the wire needs, prepared
// before timing: the request as odclient encodes it, and the parsed ODs.
type parsed struct {
	path string
	body []byte
	ods  []core.OD          // prove: the question
	list core.List          // rewrite
	muts []catalog.Mutation // mutate, as the router hands them to the catalog
	decl []core.OD
	rem  []core.OD
}

func parseOp(o *op) (parsed, error) {
	var p parsed
	var err error
	switch o.kind {
	case opProve:
		p.path = "/prove"
		p.body, _ = json.Marshal(map[string]string{"schema": o.schema, "statement": o.text})
		if p.ods, err = core.ParseStatement(o.text); err != nil {
			return p, err
		}
		if len(p.ods) != 1 {
			return p, fmt.Errorf("traced prove %q expands to %d ODs; the replay below the catalog needs one", o.text, len(p.ods))
		}
	case opRewrite:
		p.path = "/rewrite"
		p.body, _ = json.Marshal(map[string]string{"schema": o.schema, "order": o.text})
		p.list, err = core.ParseList(o.text)
	case opMutate:
		p.path = "/ods/batch"
		p.body, _ = json.Marshal(map[string]any{"schema": o.schema, "declare": o.declare, "remove": o.remove})
		for _, s := range o.declare {
			ods, perr := core.ParseStatement(s)
			if perr != nil {
				return p, perr
			}
			p.decl = append(p.decl, ods...)
		}
		for _, s := range o.remove {
			ods, perr := core.ParseStatement(s)
			if perr != nil {
				return p, perr
			}
			p.rem = append(p.rem, ods...)
		}
		if len(p.decl) > 0 {
			p.muts = append(p.muts, catalog.Mutation{ODs: p.decl})
		}
		if len(p.rem) > 0 {
			p.muts = append(p.muts, catalog.Mutation{Remove: true, ODs: p.rem})
		}
	case opDiscover:
		p.path, p.body = "/discover", o.body
	}
	return p, err
}

// counts are the layers' own counters, read from the d0 stack around the
// traced pass.
type counts struct {
	cat      catalog.Stats // summed over shards
	store    store.Stats   // summed over shards
	pool     prover.PoolStats
	requests uint64
	retries  uint64
}

func (b *bench) counts() counts {
	var c counts
	for _, ss := range b.st.rt.Stats() {
		s := ss.Catalog
		c.cat.Declared += s.Declared
		c.cat.Closure += s.Closure
		c.cat.Negative += s.Negative
		c.cat.Memo.Size += s.Memo.Size
		c.cat.Tiers.Trivial += s.Tiers.Trivial
		c.cat.Tiers.Closure += s.Tiers.Closure
		c.cat.Tiers.Negative += s.Tiers.Negative
		c.cat.Tiers.Memo += s.Tiers.Memo
		c.cat.Tiers.Search += s.Tiers.Search
		c.cat.Prover.Nodes += s.Prover.Nodes
		c.cat.Prover.Searches += s.Prover.Searches
		c.cat.Prover.Cancelled += s.Prover.Cancelled
		c.cat.Prover.Widenings += s.Prover.Widenings
		if ss.Store != nil {
			c.store.CommitBatches += ss.Store.CommitBatches
			c.store.WALRecords += ss.Store.WALRecords
			c.store.Rotations += ss.Store.Rotations
			c.store.Snapshots += ss.Store.Snapshots
			c.store.SegmentsRemoved += ss.Store.SegmentsRemoved
		}
	}
	c.pool = b.st.pool.Stats()
	for _, se := range b.sessions {
		st := se.c.Stats()
		c.requests += st.HTTPRequests
		c.retries += st.Retries
	}
	return c
}

// scrape fetches and strictly parses /metrics, returning the families and
// how long fetch plus parse took.
func (b *bench) scrape(ctx context.Context) (map[string]*metrics.Family, time.Duration, error) {
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.st.ts.URL+"/metrics", nil)
	if err != nil {
		return nil, 0, err
	}
	resp, err := b.sessions[0].hc.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	fams, err := metrics.ParseText(resp.Body)
	return fams, time.Since(start), err
}

// sumWhere adds up a family's samples with the given series name that pass
// the label filter.
func sumWhere(fams map[string]*metrics.Family, family, series string, keep func(map[string]string) bool) float64 {
	f := fams[family]
	if f == nil {
		return 0
	}
	var sum float64
	for _, s := range f.Samples {
		if s.Name == series && (keep == nil || keep(s.Labels)) {
			sum += s.Value
		}
	}
	return sum
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// traced is one traced run in progress: the ops, what each pass measured,
// and the spans.
type traced struct {
	w       *workload
	res     *result
	tr      *tracer
	scratch string
	stacks  int // fresh stacks set up so far
	ops     []op
	prep    []parsed

	one, many     *phase   // untraced reference passes
	d0            []sample // primary ops of the traced d0 pass
	before, after counts   // the d0 stack's counters around its pass
	famsBefore    map[string]*metrics.Family
	famsAfter     map[string]*metrics.Family
	scrapes       []float64 // ms
	disc          discover.PipelineStats
	post          aftermath

	reqBytes, respBytes int // d1
	dropped             int // d2: attributes the rewrites dropped
	searched            []searchedOp
	parallel            prover.Counters // d4, the stack's search configuration
	sequential          prover.Counters // d4 again with one worker: exact
	walBytes            float64         // the store leaf's log
	walRecords          float64
}

// searchedOp is a traced prove that reached the search tier at d3.
type searchedOp struct {
	i        int
	declared []core.OD // the shard's declared set when the question was asked
}

// fresh sets up the next stack, identical to every other of the run.
func (t *traced) fresh(ctx context.Context) (*bench, error) {
	b, _, err := setUp(ctx, t.w, t.scratch, t.stacks)
	t.stacks++
	return b, err
}

// onFresh runs one pass on a fresh stack and closes it.
func (t *traced) onFresh(ctx context.Context, pass func(*bench) error) error {
	b, err := t.fresh(ctx)
	if err != nil {
		return err
	}
	if err := pass(b); err != nil {
		return err
	}
	return b.close()
}

// runTraced replays the trace list at every depth and reports every
// per-layer metric.
func runTraced(ctx context.Context, w *workload, seed int64, seconds float64) (*result, error) {
	t := &traced{w: w, tr: newTracer(), ops: w.traceList(seconds)}
	t.res = &result{Workload: w.name, Seed: seed, Trace: true, Hash: w.hash(), Correct: true,
		Samples: map[string]int{"traced_ops": len(t.ops)}, Metrics: map[string]value{}, Attempted: len(t.ops)}
	var err error
	if t.scratch, err = scratchDir(); err != nil {
		return nil, err
	}
	defer os.RemoveAll(t.scratch)
	if err := selfCheck(ctx, w); err != nil {
		return nil, fmt.Errorf("oracle self-check: %w", err)
	}
	t.prep = make([]parsed, len(t.ops))
	for i := range t.ops {
		if t.prep[i], err = parseOp(&t.ops[i]); err != nil {
			return nil, err
		}
	}
	if err := t.reference(ctx); err != nil {
		return nil, err
	}
	if err := t.depth0(ctx); err != nil {
		return nil, err
	}
	for _, pass := range []func(context.Context, *bench) error{t.depth1, t.depth2, t.depth3} {
		if err := t.onFresh(ctx, func(b *bench) error { return pass(ctx, b) }); err != nil {
			return nil, err
		}
	}
	t.depth4(ctx)
	if err := t.mutationLeaves(); err != nil {
		return nil, err
	}
	if err := t.tr.write(filepath.Join(outDir, "trace-"+w.name+".jsonl")); err != nil {
		return nil, err
	}
	t.report()
	return t.res, nil
}

// reference makes the untraced passes the traced d0 is compared with: one
// client (which gives the tracing overhead) and the workload's own client
// count (whose p50 over the traced d0 shows what queueing adds). The first
// pass of a process runs on a cold runtime, so the one-client pass is made
// twice and the first discarded.
func (t *traced) reference(ctx context.Context) error {
	for i := 0; i < 2; i++ {
		err := t.onFresh(ctx, func(b *bench) error {
			t.one = runPhase(ctx, t.w, b.sessions[:1], [][]op{t.ops}, 0, len(t.ops))
			return nil
		})
		if err != nil {
			return err
		}
	}
	return t.onFresh(ctx, func(b *bench) error {
		t.many = runPhase(ctx, t.w, b.sessions, t.w.lists, 0, len(t.ops)/len(t.w.lists))
		return nil
	})
}

// depth0 replays the ops through the client against the whole stack. This
// stack's counters are the ones reported, and on the durable workload it is
// the one recovered and replicated afterwards.
func (t *traced) depth0(ctx context.Context) error {
	b, err := t.fresh(ctx)
	if err != nil {
		return err
	}
	t.before = b.counts()
	if t.famsBefore, _, err = b.scrape(ctx); err != nil {
		return err
	}
	for i := range t.ops {
		o := &t.ops[i]
		start := time.Now()
		var derr error
		if o.kind == opDiscover {
			var sum discoverSummary
			var ods []string
			if sum, ods, derr = b.sessions[0].discover(ctx, o.body); derr == nil {
				derr = t.w.relations[o.relation].check(sum.Stats, ods)
				addStats(&t.disc, sum.Stats)
			}
		} else {
			_, derr = b.sessions[0].do(ctx, t.w, o)
		}
		d := time.Since(start)
		if derr != nil {
			t.res.Failed++
			t.res.fail(derr)
			continue
		}
		t.tr.record(i, o.kind, 0, start, d)
		if o.class == primary {
			t.d0 = append(t.d0, sample{dur: d})
		}
	}
	t.after = b.counts()
	for i := 0; i < 5; i++ {
		var d time.Duration
		if t.famsAfter, d, err = b.scrape(ctx); err != nil {
			return err
		}
		t.scrapes = append(t.scrapes, float64(d.Microseconds())/1e3)
	}
	t.post, err = b.afterTrace(ctx, t.res, t.tr.count[opMutate])
	return err
}

// depth1 calls Server.ServeHTTP with the request odclient would have sent.
// Discovery has no layer between the wire and the pipeline; its d1 is timed
// in depth2.
func (t *traced) depth1(_ context.Context, b *bench) error {
	for i := range t.ops {
		o, p := &t.ops[i], &t.prep[i]
		req := httptest.NewRequest(http.MethodPost, p.path, bytes.NewReader(p.body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		start := time.Now()
		b.st.srv.ServeHTTP(rec, req)
		d := time.Since(start)
		if rec.Code != http.StatusOK {
			t.res.fail(fmt.Errorf("d1 %s %s: status %d", o.kind, o.text, rec.Code))
			continue
		}
		if o.kind != opDiscover {
			t.tr.record(i, o.kind, 1, start, d)
		}
		t.reqBytes += len(p.body)
		t.respBytes += rec.Body.Len()
	}
	return nil
}

// depth2 calls what the server's handlers call, on parsed input.
func (t *traced) depth2(ctx context.Context, b *bench) error {
	for i := range t.ops {
		o, p := &t.ops[i], &t.prep[i]
		switch o.kind {
		case opProve:
			start := time.Now()
			r, _, _, err := b.st.rt.ProveOne(ctx, o.schema, p.ods)
			t.tr.record(i, o.kind, 2, start, time.Since(start))
			if err == nil {
				err = r.Err
			}
			t.check(wrong("d2 prove "+o.text, err, r.Implied, o.implied))
		case opRewrite:
			cat, err := b.st.rt.Catalog(o.schema)
			if err != nil {
				return err
			}
			start := time.Now()
			r, _, err := cat.ReduceOrderStampedCtx(ctx, p.list)
			t.tr.record(i, o.kind, 2, start, time.Since(start))
			t.check(wrong("d2 rewrite "+o.text, err, r.Reduced.String(), o.reduced))
			t.dropped += len(r.Input) - len(r.Reduced)
		case opMutate:
			// One BatchOp per statement, as the /ods/batch handler builds them.
			var bops []router.BatchOp
			for _, od := range p.decl {
				bops = append(bops, router.BatchOp{Schema: o.schema, ODs: []core.OD{od}})
			}
			for _, od := range p.rem {
				bops = append(bops, router.BatchOp{Schema: o.schema, Remove: true, ODs: []core.OD{od}})
			}
			start := time.Now()
			_, err := b.st.rt.ApplyBatch(bops)
			t.tr.record(i, o.kind, 2, start, time.Since(start))
			if err != nil {
				t.res.fail(fmt.Errorf("d2 mutate: %w", err))
			}
		case opDiscover:
			r := &t.w.relations[o.relation]
			start := time.Now()
			_, err := discover.Pipeline(ctx, r.rel, discover.PipelineOptions{
				Options: discover.Options{MaxLHS: r.maxLHS, MaxRHS: r.maxRHS},
				Pool:    b.st.pool,
				OnFound: func(core.OD) {},
			})
			t.tr.record(i, o.kind, 1, start, time.Since(start))
			if err != nil {
				t.res.fail(fmt.Errorf("d1 discover: %w", err))
			}
		}
	}
	return nil
}

// check records a replayed call's failure, if any.
func (t *traced) check(err error) {
	if err != nil {
		t.res.fail(err)
	}
}

// depth3 asks the shard catalog's tier chain and notes the questions it
// hands to a search, with the declared set they were asked against: the set
// follows the mutations of the list, which are applied untimed.
func (t *traced) depth3(ctx context.Context, b *bench) error {
	live, err := t.w.declaredODs()
	if err != nil {
		return err
	}
	for i := range t.ops {
		o, p := &t.ops[i], &t.prep[i]
		switch o.kind {
		case opProve:
			cat, err := b.st.rt.Catalog(o.schema)
			if err != nil {
				return err
			}
			start := time.Now()
			rs, _ := cat.ProveEachCtx(ctx, [][]core.OD{p.ods})
			t.tr.record(i, o.kind, 3, start, time.Since(start))
			t.check(wrong("d3 prove "+o.text, rs[0].Err, rs[0].Implied, o.implied))
			if rs[0].Tier == catalog.TierSearch {
				t.searched = append(t.searched, searchedOp{i, live[o.schema]})
			}
		case opMutate:
			if _, err := b.sessions[0].do(ctx, t.w, o); err != nil {
				return err
			}
			live[o.schema] = applyTo(live[o.schema], p.decl, p.rem)
		}
	}
	return nil
}

// depth4 decides the searched questions with the prover alone, configured as
// the stack configures it, and once more with one worker: a single worker
// visits the same nodes on every run, so that count is exact.
func (t *traced) depth4(ctx context.Context) {
	pool := prover.NewPool(runtime.GOMAXPROCS(0))
	for _, s := range t.searched {
		o, od := &t.ops[s.i], t.prep[s.i].ods[0]
		pr := prover.New(s.declared, prover.WithMaxAttrs(prover.DefaultMaxAttrs),
			prover.WithWorkers(runtime.GOMAXPROCS(0)), prover.WithPool(pool), prover.WithCounters(&t.parallel))
		start := time.Now()
		v, err := pr.DecideCtx(ctx, od)
		t.tr.record(s.i, o.kind, 4, start, time.Since(start))
		t.check(wrong("d4 prove "+o.text, err, v.Implied, o.implied))
		seq := prover.New(s.declared, prover.WithWorkers(1), prover.WithCounters(&t.sequential))
		if _, err := seq.DecideCtx(ctx, od); err != nil {
			t.res.fail(fmt.Errorf("sequential prove %q: %w", o.text, err))
		}
	}
}

// mutationLeaves times the two calls under the router's mutation path, each
// on its own: a fresh store in a fresh directory, and a fresh catalog holding
// the standing set.
func (t *traced) mutationLeaves() error {
	if t.tr.count[opMutate] == 0 {
		return nil
	}
	tel := server.NewTelemetry()
	st, _, _, err := store.Open(filepath.Join(t.scratch, "leaf-store"), storeOptions(tel))
	if err != nil {
		return err
	}
	cat := catalog.New(catalogOptions(tel, prover.NewPool(runtime.GOMAXPROCS(0)))...)
	declared, err := t.w.declaredODs()
	if err != nil {
		return err
	}
	for _, ods := range declared {
		cat.Apply([]catalog.Mutation{{ODs: ods}})
	}
	for i := range t.ops {
		if t.ops[i].kind != opMutate {
			continue
		}
		p := &t.prep[i]
		start := time.Now()
		pending, _, err := st.AppendBatch(p.decl, p.rem)
		if err == nil {
			err = pending.Wait()
		}
		t.tr.record(i, opMutate, 3, start, time.Since(start))
		if err != nil {
			return fmt.Errorf("d3 store append: %w", err)
		}
		start = time.Now()
		cat.Apply(p.muts)
		t.tr.record(i, opMutate, 4, start, time.Since(start))
	}
	ss := st.Stats()
	t.walBytes, t.walRecords = float64(ss.WALBytes), float64(ss.WALRecords)
	return st.Close()
}

// report turns what the passes measured into the per-layer metrics.
func (t *traced) report() {
	tr, before, after, post, disc := t.tr, t.before, t.after, t.post, t.disc

	// Self times: a depth's mean minus the mean of the depth (or, for
	// mutations, the two leaves) below it, floored at zero. trace.sum_error is
	// what the flooring adds, as a share of the d0 time.
	self := func(k opKind, depth int, below ...int) float64 {
		v := tr.mean(k, depth)
		for _, d := range below {
			v -= tr.mean(k, d)
		}
		return max(v, 0)
	}
	n := func(k opKind) float64 { return float64(tr.count[k]) }
	clientOps := n(opProve) + n(opRewrite) + n(opMutate)
	selfClient := ratio(self(opProve, 0, 1)*n(opProve)+self(opRewrite, 0, 1)*n(opRewrite)+self(opMutate, 0, 1)*n(opMutate), clientOps)
	selfServer := map[opKind]float64{
		opProve: self(opProve, 1, 2), opRewrite: self(opRewrite, 1, 2),
		opMutate: self(opMutate, 1, 2), opDiscover: self(opDiscover, 0, 1),
	}
	routerProve, routerMutate := self(opProve, 2, 3), self(opMutate, 2, 3, 4)
	catalogProve, proverProve := self(opProve, 3, 4), tr.mean(opProve, 4)
	storeMutate, applyMutate := tr.mean(opMutate, 3), tr.mean(opMutate, 4)
	reduce, pipeline := tr.mean(opRewrite, 2), tr.mean(opDiscover, 1)

	var d0Total float64
	for k, c := range tr.count {
		d0Total += tr.mean(k, 0) * float64(c)
	}
	selfTotal := selfClient*clientOps +
		selfServer[opProve]*n(opProve) + selfServer[opRewrite]*n(opRewrite) + selfServer[opMutate]*n(opMutate) + selfServer[opDiscover]*n(opDiscover) +
		(routerProve+catalogProve+proverProve)*n(opProve) + (routerMutate+storeMutate+applyMutate)*n(opMutate) +
		reduce*n(opRewrite) + pipeline*n(opDiscover)

	hits := map[string]float64{
		"trivial":  float64(after.cat.Tiers.Trivial - before.cat.Tiers.Trivial),
		"closure":  float64(after.cat.Tiers.Closure - before.cat.Tiers.Closure),
		"negative": float64(after.cat.Tiers.Negative - before.cat.Tiers.Negative),
		"memo":     float64(after.cat.Tiers.Memo - before.cat.Tiers.Memo),
		"search":   float64(after.cat.Tiers.Search - before.cat.Tiers.Search),
	}
	var allHits float64
	for _, h := range hits {
		allHits += h
	}
	searches := float64(after.cat.Prover.Searches - before.cat.Prover.Searches)
	nodes := float64(after.cat.Prover.Nodes - before.cat.Prover.Nodes)
	commits := float64(after.store.CommitBatches - before.store.CommitBatches)
	records := float64(after.store.WALRecords - before.store.WALRecords)
	delta := func(family, series string, keep func(map[string]string) bool) float64 {
		return sumWhere(t.famsAfter, family, series, keep) - sumWhere(t.famsBefore, family, series, keep)
	}
	non2xx := delta("odserve_http_requests_total", "odserve_http_requests_total",
		func(l map[string]string) bool { return !strings.HasPrefix(l["code"], "2") })
	fsyncSum := delta("odserve_wal_fsync_seconds", "odserve_wal_fsync_seconds_sum", nil)
	fsyncCount := delta("odserve_wal_fsync_seconds", "odserve_wal_fsync_seconds_count", nil)
	rejections := delta("odserve_backpressure_rejections_total", "odserve_backpressure_rejections_total", nil)
	searchTime := tr.total[opProve]
	var d4 time.Duration
	if len(searchTime) > 4 {
		d4 = searchTime[4]
	}

	set := t.res.set
	set("odclient.self_us_per_op", selfClient, "us")
	set("odclient.requests", float64(after.requests-before.requests), "count")
	set("odclient.retries", float64(after.retries-before.retries), "count")
	set("server.self_us_per_op.prove", selfServer[opProve], "us")
	set("server.self_us_per_op.ods", selfServer[opMutate], "us")
	set("server.self_us_per_op.rewrite", selfServer[opRewrite], "us")
	set("server.self_us_per_op.discover", selfServer[opDiscover], "us")
	set("server.req_bytes_per_op", ratio(float64(t.reqBytes), float64(len(t.ops))), "B")
	set("server.resp_bytes_per_op", ratio(float64(t.respBytes), float64(len(t.ops))), "B")
	set("server.non2xx", non2xx, "count")
	parseNs, keyNs, hashNs := coreCosts(t.ops, t.prep)
	set("core.parse_ns_per_stmt", parseNs, "ns")
	set("core.key_ns_per_od", keyNs, "ns")
	set("core.hash_ns_per_od", hashNs, "ns")
	set("router.self_us_per_prove", routerProve, "us")
	set("router.self_us_per_mutation", routerMutate, "us")
	set("router.backpressure_rejections", rejections, "count")
	set("catalog.self_ns_per_prove", catalogProve*1e3, "ns")
	for tier, h := range hits {
		set("catalog.tier_hits."+tier, h, "count")
	}
	set("catalog.search_avoided_ratio", ratio(allHits-hits["search"], allHits), "ratio")
	set("catalog.apply_us_per_mutation", applyMutate, "us")
	set("catalog.declared", float64(after.cat.Declared), "count")
	set("catalog.closure_size", float64(after.cat.Closure), "count")
	set("catalog.negative_size", float64(after.cat.Negative), "count")
	set("catalog.memo_entries", float64(after.cat.Memo.Size), "count")
	set("prover.self_us_per_search", ratio(us(d4), float64(len(t.searched))), "us")
	set("prover.searches", searches, "count")
	set("prover.nodes", nodes, "count")
	set("prover.nodes_per_search", ratio(nodes, searches), "count")
	set("prover.nodes_per_s", ratio(float64(t.parallel.Nodes.Load()), d4.Seconds()), "1/s")
	set("prover.widenings", float64(after.cat.Prover.Widenings-before.cat.Prover.Widenings), "count")
	set("prover.cancelled", float64(after.cat.Prover.Cancelled-before.cat.Prover.Cancelled), "count")
	set("prover.pool_acquired", float64(after.pool.Acquired-before.pool.Acquired), "count")
	set("prover.pool_starved", float64(after.pool.Starved-before.pool.Starved), "count")
	set("prover.pool_peak", float64(after.pool.Peak), "count")
	set("prover.nodes_seq", float64(t.sequential.Nodes.Load()), "count")
	set("store.append_wait_us_per_op", storeMutate, "us")
	set("store.commits", commits, "count")
	set("store.records_per_commit", ratio(records, commits), "count")
	set("store.fsync_us_per_commit", ratio(fsyncSum*1e6, fsyncCount), "us")
	set("store.wal_bytes_per_record", ratio(t.walBytes, t.walRecords), "B")
	set("store.snapshots", float64(post.store.Snapshots), "count")
	set("store.rotations", float64(post.store.Rotations), "count")
	set("store.segments_removed", float64(post.store.SegmentsRemoved), "count")
	set("store.open_ms", post.openMs, "ms")
	set("store.decode_mb_s", post.decodeMBs, "MB/s")
	set("rewrite.reduce_us_per_op", reduce, "us")
	set("rewrite.attrs_dropped_per_op", ratio(float64(t.dropped), n(opRewrite)), "count")
	set("discover.pipeline_ms", pipeline/1e3, "ms")
	set("discover.candidates", float64(disc.Candidates), "count")
	set("discover.closure_pruned", float64(disc.ClosurePruned), "count")
	set("discover.refutation_pruned", float64(disc.RefutationPruned), "count")
	set("discover.data_checks", float64(disc.DataChecks), "count")
	set("discover.rows_scanned", float64(disc.RowsScanned), "count")
	set("discover.check_ratio", ratio(float64(disc.DataChecks), float64(disc.Candidates)), "ratio")
	set("discover.accepted", float64(disc.Accepted), "count")
	set("discover.levels", float64(disc.Levels), "count")
	set("core.sort_cache_hits", float64(disc.CacheHits), "count")
	set("core.sort_cache_misses", float64(disc.CacheMisses), "count")
	set("replica.sync_ms", post.syncMs, "ms")
	set("replica.records_applied", post.replica.records, "count")
	set("replica.records_per_s", ratio(post.replica.records, post.syncMs/1e3), "1/s")
	set("replica.fetches", post.replica.fetches, "count")
	set("replica.fetched_bytes", post.replica.bytes, "B")
	set("replica.bootstraps", post.replica.bootstraps, "count")
	set("metrics.scrape_ms", median(t.scrapes), "ms")
	set("metrics.observe_ns", observeCost(), "ns")
	tracedP50 := us(percentile(durations(t.d0), 0.5))
	set("trace.overhead_ratio", ratio(tracedP50, us(percentile(durations(t.one.samples(primary)), 0.5))), "ratio")
	set("trace.queueing_ratio", ratio(us(percentile(durations(t.many.samples(primary)), 0.5)), tracedP50), "ratio")
	set("trace.sum_error", ratio(selfTotal, d0Total)-1, "ratio")
	for _, p := range []*phase{t.one, t.many} {
		_, failed := p.counts()
		t.res.Failed += failed
		for _, tl := range p.tallies {
			for _, e := range tl.errs {
				t.res.fail(e)
			}
		}
	}
}

// wrong is the failure of a replayed call that erred or disagreed with the
// op's oracle, nil when it did neither.
func wrong[T comparable](what string, err error, got, want T) error {
	switch {
	case err != nil:
		return fmt.Errorf("%s: %w", what, err)
	case got != want:
		return fmt.Errorf("%s: got %v, oracle says %v", what, got, want)
	}
	return nil
}

func addStats(sum *discover.PipelineStats, st discover.PipelineStats) {
	sum.Candidates += st.Candidates
	sum.ClosurePruned += st.ClosurePruned
	sum.RefutationPruned += st.RefutationPruned
	sum.DataChecks += st.DataChecks
	sum.RowsScanned += st.RowsScanned
	sum.CacheHits += st.CacheHits
	sum.CacheMisses += st.CacheMisses
	sum.Accepted += st.Accepted
	sum.Levels += st.Levels
}

// applyTo returns the declared set after one mutation, as a new slice.
func applyTo(declared, decl, rem []core.OD) []core.OD {
	gone := map[string]bool{}
	for _, od := range rem {
		gone[od.Key()] = true
	}
	out := make([]core.OD, 0, len(declared)+len(decl))
	for _, od := range declared {
		if !gone[od.Key()] {
			out = append(out, od)
		}
	}
	return append(out, decl...)
}

// coreCosts times the three core calls every request makes — parsing a
// statement, and keying and hashing an OD — over the traced statements.
func coreCosts(ops []op, prep []parsed) (parseNs, keyNs, hashNs float64) {
	var stmts []string
	var ods []core.OD
	for i := range ops {
		switch ops[i].kind {
		case opProve:
			stmts = append(stmts, ops[i].text)
			ods = append(ods, prep[i].ods...)
		case opMutate:
			stmts = append(stmts, ops[i].declare...)
			stmts = append(stmts, ops[i].remove...)
			ods = append(ods, prep[i].decl...)
			ods = append(ods, prep[i].rem...)
		}
	}
	if len(stmts) == 0 {
		return 0, 0, 0
	}
	const rounds = 20
	start := time.Now()
	for r := 0; r < rounds; r++ {
		for _, s := range stmts {
			if _, err := core.ParseStatement(s); err != nil {
				panic(err) // parsed once already
			}
		}
	}
	parseNs = float64(time.Since(start).Nanoseconds()) / float64(rounds*len(stmts))
	var keys int
	start = time.Now()
	for r := 0; r < rounds; r++ {
		for _, od := range ods {
			keys += len(od.Key())
		}
	}
	keyNs = float64(time.Since(start).Nanoseconds()) / float64(rounds*len(ods))
	var hashes uint64
	start = time.Now()
	for r := 0; r < rounds; r++ {
		for _, od := range ods {
			hashes ^= od.Hash()
		}
	}
	hashNs = float64(time.Since(start).Nanoseconds()) / float64(rounds*len(ods))
	sink = keys + int(hashes&1)
	return parseNs, keyNs, hashNs
}

// sink keeps the compiler from dropping calls timed for their cost alone.
var sink int

// observeCost times one histogram observation on a registry of its own.
func observeCost() float64 {
	h := metrics.NewRegistry().NewHistogram("odserve_bench_probe_seconds", "Probe for the cost of one observation.", metrics.DefLatencyBuckets)
	const n = 1 << 20
	start := time.Now()
	for i := 0; i < n; i++ {
		h.Observe(float64(i&1023) * 1e-5)
	}
	return float64(time.Since(start).Nanoseconds()) / n
}

// aftermath is what the durable workload measures once its traced pass is
// over; all zero on the in-memory workloads, which have no store to recover
// and no segments to ship.
type aftermath struct {
	store     store.Stats
	openMs    float64
	decodeMBs float64
	syncMs    float64
	replica   struct{ records, fetches, bytes, bootstraps float64 }
}

// afterTrace settles the d0 stack's shard to the fixed recovery input, syncs
// a fresh ephemeral follower from zero to the leader's watermark, times
// DecodeFrames over the segment bytes and the reopen of the directory, and
// closes the stack.
func (b *bench) afterTrace(ctx context.Context, res *result, writerOps int) (aftermath, error) {
	var a aftermath
	if !b.w.durable {
		return a, b.close()
	}
	if err := b.settle(ctx, writerOps); err != nil {
		return a, err
	}
	want := b.st.rt.ListingAll()
	// One sync replays the whole suffix record by record — seconds of work, so
	// it is measured once.
	{
		frt, err := router.Open(router.Options{Follower: true})
		if err != nil {
			return a, err
		}
		tailer, err := replica.New(replica.Options{Leader: b.st.ts.URL, Router: frt})
		if err != nil {
			return a, err
		}
		start := time.Now()
		sctx, cancel := context.WithTimeout(ctx, opTimeout)
		err = tailer.Sync(sctx)
		cancel()
		a.syncMs = float64(time.Since(start).Microseconds()) / 1e3
		tailer.Close()
		if err == nil {
			err = sameListings(want, frt.ListingAll())
		}
		if err != nil {
			res.fail(fmt.Errorf("follower: %w", err))
		}
		for _, rs := range frt.ReplicaStatuses() {
			a.replica.records += float64(rs.AppliedSeq)
			a.replica.fetches += float64(rs.SegmentsFetched)
			a.replica.bytes += float64(rs.BytesFetched)
			a.replica.bootstraps += float64(rs.Bootstraps)
		}
		if err := frt.Close(); err != nil {
			return a, err
		}
	}
	for _, ss := range b.st.rt.Stats() {
		if ss.Store != nil {
			a.store = *ss.Store
		}
	}
	if err := b.close(); err != nil {
		return a, err
	}
	var err error
	if a.decodeMBs, err = decodeRate(b.dataDir); err != nil {
		return a, err
	}
	var opens []float64
	for i := 0; i < restartReps; i++ {
		start := time.Now()
		rt, err := openRouter(b.dataDir, server.NewTelemetry(), nil)
		if err != nil {
			return a, err
		}
		opens = append(opens, float64(time.Since(start).Microseconds())/1e3)
		err = sameListings(want, rt.ListingAll())
		if cerr := rt.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			res.fail(fmt.Errorf("recovery: %w", err))
		}
	}
	a.openMs = median(opens)
	return a, nil
}

// decodeRate is store.DecodeFrames' throughput over the WAL segment bytes
// the run left under dir.
func decodeRate(dir string) (float64, error) {
	var segs [][]byte
	var total int
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".log") {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		b, err := io.ReadAll(f)
		segs = append(segs, b)
		total += len(b)
		return err
	})
	if err != nil || total == 0 {
		return 0, err
	}
	const rounds = 20
	start := time.Now()
	for r := 0; r < rounds; r++ {
		for _, b := range segs {
			if _, _, err := store.DecodeFrames(b); err != nil {
				return 0, err
			}
		}
	}
	return float64(rounds*total) / (1 << 20) / time.Since(start).Seconds(), nil
}

// settle brings the durable shard to a fixed recovery input after a replay
// that stopped the writer at an arbitrary position of its cyclic list:
// finish the cycle (the list returns the shard to its initial state), cut a
// snapshot, then log exactly w.suffixOps further mutations.
func (b *bench) settle(ctx context.Context, pos int) error {
	writer, se := b.w.lists[0], b.sessions[0]
	for i := pos % len(writer); i > 0 && i < len(writer); i++ {
		if _, err := se.do(ctx, b.w, &writer[i]); err != nil {
			return fmt.Errorf("settle: %w", err)
		}
	}
	if err := se.snapshot(ctx); err != nil {
		return fmt.Errorf("settle: %w", err)
	}
	for i := 0; i < b.w.suffixOps; i++ {
		if _, err := se.do(ctx, b.w, &writer[i%len(writer)]); err != nil {
			return fmt.Errorf("settle: %w", err)
		}
	}
	return nil
}

func sameListings(want, got map[string]catalog.Listing) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d shards, want %d", len(got), len(want))
	}
	for name, w := range want {
		g := got[name]
		if g.Generation != w.Generation {
			return fmt.Errorf("shard %q at generation %d, want %d", name, g.Generation, w.Generation)
		}
		if len(g.Declared) != len(w.Declared) || len(g.Closure) != len(w.Closure) {
			return fmt.Errorf("shard %q lists %d declared and %d closure ODs, want %d and %d",
				name, len(g.Declared), len(g.Closure), len(w.Declared), len(w.Closure))
		}
		for i := range w.Declared {
			if !g.Declared[i].Equal(w.Declared[i]) {
				return fmt.Errorf("shard %q declares %s, want %s", name, g.Declared[i], w.Declared[i])
			}
		}
		for i := range w.Closure {
			if !g.Closure[i].Equal(w.Closure[i]) {
				return fmt.Errorf("shard %q closure has %s, want %s", name, g.Closure[i], w.Closure[i])
			}
		}
	}
	return nil
}
