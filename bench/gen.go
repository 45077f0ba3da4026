package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"

	"odlib/internal/core"
	"odlib/internal/prover"
	"odlib/internal/rewrite"
	"odlib/internal/warehouse"
)

// The program under test sees only what this file generates: every schema,
// statement, mutation and relation is a pure function of the seed, and every
// op carries the answer the generator expects (the oracle).

type opKind uint8

const (
	opProve opKind = iota
	opRewrite
	opMutate
	opDiscover
)

var kindNames = [...]string{"prove", "rewrite", "mutate", "discover"}

func (k opKind) String() string { return kindNames[k] }

// class says which latency metrics an op is timed under: the workload's
// primary_* or secondary_* ones, or none (background ops are checked and
// counted, and their median is printed, but no gated metric reads them).
type class uint8

const (
	primary class = iota
	secondary
	background
)

// op is one request with its expected answer.
type op struct {
	kind     opKind
	class    class
	schema   string
	text     string   // prove: statement; rewrite: ORDER BY list
	declare  []string // mutate
	remove   []string // mutate
	body     []byte   // discover: the request body
	relation int      // discover: index into workload.relations

	implied bool   // prove oracle
	reduced string // rewrite oracle
}

// schema is one shard's standing constraint set, declared in set-up.
type schema struct {
	name     string
	declared []string
}

// relation is one discovery input with its reference answer, filled by the
// set-up self-check (the sequential discover.Discover run).
type relation struct {
	name       string
	rel        *core.Relation
	maxLHS     int
	maxRHS     int
	wantODs    []string // accepted set of a reference pipeline run, sorted
	wantChecks uint64   // DataChecks of the reference run
}

// workload is a generated op list per client plus what set-up needs.
type workload struct {
	name      string
	durable   bool
	schemas   []schema
	warm      []op   // asked once, untimed, before measuring
	lists     [][]op // one per client, cycled for the length of the run
	relations []relation
	traceOps  int // ops of lists merged round-robin that a 20 s traced run replays
	suffixOps int // durable only: mutations logged between the snapshot and recovery
}

var workloadNames = []string{"prove-hot", "prove-search", "mutate-churn", "discover-date"}

// Shapes shared by the workloads. The chain schemas are 12 chains of 5
// links; the churn shard holds 256 standing ODs as 64 chains of 4 links.
const (
	hotChains, hotLinks     = 12, 5
	churnChains, churnLinks = 64, 4
	poolSize                = 256
	zipfS                   = 1.3
	windowSize              = 64 // live extra ODs the churn writer slides over
	churnRounds             = 16 // rounds of churnPeriod ops per writer list
)

// generate builds a workload for a run of the given length. Everything that
// has a size — list lengths, relation rows, the recovery suffix — scales
// with seconds and has the documented size at the benchmark's 20 s.
func generate(name string, seed int64, clients int, seconds float64) (*workload, error) {
	rng := rand.New(rand.NewSource(seed))
	switch name {
	case "prove-hot":
		return genProveHot(rng, clients), nil
	case "prove-search":
		return genProveSearch(rng, clients, seconds), nil
	case "mutate-churn":
		return genMutateChurn(rng, seconds), nil
	case "discover-date":
		return genDiscoverDate(rng, seconds)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
}

func attr(chain, i int) string { return fmt.Sprintf("c%d_%d", chain, i) }

func list(attrs ...string) string { return "[" + strings.Join(attrs, ", ") + "]" }

func chainSchema(name string, chains, links int) schema {
	sc := schema{name: name}
	for c := 0; c < chains; c++ {
		for i := 0; i < links; i++ {
			sc.declared = append(sc.declared, list(attr(c, i))+" -> "+list(attr(c, i+1)))
		}
	}
	return sc
}

func datesSchema() schema {
	sc := schema{name: "dates"}
	for _, od := range warehouse.DeclaredODs() {
		sc.declared = append(sc.declared, od.String())
	}
	return sc
}

func hotSchemas() []schema {
	var out []schema
	for i := 0; i < 4; i++ {
		out = append(out, chainSchema(fmt.Sprintf("s%d", i), hotChains, hotLinks))
	}
	return append(out, datesSchema())
}

// chainKinds is the kind of statement at each Zipf rank of a chain pool,
// repeated down the ranks. The kinds follow from the chain structure alone: a
// forward span [ci] -> [cj] is in the closure, its reversal is refuted
// (negative tier once searched), the FD form [ci] -> [ci, cj] is implied but
// outside the closure (memo tier once searched), and [ci, cj] -> [ci] is
// trivial. Fixing the kind per rank keeps the cost profile of the hot ranks
// the same for every seed; the seed picks the chains and spans.
var chainKinds = [...]byte{'c', 'r', 'f', 'c', 'r', 'f', 'c', 'r', 'c', 'f', 'r', 'c', 'f', 'r', 'c', 't'}

// chainPool draws poolSize distinct prove statements over one chain schema.
func chainPool(rng *rand.Rand, name string, chains, links int) []op {
	type span struct{ c, i, j int }
	var spans []span
	for c := 0; c < chains; c++ {
		for i := 0; i <= links; i++ {
			for j := i + 1; j <= links; j++ {
				spans = append(spans, span{c, i, j})
			}
		}
	}
	// One shuffled deck of spans per kind, so a kind never repeats a span.
	decks := map[byte][]span{}
	for _, k := range []byte("crft") {
		d := append([]span(nil), spans...)
		rng.Shuffle(len(d), func(a, b int) { d[a], d[b] = d[b], d[a] })
		decks[k] = d
	}
	pool := make([]op, poolSize)
	for rank := range pool {
		kind := chainKinds[rank%len(chainKinds)]
		s := decks[kind][0]
		decks[kind] = decks[kind][1:]
		lo, hi := attr(s.c, s.i), attr(s.c, s.j)
		o := op{kind: opProve, schema: name, implied: kind != 'r'}
		switch kind {
		case 'c':
			o.text = list(lo) + " -> " + list(hi)
		case 'r':
			o.text = list(hi) + " -> " + list(lo)
		case 'f':
			o.text = list(lo) + " -> " + list(lo, hi)
		case 't':
			o.text = list(lo, hi) + " -> " + list(lo)
		}
		pool[rank] = o
	}
	return pool
}

// datesPool draws poolSize distinct small ODs over the date dimension,
// implied at even ranks and refuted at odd ones. The calendar constraints
// have no chain structure to read a verdict off, so the oracle here is a
// sequential prover over the declared set.
func datesPool(rng *rand.Rand) []op {
	declared := warehouse.DeclaredODs()
	universe := core.AttrsOf(declared).Sorted()
	p := prover.New(declared, prover.WithWorkers(1))
	seen := map[string]bool{}
	var byVerdict [2][]op
	for len(byVerdict[0]) < poolSize/2 || len(byVerdict[1]) < poolSize/2 {
		od := core.OD{LHS: distinctList(rng, universe, 1, 2), RHS: distinctList(rng, universe, 1, 3)}
		if seen[od.Key()] || od.Trivial() {
			continue
		}
		seen[od.Key()] = true
		ok, err := p.Implies(od)
		if err != nil {
			panic(err) // at most 5 attributes, far below the guard
		}
		v := 1
		if ok {
			v = 0
		}
		byVerdict[v] = append(byVerdict[v], op{kind: opProve, schema: "dates", text: od.String(), implied: ok})
	}
	pool := make([]op, poolSize)
	for rank := range pool {
		pool[rank] = byVerdict[rank%2][rank/2]
	}
	return pool
}

func distinctList(rng *rand.Rand, universe core.List, minLen, maxLen int) core.List {
	n := minLen + rng.Intn(maxLen-minLen+1)
	perm := rng.Perm(len(universe))
	out := make(core.List, n)
	for i := range out {
		out[i] = universe[perm[i]]
	}
	return out
}

// rewritePool draws distinct ORDER BY lists over the date dimension, TPC-DS
// style (two to five date attributes, each length equally often), with the
// reduction a sequential ReduceOrder⁺ over the declared ODs gives.
func rewritePool(rng *rand.Rand) []op {
	declared := warehouse.DeclaredODs()
	cons := rewrite.NewConstraints(nil, declared)
	universe := core.AttrsOf(declared).Sorted()
	seen := map[string]bool{}
	var pool []op
	for len(pool) < 128 {
		n := 2 + len(pool)%4
		order := distinctList(rng, universe, n, n)
		if seen[order.Key()] {
			continue
		}
		seen[order.Key()] = true
		res, err := rewrite.ReduceOrder(order, cons)
		if err != nil {
			panic(err) // at most 7 attributes, far below the guard
		}
		pool = append(pool, op{kind: opRewrite, class: secondary, schema: "dates",
			text: order.String(), reduced: res.Reduced.String()})
	}
	return pool
}

// genProveHot: 90 % proves drawn Zipf from a pool far smaller than the memo,
// 10 % rewrites on the date dimension. After the warm-up no search runs.
func genProveHot(rng *rand.Rand, clients int) *workload {
	w := &workload{name: "prove-hot", schemas: hotSchemas(), traceOps: 20000}
	var pools [][]op
	for _, sc := range w.schemas[:4] {
		pools = append(pools, chainPool(rng, sc.name, hotChains, hotLinks))
	}
	pools = append(pools, datesPool(rng))
	rewrites := rewritePool(rng)
	for _, p := range pools {
		w.warm = append(w.warm, p...)
	}
	w.warm = append(w.warm, rewrites...)
	for c := 0; c < clients; c++ {
		zipf := rand.NewZipf(rng, zipfS, 1, poolSize-1)
		l := make([]op, 1<<16)
		for i := range l {
			if rng.Intn(10) == 0 {
				l[i] = rewrites[rng.Intn(len(rewrites))]
			} else {
				l[i] = pools[rng.Intn(len(pools))][zipf.Uint64()]
			}
		}
		w.lists = append(w.lists, l)
	}
	return w
}

// searchSpan is how many links of each of its three chains a prove-search
// question spans: an FD-form question then entangles 3 + 3·searchSpan = 12
// attributes once the prover has widened over every link it needs, under the
// DefaultMaxAttrs = 14 guard. Narrower questions (10 and 11 attributes were
// tried in the mix) leave the prover below 70 % of the traced time.
const searchSpan = 3

// genProveSearch: every statement is asked once, so no verdict tier in front
// of the prover can answer. Half are implied FD-form questions spanning three
// chains (primary), half refuted reversals of such spans (secondary).
func genProveSearch(rng *rand.Rand, clients int, seconds float64) *workload {
	w := &workload{name: "prove-search", schemas: hotSchemas(), traceOps: 3000}
	perClient := int(1000*seconds) + 2000
	seen := map[string]bool{}
	next := func() op {
		for {
			o := searchQuestion(rng)
			key := o.schema + "|" + o.text
			if !seen[key] {
				seen[key] = true
				return o
			}
		}
	}
	// The warm-up only opens the connections, on refuted statements of its
	// own: they cost the same whatever the seed draws.
	for len(w.warm) < 4*clients {
		if o := next(); !o.implied {
			w.warm = append(w.warm, o)
		}
	}
	for c := 0; c < clients; c++ {
		l := make([]op, perClient)
		for i := range l {
			l[i] = next()
		}
		w.lists = append(w.lists, l)
	}
	return w
}

func searchQuestion(rng *rand.Rand) op {
	schema := fmt.Sprintf("s%d", rng.Intn(4))
	chains := rng.Perm(hotChains)[:3]
	var lo, hi []string
	for _, c := range chains {
		start := rng.Intn(hotLinks - searchSpan + 1)
		lo = append(lo, attr(c, start))
		hi = append(hi, attr(c, start+searchSpan))
	}
	rng.Shuffle(3, func(a, b int) { hi[a], hi[b] = hi[b], hi[a] })
	if rng.Intn(2) == 0 {
		// lo functionally determines hi chain by chain, so lo ↦ lo·hi holds.
		return op{kind: opProve, schema: schema, implied: true,
			text: list(lo...) + " -> " + list(append(append([]string(nil), lo...), hi...)...)}
	}
	// hi determines nothing below it: the split counterexample refutes.
	return op{kind: opProve, class: secondary, schema: schema, implied: false,
		text: list(hi...) + " -> " + list(append(append([]string(nil), hi...), lo...)...)}
}

// churnPeriod is one round of the writer: six single-statement mutations
// (declare at the window's head, remove at its tail) and one batch of four
// declares and four removes. A round advances the window by seven.
var churnPeriod = [...]int{1, -1, 1, -1, 1, -1, 4}

func extra(k int) string {
	return fmt.Sprintf("[x%d_a] -> [x%d_b]", k, k)
}

// genMutateChurn: one durable shard of 256 standing ODs; a writer slides a
// window of live extra ODs (single statements primary, batches secondary) over
// attributes the reader never asks about, so the reader's verdicts are
// constant while every write bumps the generation and wipes the memo. The
// reader is background load: its latency median flips between two modes —
// reads that overlap a catalog apply and reads that do not — and does not
// repeat run to run. The writer's list returns the shard to its initial
// state, which makes cycling it — and the recovery input cut from it —
// deterministic.
func genMutateChurn(rng *rand.Rand, seconds float64) *workload {
	sc := chainSchema("churn", churnChains, churnLinks)
	universe := 7 * churnRounds
	for k := 0; k < windowSize; k++ {
		sc.declared = append(sc.declared, extra(k))
	}
	w := &workload{name: "mutate-churn", durable: true, schemas: []schema{sc}, traceOps: 448,
		suffixOps: max(8, int(25*seconds))}
	head, tail := windowSize, 0
	take := func(from *int, n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = extra(*from % universe)
			*from++
		}
		return out
	}
	var writer []op
	for r := 0; r < churnRounds; r++ {
		for _, step := range churnPeriod {
			o := op{kind: opMutate, schema: "churn"}
			switch {
			case step == 1:
				o.declare = take(&head, 1)
			case step == -1:
				o.remove = take(&tail, 1)
			default:
				o.class = secondary
				o.declare, o.remove = take(&head, step), take(&tail, step)
			}
			writer = append(writer, o)
		}
	}
	pool := chainPool(rng, "churn", churnChains, churnLinks)
	zipf := rand.NewZipf(rng, zipfS, 1, poolSize-1)
	reader := make([]op, 1<<14)
	for i := range reader {
		reader[i] = pool[zipf.Uint64()]
		reader[i].class = background
	}
	w.warm = pool
	w.lists = [][]op{writer, reader}
	return w
}

// genDiscoverDate alternates the warehouse date dimension (primary) with a
// uniform random relation that holds no OD (secondary, the control).
func genDiscoverDate(rng *rand.Rand, seconds float64) (*workload, error) {
	cfg := warehouse.DefaultConfig()
	cfg.Days, cfg.FactRows, cfg.Seed = max(60, int(1826*seconds/20)), 0, rng.Int63()
	cfg.StartYear = 1990 + rng.Intn(20)
	wh, err := warehouse.Generate(cfg)
	if err != nil {
		return nil, err
	}
	dates, err := wh.DateDimRelation()
	if err != nil {
		return nil, err
	}
	attrs := core.L("r0", "r1", "r2", "r3", "r4", "r5")
	w := &workload{name: "discover-date", schemas: hotSchemas(), traceOps: 32}
	w.relations = []relation{
		{name: "date_dim", rel: dates, maxLHS: 2, maxRHS: 3},
		{name: "random", rel: core.RandRelation(rng, attrs, max(100, int(4000*seconds/20)), 50), maxLHS: 2, maxRHS: 2},
	}
	var l []op
	for i, r := range w.relations {
		body, err := discoverBody(r)
		if err != nil {
			return nil, err
		}
		l = append(l, op{kind: opDiscover, class: class(i), relation: i, body: body})
	}
	w.warm = l
	w.lists = [][]op{l}
	return w, nil
}

func discoverBody(r relation) ([]byte, error) {
	req := struct {
		Attrs  []string  `json:"attrs"`
		Rows   [][]int64 `json:"rows"`
		MaxLHS int       `json:"maxLHS"`
		MaxRHS int       `json:"maxRHS"`
	}{MaxLHS: r.maxLHS, MaxRHS: r.maxRHS}
	for _, a := range r.rel.Attrs() {
		req.Attrs = append(req.Attrs, string(a))
	}
	for i := 0; i < r.rel.Len(); i++ {
		row := make([]int64, 0, len(req.Attrs))
		for _, v := range r.rel.Row(i) {
			row = append(row, v.Int)
		}
		req.Rows = append(req.Rows, row)
	}
	return json.Marshal(req)
}

// hash fingerprints everything the program will be sent, byte for byte.
func (w *workload) hash() string {
	h := sha256.New()
	var buf bytes.Buffer
	put := func(parts ...string) {
		for _, p := range parts {
			buf.WriteString(p)
			buf.WriteByte(0)
		}
	}
	ops := func(l []op) {
		for i := range l {
			o := &l[i]
			put(o.kind.String(), o.schema, o.text, strings.Join(o.declare, ";"), strings.Join(o.remove, ";"),
				fmt.Sprint(o.class, o.implied), o.reduced)
			buf.Write(o.body)
			h.Write(buf.Bytes())
			buf.Reset()
		}
	}
	for _, sc := range w.schemas {
		put(sc.name, strings.Join(sc.declared, ";"))
	}
	ops(w.warm)
	for _, l := range w.lists {
		put("list")
		ops(l)
	}
	h.Write(buf.Bytes())
	return hex.EncodeToString(h.Sum(nil))[:16]
}
