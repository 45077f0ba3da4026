package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"odlib/pkg/odclient"
)

// How often a run repeats what it reports a median of.
const (
	setupReps     = 9
	restartReps   = 5
	p99Windows    = 5
	tailWindowMin = 1000
	// witnessEvery is the share of timed refutations whose witness is kept
	// and validated after the phase.
	witnessEvery = 64
)

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run prints; its last line on stdout carries correct,
// attempted, failed and metrics, the rest goes to the report above it.
type result struct {
	Workload  string           `json:"workload"`
	Seed      int64            `json:"seed"`
	Trace     bool             `json:"trace"`
	Hash      string           `json:"workload_hash"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Samples   map[string]int   `json:"samples"`
	Metrics   map[string]value `json:"metrics"`
	Errors    []string         `json:"errors,omitempty"`
}

func (r *result) set(name string, v float64, unit string) { r.Metrics[name] = value{v, unit} }

// fail records a wrong or failed answer; only the first few are kept.
func (r *result) fail(err error) {
	r.Correct = false
	if len(r.Errors) < 8 {
		r.Errors = append(r.Errors, err.Error())
	}
}

// sample is one successful op: when it completed, relative to the phase
// start, and how long it took.
type sample struct{ end, dur time.Duration }

// witnessed is a timed refutation kept for validation after the phase.
type witnessed struct {
	o *op
	w *odclient.Witness
}

// tally is one client's share of a phase.
type tally struct {
	samples           [3][]sample // by op class
	attempted, failed int
	errs              []error
	refuted           int
	kept              []witnessed
	pos               int // ops issued from the client's list
}

// phase is a completed closed-loop measurement.
type phase struct {
	tallies    []*tally
	wall       time.Duration
	allocBytes uint64
	heapPeak   uint64
}

// samples returns one class's samples of every client, in completion order.
func (p *phase) samples(c class) []sample {
	var out []sample
	for _, t := range p.tallies {
		out = append(out, t.samples[c]...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].end < out[j].end })
	return out
}

func (p *phase) counts() (attempted, failed int) {
	for _, t := range p.tallies {
		attempted += t.attempted
		failed += t.failed
	}
	return
}

// runPhase drives one session per op list in a closed loop — each client
// sends its next op when the previous reply has been checked — until the
// deadline, or until every client has issued limit ops when limit > 0.
func runPhase(ctx context.Context, w *workload, sessions []*session, lists [][]op, d time.Duration, limit int) *phase {
	p := &phase{tallies: make([]*tally, len(lists))}
	stopHeap := make(chan struct{})
	heapDone := make(chan struct{})
	go func() {
		defer close(heapDone)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			if h := heapInUse(); h > p.heapPeak {
				p.heapPeak = h
			}
			select {
			case <-stopHeap:
				return
			case <-tick.C:
			}
		}
	}()
	alloc0 := allocBytes()
	start := time.Now()
	var wg sync.WaitGroup
	for i := range lists {
		t := &tally{}
		p.tallies[i] = t
		wg.Add(1)
		go func(se *session, l []op) {
			defer wg.Done()
			for limit <= 0 || t.pos < limit {
				t0 := time.Now()
				if limit <= 0 && t0.Sub(start) >= d {
					return
				}
				o := &l[t.pos%len(l)]
				t.pos++
				octx, cancel := context.WithTimeout(ctx, opTimeout)
				wit, err := se.do(octx, w, o)
				end := time.Now()
				cancel()
				t.attempted++
				if err != nil {
					t.failed++
					if len(t.errs) < 4 {
						t.errs = append(t.errs, err)
					}
					continue
				}
				t.samples[o.class] = append(t.samples[o.class], sample{end: end.Sub(start), dur: end.Sub(t0)})
				if wit != nil {
					if t.refuted%witnessEvery == 0 {
						t.kept = append(t.kept, witnessed{o, wit})
					}
					t.refuted++
				}
			}
		}(sessions[i], lists[i])
	}
	wg.Wait()
	p.wall = time.Since(start)
	p.allocBytes = allocBytes() - alloc0
	close(stopHeap)
	<-heapDone
	return p
}

// allocBytes is MemStats.TotalAlloc and heapInUse is MemStats.HeapInuse, read
// through runtime/metrics so that sampling does not stop the world.
func allocBytes() uint64 { return readMetrics("/gc/heap/allocs:bytes") }

func heapInUse() uint64 {
	return readMetrics("/memory/classes/heap/objects:bytes", "/memory/classes/heap/unused:bytes")
}

// readMetrics sums the named uint64 runtime metrics.
func readMetrics(names ...string) uint64 {
	s := make([]metrics.Sample, len(names))
	for i, n := range names {
		s[i].Name = n
	}
	metrics.Read(s)
	var sum uint64
	for i := range s {
		sum += s[i].Value.Uint64()
	}
	return sum
}

// percentile is the nearest-rank q-quantile of durations sorted ascending.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(i, 0)]
}

func durations(ss []sample) []time.Duration {
	out := make([]time.Duration, len(ss))
	for i, s := range ss {
		out[i] = s.dur
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// tail is the tail latency of the samples (ordered by completion) and the
// percentile it is. With at least tailWindowMin samples in each of p99Windows
// equal consecutive windows it is the median of the windows' p99s, so that
// one GC cycle or scheduler hiccup moves one window and not the metric. With
// fewer it is the highest percentile of the whole phase that still has ten
// samples beyond it, between the median and p99.
func tail(ss []sample) (time.Duration, float64) {
	n := len(ss) / p99Windows
	if n < tailWindowMin {
		q := max(0.5, min(0.99, 1-10/float64(len(ss))))
		return percentile(durations(ss), q), q
	}
	var p99s []time.Duration
	for k := 0; k < p99Windows; k++ {
		p99s = append(p99s, percentile(durations(ss[k*n:(k+1)*n]), 0.99))
	}
	sort.Slice(p99s, func(i, j int) bool { return p99s[i] < p99s[j] })
	return p99s[len(p99s)/2], 0.99
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// bench is one workload set up for measuring: the live stack and one session
// per client.
type bench struct {
	w        *workload
	st       *stack
	sessions []*session
	dataDir  string // the live stack's, "" when in-memory
	setups   []float64
}

// setUp opens a stack, declares the standing constraints and warms it up:
// every warm-up statement is asked once over the wire, which fills the
// verdict tiers and opens each session's connection.
func setUp(ctx context.Context, w *workload, scratch string, rep int) (*bench, time.Duration, error) {
	start := time.Now()
	b := &bench{w: w}
	if w.durable {
		b.dataDir = filepath.Join(scratch, fmt.Sprintf("data-%d", rep))
	}
	st, err := openStack(b.dataDir)
	if err != nil {
		return nil, 0, err
	}
	b.st = st
	if err := populate(st.rt, w.schemas); err != nil {
		return nil, 0, fmt.Errorf("populate: %w", err)
	}
	for range w.lists {
		se, err := st.session()
		if err != nil {
			return nil, 0, err
		}
		b.sessions = append(b.sessions, se)
	}
	for i := range w.warm {
		if _, err := b.sessions[i%len(b.sessions)].do(ctx, w, &w.warm[i]); err != nil {
			return nil, 0, fmt.Errorf("warm-up: %w", err)
		}
	}
	return b, time.Since(start), nil
}

func (b *bench) close() error {
	for _, se := range b.sessions {
		se.close()
	}
	return b.st.close()
}

// setUpRepeated sets the workload up setupReps times on fresh stacks and
// keeps the last one; setup_s is the median of the repetitions.
func setUpRepeated(ctx context.Context, w *workload, scratch string) (*bench, error) {
	var setups []float64
	for rep := 0; ; rep++ {
		// Each repetition starts from a collected heap, so that none pays for
		// the garbage of the one before.
		runtime.GC()
		b, d, err := setUp(ctx, w, scratch, rep)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		if rep == setupReps-1 {
			b.setups = setups
			return b, nil
		}
		if err := b.close(); err != nil {
			return nil, err
		}
	}
}

// runEndToEnd measures one workload with tracing off and reports every
// end-to-end metric.
func runEndToEnd(ctx context.Context, w *workload, seed int64, seconds float64) (*result, error) {
	res := &result{Workload: w.name, Seed: seed, Hash: w.hash(), Correct: true,
		Samples: map[string]int{}, Metrics: map[string]value{}}
	scratch, err := scratchDir()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	if err := selfCheck(ctx, w); err != nil {
		return nil, fmt.Errorf("oracle self-check: %w", err)
	}
	b, err := setUpRepeated(ctx, w, scratch)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	p := runPhase(ctx, w, b.sessions, w.lists, time.Duration(seconds*float64(time.Second)), 0)
	if err := b.verifyWitnesses(p); err != nil {
		res.fail(err)
	}
	if err := b.close(); err != nil {
		return nil, err
	}

	attempted, failed := p.counts()
	res.Attempted, res.Failed = attempted, failed
	for _, t := range p.tallies {
		for _, e := range t.errs {
			res.fail(e)
		}
	}
	prim, sec, bg := p.samples(primary), p.samples(secondary), p.samples(background)
	if len(prim) == 0 || len(sec) == 0 {
		return nil, fmt.Errorf("%s: %d primary and %d secondary ops completed; the run is too short to report them", w.name, len(prim), len(sec))
	}
	res.Samples["primary"], res.Samples["secondary"] = len(prim), len(sec)
	if len(bg) > 0 {
		res.Samples["background"] = len(bg)
		res.Samples["background_p50_ns"] = int(percentile(durations(bg), 0.5))
	}
	tailLatency, q := tail(prim)
	res.Samples["primary_tail_permille"] = int(math.Round(q * 1000))
	res.set("setup_s", median(b.setups), "s")
	res.set("primary_p50_us", us(percentile(durations(prim), 0.5)), "us")
	res.set("primary_tail_us", us(tailLatency), "us")
	res.set("secondary_p50_us", us(percentile(durations(sec), 0.5)), "us")
	res.set("primary_ops_s", float64(len(prim))/p.wall.Seconds(), "1/s")
	res.set("alloc_kb_per_op", float64(p.allocBytes)/1024/float64(len(prim)), "KB")
	res.set("heap_peak_mb", float64(p.heapPeak)/(1<<20), "MB")
	return res, nil
}

// outDir holds everything a run writes: trace files and, for its duration,
// the durable workload's data directories. It is relative to the working
// directory, which `go run -C bench` makes the benchmark's own directory, so
// a run reads and writes only inside its checkout.
const outDir = "out"

func scratchDir() (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(outDir, "run-")
}
