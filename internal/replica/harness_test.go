package replica

// This file is the reusable leader/follower fixture the fault-matrix,
// differential and crash tests drive. Both sides run in-process: the leader
// is a real router+server behind httptest with a swappable handler (so
// "killing" the leader mid-ship and restarting it from its data dir is two
// method calls), and the follower is a follower-mode router plus a Tailer
// whose HTTP client can be wrapped in a fault-injecting RoundTripper.

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"odlib/internal/core"
	"odlib/internal/router"
	"odlib/internal/server"
	"odlib/internal/store"
)

// leaderFixture is a durable leader odserve in miniature: router + HTTP
// server over a temp data dir. Kill/Restart simulate a crash: the listener
// stays up (the follower keeps dialing the same URL, as it would a restarted
// process behind the same address) but requests fail at the transport level
// until Restart reopens the router from the same directory.
type leaderFixture struct {
	t    *testing.T
	dir  string
	opts store.Options
	srv  *httptest.Server

	mu sync.Mutex
	rt *router.Router
	h  http.Handler

	down atomic.Bool
}

func newLeader(t *testing.T, opts store.Options) *leaderFixture {
	t.Helper()
	lf := &leaderFixture{t: t, dir: t.TempDir(), opts: opts}
	lf.open()
	lf.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if lf.down.Load() {
			// Abort the connection mid-flight — the follower sees a torn
			// transport, exactly like a killed process.
			panic(http.ErrAbortHandler)
		}
		lf.mu.Lock()
		h := lf.h
		lf.mu.Unlock()
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		lf.srv.Close()
		lf.mu.Lock()
		defer lf.mu.Unlock()
		if lf.rt != nil {
			lf.rt.Close()
		}
	})
	return lf
}

func (lf *leaderFixture) open() {
	rt, err := router.Open(router.Options{DataDir: lf.dir, Store: lf.opts})
	if err != nil {
		lf.t.Fatal(err)
	}
	lf.mu.Lock()
	lf.rt = rt
	lf.h = server.New(rt)
	lf.mu.Unlock()
}

func (lf *leaderFixture) URL() string { return lf.srv.URL }

func (lf *leaderFixture) Router() *router.Router {
	lf.mu.Lock()
	defer lf.mu.Unlock()
	return lf.rt
}

// Kill closes the router (flushing its WAL like a graceful-enough crash: the
// group commit already made every acknowledged record durable) and fails all
// requests until Restart.
func (lf *leaderFixture) Kill() {
	lf.down.Store(true)
	lf.srv.CloseClientConnections()
	lf.mu.Lock()
	defer lf.mu.Unlock()
	if err := lf.rt.Close(); err != nil {
		lf.t.Fatal(err)
	}
	lf.rt = nil
}

// Restart reopens the leader from its data dir — recovery replays the WAL
// and resumes the same generation trajectory.
func (lf *leaderFixture) Restart() {
	lf.open()
	lf.down.Store(false)
}

func (lf *leaderFixture) declare(schema string, stmts ...string) {
	lf.t.Helper()
	for _, s := range stmts {
		if _, err := lf.Router().Declare(schema, parseODs(lf.t, s)); err != nil {
			lf.t.Fatal(err)
		}
	}
}

func (lf *leaderFixture) remove(schema string, stmts ...string) {
	lf.t.Helper()
	for _, s := range stmts {
		if _, err := lf.Router().Remove(schema, parseODs(lf.t, s)); err != nil {
			lf.t.Fatal(err)
		}
	}
}

// followerFixture is a follower-mode router with a tailer pointed at a
// leader fixture, optionally through a fault-injecting transport. Kill/
// Restart simulate a follower crash: close the tailer and router, reopen
// from the same directory, resume from the local watermark.
type followerFixture struct {
	t        *testing.T
	dir      string
	leader   string
	client   *http.Client
	maxLag   int
	interval time.Duration

	rt     *router.Router
	tailer *Tailer
}

func newFollower(t *testing.T, leaderURL string, client *http.Client, maxLag int) *followerFixture {
	t.Helper()
	return newFollowerAt(t, t.TempDir(), leaderURL, client, maxLag)
}

// eachFollowerDir runs fn for both follower kinds: durable (a data dir) and
// pure-cache (dir == "", nothing persisted). Whatever a fault does to one it
// must do to the other — they run the same log code.
func eachFollowerDir(t *testing.T, fn func(t *testing.T, dir string)) {
	t.Run("durable", func(t *testing.T) { fn(t, t.TempDir()) })
	t.Run("pure-cache", func(t *testing.T) { fn(t, "") })
}

// newFollowerAt is newFollower over a chosen data dir; empty means a
// pure-cache follower, whose Restart re-tails from scratch.
func newFollowerAt(t *testing.T, dir, leaderURL string, client *http.Client, maxLag int) *followerFixture {
	t.Helper()
	ff := &followerFixture{
		t: t, dir: dir, leader: leaderURL, client: client,
		maxLag: maxLag, interval: 5 * time.Millisecond,
	}
	ff.open()
	t.Cleanup(func() { ff.close() })
	return ff
}

func (ff *followerFixture) open() {
	ff.t.Helper()
	rt, err := router.Open(router.Options{DataDir: ff.dir, Follower: true, MaxLagRecords: ff.maxLag})
	if err != nil {
		ff.t.Fatal(err)
	}
	tailer, err := New(Options{
		Leader: ff.leader, Router: rt,
		PollInterval: ff.interval, Client: ff.client,
	})
	if err != nil {
		ff.t.Fatal(err)
	}
	ff.rt, ff.tailer = rt, tailer
}

func (ff *followerFixture) close() {
	if ff.tailer != nil {
		ff.tailer.Close()
		ff.tailer = nil
	}
	if ff.rt != nil {
		ff.rt.Close()
		ff.rt = nil
	}
}

func (ff *followerFixture) Kill()    { ff.close() }
func (ff *followerFixture) Restart() { ff.open() }

// sync drives tail passes until the follower is caught up, failing the test
// on timeout. Use only when the transport is expected to be healthy.
func (ff *followerFixture) sync() {
	ff.t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := ff.tailer.Sync(ctx); err != nil {
		ff.t.Fatalf("follower sync: %v", err)
	}
}

// pass runs one tail pass and returns its error (faulty passes are data
// here, not failures).
func (ff *followerFixture) pass() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, err := ff.tailer.Pass(ctx)
	return err
}

// segmentFetchPat matches segment data fetches (not metadata polls, not
// snapshot fetches) — the usual fault target.
var segmentFetchPat = regexp.MustCompile(`^/segments/.+/\d+$`)

// flakyTransport injects transport faults: requests whose URL matches fail
// outright (failPattern), or their response bodies are cut after truncateAt
// bytes (torn fetch). Both heal when cleared. Counting matched faults lets a
// test assert the fault actually fired.
type flakyTransport struct {
	base http.RoundTripper

	mu          sync.Mutex
	failPattern *regexp.Regexp
	truncateAt  int64
	truncPat    *regexp.Regexp
	hook        func(*http.Request)
	hits        int
}

func newFlaky(base http.RoundTripper) *flakyTransport {
	if base == nil {
		base = http.DefaultTransport
	}
	return &flakyTransport{base: base, truncateAt: -1}
}

// failMatching makes every request whose URL path matches pat fail with a
// transport error. Pass "" to heal.
func (f *flakyTransport) failMatching(pat string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if pat == "" {
		f.failPattern = nil
		return
	}
	f.failPattern = regexp.MustCompile(pat)
}

// truncateBodies cuts response bodies of matching requests after n bytes.
// n < 0 heals.
func (f *flakyTransport) truncateBodies(pat string, n int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.truncateAt = n
	if pat == "" {
		f.truncPat = nil
		return
	}
	f.truncPat = regexp.MustCompile(pat)
}

// onRequest installs a callback fired before matching requests are forwarded
// — the lever for deterministic races (e.g. compact the leader between the
// follower's metadata poll and its segment fetch).
func (f *flakyTransport) onRequest(fn func(*http.Request)) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.hook = fn
}

func (f *flakyTransport) faultHits() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.hits
}

func (f *flakyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	f.mu.Lock()
	fail := f.failPattern != nil && f.failPattern.MatchString(req.URL.Path)
	trunc := f.truncateAt >= 0 && f.truncPat != nil && f.truncPat.MatchString(req.URL.Path)
	truncAt := f.truncateAt
	hook := f.hook
	if fail || trunc {
		f.hits++
	}
	f.mu.Unlock()
	if hook != nil {
		hook(req)
	}
	if fail {
		return nil, fmt.Errorf("flaky transport: injected failure for %s", req.URL.Path)
	}
	resp, err := f.base.RoundTrip(req)
	if err != nil || !trunc {
		return resp, err
	}
	resp.Body = &tornBody{rc: resp.Body, remaining: truncAt}
	return resp, nil
}

// tornBody yields at most remaining bytes, then fails like a cut connection.
type tornBody struct {
	rc        io.ReadCloser
	remaining int64
}

func (tb *tornBody) Read(p []byte) (int, error) {
	if tb.remaining <= 0 {
		return 0, io.ErrUnexpectedEOF
	}
	if int64(len(p)) > tb.remaining {
		p = p[:tb.remaining]
	}
	n, err := tb.rc.Read(p)
	tb.remaining -= int64(n)
	if err == nil && tb.remaining <= 0 {
		err = io.ErrUnexpectedEOF
	}
	return n, err
}

func (tb *tornBody) Close() error { return tb.rc.Close() }

func parseODs(t *testing.T, stmt string) []core.OD {
	t.Helper()
	ods, err := core.ParseStatement(stmt)
	if err != nil {
		t.Fatal(err)
	}
	return ods
}

// assertConverged is the matrix's verdict oracle: at quiescence the follower
// must sit at the leader's generation with an identical listing, and every
// probe statement must get the identical verdict from both sides. Any
// divergence here is the wrong-answer mode replication must never introduce.
func assertConverged(t *testing.T, leader, follower *router.Router, schema string, probes []string) {
	t.Helper()
	lg, err := leader.GenerationOf(schema)
	if err != nil {
		t.Fatal(err)
	}
	fg, err := follower.GenerationOf(schema)
	if err != nil {
		t.Fatal(err)
	}
	if lg != fg {
		t.Fatalf("follower generation %d != leader %d", fg, lg)
	}
	ll, err := leader.Listing(schema)
	if err != nil {
		t.Fatal(err)
	}
	fl, err := follower.Listing(schema)
	if err != nil {
		t.Fatal(err)
	}
	if len(ll.Declared) != len(fl.Declared) || len(ll.Closure) != len(fl.Closure) {
		t.Fatalf("listings diverge: leader %d/%d, follower %d/%d",
			len(ll.Declared), len(ll.Closure), len(fl.Declared), len(fl.Closure))
	}
	declared := make(map[string]bool, len(ll.Declared))
	for _, od := range ll.Declared {
		declared[od.Key()] = true
	}
	for _, od := range fl.Declared {
		if !declared[od.Key()] {
			t.Fatalf("follower declares %s, leader does not", od)
		}
	}
	for _, probe := range probes {
		q := parseODs(t, probe)
		lr, lgen, _, err := leader.ProveOne(context.Background(), schema, q)
		if err != nil {
			t.Fatalf("leader prove %q: %v", probe, err)
		}
		fr, fgen, _, err := follower.ProveOne(context.Background(), schema, q)
		if err != nil {
			t.Fatalf("follower prove %q: %v", probe, err)
		}
		if lr.Implied != fr.Implied || lgen != fgen {
			t.Fatalf("verdict diverges on %q: leader (%v, gen %d), follower (%v, gen %d)",
				probe, lr.Implied, lgen, fr.Implied, fgen)
		}
	}
}
