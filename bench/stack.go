package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"time"

	"odlib/internal/catalog"
	"odlib/internal/core"
	"odlib/internal/discover"
	"odlib/internal/prover"
	"odlib/internal/router"
	"odlib/internal/server"
	"odlib/internal/store"
	"odlib/pkg/odclient"
)

// Durability settings of the mutate-churn shard, the same on every run and
// stated in every output.
const (
	fsyncPolicy   = true
	snapshotEvery = 1024
)

// stack is the service assembled the way cmd/odserve/main.go assembles it
// with default flags (plus -data-dir for the durable workload), served on a
// loopback listener.
type stack struct {
	tel  *server.Telemetry
	pool *prover.Pool
	rt   *router.Router
	srv  *server.Server
	ts   *httptest.Server
}

func openStack(dataDir string) (*stack, error) {
	tel := server.NewTelemetry()
	pool := prover.NewPool(runtime.GOMAXPROCS(0))
	rt, err := openRouter(dataDir, tel, pool)
	if err != nil {
		return nil, err
	}
	tel.ObserveRouter(rt, pool)
	srv := server.New(rt, server.WithTelemetry(tel), server.WithDiscoverPool(pool))
	return &stack{tel: tel, pool: pool, rt: rt, srv: srv, ts: httptest.NewServer(srv)}, nil
}

func openRouter(dataDir string, tel *server.Telemetry, pool *prover.Pool) (*router.Router, error) {
	return router.Open(router.Options{
		DataDir:   dataDir,
		Store:     storeOptions(tel),
		Catalog:   catalogOptions(tel, pool),
		Telemetry: tel.RouterTelemetry(),
	})
}

// catalogOptions and storeOptions are odserve's flag defaults.
func catalogOptions(tel *server.Telemetry, pool *prover.Pool) []catalog.Option {
	return append([]catalog.Option{
		catalog.WithMemoCapacity(catalog.DefaultMemoCapacity),
		catalog.WithMaxAttrs(prover.DefaultMaxAttrs),
		catalog.WithWorkers(runtime.GOMAXPROCS(0)),
	}, tel.CatalogOptions(pool)...)
}

func storeOptions(tel *server.Telemetry) store.Options {
	return store.Options{
		Fsync:         fsyncPolicy,
		SnapshotEvery: snapshotEvery,
		SegmentBytes:  store.DefaultSegmentBytes,
		Telemetry:     tel.StoreTelemetry(),
	}
}

func (s *stack) close() error {
	s.ts.Close()
	return s.rt.Close()
}

// populate declares every schema's standing set the way odserve's -ods
// preload does: one ApplyBatch, one BatchOp per OD.
func populate(rt *router.Router, schemas []schema) error {
	var ops []router.BatchOp
	for _, sc := range schemas {
		for _, stmt := range sc.declared {
			ods, err := core.ParseStatement(stmt)
			if err != nil {
				return err
			}
			ops = append(ops, router.BatchOp{Schema: sc.name, ODs: ods})
		}
	}
	_, err := rt.ApplyBatch(ops)
	return err
}

// session is one optimizer session: an odclient with every client-side
// amortiser off (no coalescing, pipelining, cache or retries — one op is one
// HTTP request) on one keep-alive connection.
type session struct {
	c    *odclient.Client
	hc   *http.Client
	base string
}

func (s *stack) session() (*session, error) {
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}}
	c, err := odclient.New(s.ts.URL, odclient.WithHTTPClient(hc), odclient.WithCoalescing(false))
	if err != nil {
		return nil, err
	}
	return &session{c: c, hc: hc, base: s.ts.URL}, nil
}

func (se *session) close() {
	_ = se.c.Close() // never fails without a pipeliner
	se.hc.CloseIdleConnections()
}

// do issues one op and checks the reply against the op's oracle. A non-nil
// error means the op failed: refused, errored or answered wrongly. A refuted
// prove also returns its wire witness.
func (se *session) do(ctx context.Context, w *workload, o *op) (*odclient.Witness, error) {
	switch o.kind {
	case opProve:
		v, err := se.c.Prove(ctx, o.schema, o.text)
		if err != nil {
			return nil, err
		}
		if v.Implied != o.implied {
			return nil, fmt.Errorf("prove %s %q: implied=%v, oracle says %v", o.schema, o.text, v.Implied, o.implied)
		}
		if !v.Implied && v.Witness == nil {
			return nil, fmt.Errorf("prove %s %q: refuted without a witness", o.schema, o.text)
		}
		return v.Witness, nil
	case opRewrite:
		res, err := se.c.Rewrite(ctx, o.schema, o.text)
		if err != nil {
			return nil, err
		}
		if res.Reduced != o.reduced {
			return nil, fmt.Errorf("rewrite %q: reduced to %s, oracle says %s", o.text, res.Reduced, o.reduced)
		}
	case opMutate:
		res, err := se.c.Mutate(ctx, o.schema, o.declare, o.remove)
		if err != nil {
			return nil, err
		}
		if m := res[o.schema]; m.Added != len(o.declare) || m.Removed != len(o.remove) {
			return nil, fmt.Errorf("mutate %s: added %d removed %d, oracle says %d and %d",
				o.schema, m.Added, m.Removed, len(o.declare), len(o.remove))
		}
	case opDiscover:
		sum, ods, err := se.discover(ctx, o.body)
		if err != nil {
			return nil, err
		}
		return nil, w.relations[o.relation].check(sum.Stats, ods)
	}
	return nil, nil
}

// snapshot asks the daemon to compact every durable shard now.
func (se *session) snapshot(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, se.base+"/snapshot", nil)
	if err != nil {
		return err
	}
	resp, err := se.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("snapshot: server answered %s", resp.Status)
	}
	return nil
}

// discoverSummary is the last NDJSON line of a POST /discover stream.
type discoverSummary struct {
	ODs   int                    `json:"ods"`
	Stats discover.PipelineStats `json:"stats"`
}

// discover posts one relation and reads the stream to its summary line.
func (se *session) discover(ctx context.Context, body []byte) (discoverSummary, []string, error) {
	var sum discoverSummary
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, se.base+"/discover", bytes.NewReader(body))
	if err != nil {
		return sum, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := se.hc.Do(req)
	if err != nil {
		return sum, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return sum, nil, fmt.Errorf("discover: server answered %s", resp.Status)
	}
	ods, done, err := readDiscoverStream(bufio.NewScanner(resp.Body), &sum)
	if err != nil {
		return sum, nil, err
	}
	if !done {
		return sum, nil, fmt.Errorf("discover: stream ended without a summary line")
	}
	return sum, ods, nil
}

func readDiscoverStream(sc *bufio.Scanner, sum *discoverSummary) (ods []string, done bool, err error) {
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		var line struct {
			OD    string           `json:"od"`
			Error string           `json:"error"`
			Stats *json.RawMessage `json:"stats"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return nil, false, fmt.Errorf("discover: bad stream line: %w", err)
		}
		switch {
		case line.Error != "":
			return nil, false, fmt.Errorf("discover: %s", line.Error)
		case line.OD != "":
			ods = append(ods, line.OD)
		case line.Stats != nil:
			if err := json.Unmarshal(sc.Bytes(), sum); err != nil {
				return nil, false, fmt.Errorf("discover: bad summary line: %w", err)
			}
			done = true
		}
	}
	return ods, done, sc.Err()
}

// check compares one discovery run with the reference run of set-up: the
// accepted set must be the same set (whose closure set-up showed equal to
// the sequential discoverer's) and the scheduler-independent counters must
// repeat.
func (r *relation) check(st discover.PipelineStats, ods []string) error {
	sort.Strings(ods)
	if len(ods) != len(r.wantODs) {
		return fmt.Errorf("discover %s: %d ODs accepted, reference run accepted %d", r.name, len(ods), len(r.wantODs))
	}
	for i := range ods {
		if ods[i] != r.wantODs[i] {
			return fmt.Errorf("discover %s: accepted %s, reference run accepted %s", r.name, ods[i], r.wantODs[i])
		}
	}
	if st.DataChecks != r.wantChecks {
		return fmt.Errorf("discover %s: %d data checks, reference run made %d", r.name, st.DataChecks, r.wantChecks)
	}
	return nil
}

// opTimeout bounds one request; nothing here takes a tenth of it.
const opTimeout = 30 * time.Second
