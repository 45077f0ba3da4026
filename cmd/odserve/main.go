// Command odserve runs the OD constraint catalog as a long-lived HTTP/JSON
// daemon — the theorem prover "efficient enough to be usable by a query
// optimizer" that the paper leaves as future work, packaged the way a DBMS
// would consume it: declare constraints once, then hit the memoized prover
// from many concurrent sessions. With a data directory the catalog is
// durable: every declare/remove is write-ahead logged and snapshotted, so a
// restarted daemon serves the identical constraint set and verdicts.
//
// Usage:
//
//	odserve -addr :8080
//	odserve -addr :8080 -ods constraints.txt -memo 65536
//	odserve -addr :8080 -data-dir /var/lib/odserve -snapshot-every 1024
//	odserve -addr :8080 -data-dir /var/lib/odserve -wal-segment-bytes 1048576 -wal-segment-records 4096
//	odserve -addr :8080 -data-dir /var/lib/odserve -fsync=false -shard-by-prefix
//	odserve -addr :8080 -prove-workers 8 -prove-timeout 2s
//	odserve -addr :8080 -discover-workers 8
//	odserve -addr :8080 -log-requests -pprof-addr localhost:6060
//	odserve -addr :8080 -data-dir /var/lib/odserve -backpressure-segments 8
//	odserve -addr :8081 -follow http://leader:8080 -data-dir /var/lib/odserve-replica -max-lag-records 64
//
// Endpoints (see internal/server):
//
//	curl -X POST localhost:8080/ods -d '{"statements": ["[month] -> [quarter]"], "schema": "sales"}'
//	curl localhost:8080/ods
//	curl -X POST localhost:8080/ods/batch -d '{"declare": ["[a] -> [b]", "[b] -> [c]"]}'
//	curl -X POST localhost:8080/prove -d '{"statement": "[year, quarter, month] <-> [year, month]"}'
//	curl -X POST localhost:8080/prove/batch -d '{"statements": ["[a] -> [c]", "[c] -> [a]"]}'
//	curl -X POST localhost:8080/rewrite -d '{"order": "[year, quarter, month]"}'
//	curl -X POST localhost:8080/discover -d '{"attrs": ["a", "b"], "rows": [[1, 10], [2, 20]], "declare": true}'
//	curl -X POST localhost:8080/snapshot
//	curl localhost:8080/generation
//	curl localhost:8080/healthz
//	curl localhost:8080/metrics
//
// The daemon shuts down gracefully on SIGINT/SIGTERM, draining in-flight
// requests and closing shard stores before exiting.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"odlib/internal/catalog"
	"odlib/internal/core"
	"odlib/internal/prover"
	"odlib/internal/replica"
	"odlib/internal/router"
	"odlib/internal/server"
	"odlib/internal/store"
)

func main() {
	if err := run(os.Args[1:], nil); err != nil {
		fmt.Fprintln(os.Stderr, "odserve:", err)
		os.Exit(1)
	}
}

// run starts the daemon and blocks until shutdown. When ready is non-nil it
// receives the bound address once the listener is up (used by tests to talk
// to a daemon on a kernel-assigned port).
func run(args []string, ready chan<- string) (err error) {
	fs := flag.NewFlagSet("odserve", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	odsFile := fs.String("ods", "", "file of OD statements to preload (skipped when the data dir recovered state)")
	memo := fs.Int("memo", catalog.DefaultMemoCapacity, "stored verdicts per shard, implied and refuted together")
	maxAttrs := fs.Int("maxattrs", prover.DefaultMaxAttrs, "attribute limit per implication question")
	drain := fs.Duration("drain", 10*time.Second, "graceful shutdown timeout")
	dataDir := fs.String("data-dir", "", "root of per-shard WAL+snapshot state; empty runs in-memory")
	snapshotEvery := fs.Int("snapshot-every", 1024, "nudge the background compactor after this many WAL records per shard; 0 = manual (POST /snapshot) only")
	fsync := fs.Bool("fsync", true, "fsync every WAL group commit before acknowledging")
	segmentBytes := fs.Int64("wal-segment-bytes", store.DefaultSegmentBytes, "seal and rotate the active WAL segment at this size; <0 disables size-based rotation")
	segmentRecords := fs.Int("wal-segment-records", 0, "seal and rotate the active WAL segment after this many records; 0 = size-based only")
	shardByPrefix := fs.Bool("shard-by-prefix", false, "derive shard keys from attribute-name prefixes (before the first underscore)")
	proveWorkers := fs.Int("prove-workers", runtime.GOMAXPROCS(0), "goroutines per pattern search; 1 = sequential")
	provePool := fs.Int("prove-pool", runtime.GOMAXPROCS(0), "extra search goroutines allowed across ALL concurrent proves (shared pool); 0 = every search runs inline, <0 = unbounded per-search fan-out")
	proveTimeout := fs.Duration("prove-timeout", 0, "server-side bound on each prove/rewrite search; 0 = unbounded")
	discoverWorkers := fs.Int("discover-workers", 0, "default validation parallelism for POST /discover runs; 0 = GOMAXPROCS")
	backpressure := fs.Int("backpressure-segments", 0, "reject declares with 429 when a shard's compaction lag reaches this many sealed WAL segments; 0 = off")
	logRequests := fs.Bool("log-requests", false, "log one structured line per request (method, path, status, shard, tier, duration)")
	pprofAddr := fs.String("pprof-addr", "", "serve net/http/pprof on this separate address (e.g. localhost:6060); empty = off")
	follow := fs.String("follow", "", "run as a read-only follower tailing this leader URL (e.g. http://leader:8080)")
	pollInterval := fs.Duration("poll-interval", replica.DefaultPollInterval, "follower: leader poll cadence")
	maxLagRecords := fs.Int("max-lag-records", 0, "follower: refuse proves when trailing the leader by more than this many WAL records; 0 = serve at any lag")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *follow != "" && *odsFile != "" {
		return fmt.Errorf("-ods cannot be combined with -follow: a follower's constraints come from its leader")
	}

	// The telemetry registry is built before the router so every layer's
	// hooks thread into the router's options; the shared search pool bounds
	// total spawned search goroutines across all concurrent proves.
	tel := server.NewTelemetry()
	var pool *prover.Pool
	if *provePool >= 0 {
		pool = prover.NewPool(*provePool)
	}
	catOpts := []catalog.Option{
		catalog.WithMemoCapacity(*memo),
		catalog.WithMaxAttrs(*maxAttrs),
		catalog.WithWorkers(*proveWorkers),
	}
	catOpts = append(catOpts, tel.CatalogOptions(pool)...)

	rt, err := router.Open(router.Options{
		DataDir: *dataDir,
		Store: store.Options{
			Fsync:          *fsync,
			SnapshotEvery:  *snapshotEvery,
			SegmentBytes:   *segmentBytes,
			SegmentRecords: *segmentRecords,
			Telemetry:      tel.StoreTelemetry(),
		},
		Catalog:              catOpts,
		ShardByPrefix:        *shardByPrefix,
		BackpressureSegments: *backpressure,
		Telemetry:            tel.RouterTelemetry(),
		Follower:             *follow != "",
		MaxLagRecords:        *maxLagRecords,
	})
	if err != nil {
		return err
	}
	tel.ObserveRouter(rt, pool)
	// One close on every exit path, reporting its error when nothing else
	// already failed.
	defer func() {
		if cerr := rt.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("closing shard stores: %w", cerr)
		}
	}()
	logRecovery(rt)

	var tailer *replica.Tailer
	if *follow != "" {
		var terr error
		tailer, terr = replica.New(replica.Options{
			Leader:       *follow,
			Router:       rt,
			PollInterval: *pollInterval,
		})
		if terr != nil {
			return terr
		}
		tailer.Start()
		defer tailer.Close()
		log.Printf("following leader %s (poll every %v, max lag %d records)", *follow, *pollInterval, *maxLagRecords)
	}

	if *odsFile != "" {
		n, skipped, err := preload(rt, *odsFile)
		if err != nil {
			return err
		}
		if skipped {
			log.Printf("skipping preload of %s: data dir recovered a non-empty catalog", *odsFile)
		} else {
			log.Printf("preloaded %d ODs from %s", n, *odsFile)
		}
	}

	srvOpts := []server.Option{
		server.WithProveTimeout(*proveTimeout),
		server.WithTelemetry(tel),
		server.WithDiscoverWorkers(*discoverWorkers),
		server.WithDiscoverPool(pool),
	}
	if *follow != "" {
		srvOpts = append(srvOpts, server.WithLeader(*follow))
	}
	if *logRequests {
		srvOpts = append(srvOpts, server.WithAccessLog(slog.New(slog.NewTextHandler(os.Stderr, nil))))
	}

	// pprof lives on its own listener and mux so profiling is never exposed
	// on the serving port — bind it to localhost (or a firewalled interface)
	// only.
	if *pprofAddr != "" {
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			return fmt.Errorf("pprof listener: %w", err)
		}
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		psrv := &http.Server{Handler: pmux, ReadHeaderTimeout: 5 * time.Second}
		go func() {
			if perr := psrv.Serve(pln); perr != nil && !errors.Is(perr, http.ErrServerClosed) {
				log.Printf("pprof server: %v", perr)
			}
		}()
		defer psrv.Close()
		log.Printf("pprof listening on %s", pln.Addr())
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	srv := &http.Server{
		Handler:           server.New(rt, srvOpts...),
		ReadHeaderTimeout: 5 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	log.Printf("odserve listening on %s", ln.Addr())
	if ready != nil {
		ready <- ln.Addr().String()
	}

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	log.Printf("shutting down, draining for up to %v", *drain)
	if tailer != nil {
		// Stop replicating before draining: the signal may have reached the
		// leader too, and its drain waits on every connection we keep open.
		tailer.Close()
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// logRecovery reports what the router found on disk, one line per shard.
func logRecovery(rt *router.Router) {
	for name, st := range rt.Stats() {
		if st.Store == nil {
			continue
		}
		rec := st.Store.Recovery
		display := name
		if display == router.DefaultShard {
			display = "(default)"
		}
		log.Printf("shard %s recovered: %d ODs from snapshot seq %d, %d WAL records replayed, %d torn bytes truncated",
			display, rec.SnapshotODs, rec.SnapshotSeq, rec.Replayed, rec.TornBytes)
	}
}

// preload declares the statements of a constraints file through the normal
// (logged) declare path, unless the data dir already recovered constraints —
// replaying the same preload on every boot would grow the WAL with
// duplicates for nothing.
func preload(rt *router.Router, path string) (int, bool, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, false, err
	}
	ods, err := core.ParseStatements(string(b))
	if err != nil {
		return 0, false, fmt.Errorf("%s: %w", path, err)
	}
	for _, st := range rt.Stats() {
		if st.Catalog.Declared > 0 {
			return 0, true, nil
		}
	}
	ops := make([]router.BatchOp, len(ods))
	for i, od := range ods {
		ops[i] = router.BatchOp{ODs: []core.OD{od}}
	}
	res, err := rt.ApplyBatch(ops)
	if err != nil {
		return 0, false, err
	}
	added := 0
	for _, m := range res {
		added += m.Added
	}
	return added, false, nil
}
