package lint

// This file is the project's static-analysis contract: the global lock
// ranking, the blessed context roots, the scheduler-independent stat
// packages, and the metric naming discipline. Changing an invariant here
// must go with the code change that relaxes or tightens it — the
// configuration is reviewed as code because it is the spec the analyzers
// enforce.

// DefaultLockOrder is the documented global mutex acquisition order.
// Lower rank is acquired first; a goroutine holding a lock may only take
// locks of strictly higher rank.
//
//	Router.mu → Router.pollMu → Store.compactMu → FollowerStore.mu
//	  → Store.ioMu → Store.mu
//
// The segment log under Store and FollowerStore (store.segLog) has no lock
// of its own: Store.mu or FollowerStore.mu guards it, and a router shard
// has none: the committer applies under the catalog's own lock. The ranks
// are spaced
// so a future lock can slot between neighbors without renumbering
// everything. Every sync.Mutex/RWMutex field of an analyzed package needs a
// rank, and every key below must name a lock or function that exists: the
// analyzer reports both kinds of drift.
var DefaultLockOrder = LockOrderConfig{
	Ranks: map[string]int{
		"odlib/internal/router.Router.mu":       10,
		"odlib/internal/router.Router.pollMu":   15,
		"odlib/internal/store.Store.compactMu":  30,
		"odlib/internal/store.FollowerStore.mu": 55,
		"odlib/internal/store.Store.ioMu":       60,
		"odlib/internal/store.Store.mu":         70,
	},
	// Cross-package call summaries: what the store's entry points may
	// acquire, as seen from the router.
	Acquires: map[string][]string{
		"odlib/internal/store.Store.AppendBatch": {"odlib/internal/store.Store.mu"},
		"odlib/internal/store.Store.Stats":       {"odlib/internal/store.Store.mu"},
		"odlib/internal/store.Store.CompactNow": {
			"odlib/internal/store.Store.compactMu",
			"odlib/internal/store.Store.ioMu",
			"odlib/internal/store.Store.mu",
		},
		"odlib/internal/store.Store.Close":                   {"odlib/internal/store.Store.ioMu", "odlib/internal/store.Store.mu"},
		"odlib/internal/store.FollowerStore.Next":            {"odlib/internal/store.FollowerStore.mu"},
		"odlib/internal/store.FollowerStore.NoteLeader":      {"odlib/internal/store.FollowerStore.mu"},
		"odlib/internal/store.FollowerStore.Ingest":          {"odlib/internal/store.FollowerStore.mu"},
		"odlib/internal/store.FollowerStore.TruncateTail":    {"odlib/internal/store.FollowerStore.mu"},
		"odlib/internal/store.FollowerStore.Seal":            {"odlib/internal/store.FollowerStore.mu"},
		"odlib/internal/store.FollowerStore.SealOpen":        {"odlib/internal/store.FollowerStore.mu"},
		"odlib/internal/store.FollowerStore.InstallSnapshot": {"odlib/internal/store.FollowerStore.mu"},
		"odlib/internal/store.FollowerStore.Stats":           {"odlib/internal/store.FollowerStore.mu"},
		"odlib/internal/store.FollowerStore.Close":           {"odlib/internal/store.FollowerStore.mu"},
	},
	Packages: []string{"odlib/internal/store", "odlib/internal/router"},
}

// DefaultCtxFlow blesses the functions allowed to mint fresh contexts:
// the ctx-less compatibility wrappers (each is a one-line delegation to its
// *Ctx twin; rewrite's FD-asking entry points and the planner's have no
// such twin — they take a ctx), the facade's ctx-less discovery entry
// point (odlib.DiscoverODs runs discover.Pipeline, which takes one), the
// replica tailer's own poll goroutine, and the client pipeliner's flush (the
// batch is shared work, deliberately detached from any single caller's
// context).
var DefaultCtxFlow = CtxFlowConfig{
	Bless: map[string]bool{
		"odlib.DiscoverODs":                                true,
		"odlib/internal/catalog.Catalog.ImpliesWitness":    true,
		"odlib/internal/catalog.Catalog.ImpliesAllWitness": true,
		"odlib/internal/catalog.Catalog.ReduceOrder":       true,
		"odlib/internal/prover.Prover.Implies":             true,
		"odlib/internal/prover.Prover.ImpliesWitness":      true,
		"odlib/internal/prover.Prover.ImpliesAll":          true,
		"odlib/internal/rewrite.ReduceOrder":               true,
		"odlib/internal/rewrite.Equivalent":                true,
		"odlib/internal/rewrite.Covers":                    true,
		"odlib/internal/replica.Tailer.run":                true,
		"odlib/pkg/odclient.pipeliner.flush":               true,
	},
}

// DefaultWallTime names the packages whose stats are CI-gated against
// golden values and therefore must not read the wall clock.
var DefaultWallTime = WallTimeConfig{
	Packages: []string{"odlib/internal/discover", "odlib/internal/prover"},
}

// DefaultMetricName is the telemetry naming contract from the /metrics PR:
// odserve_* on the server registry, odclient_* through the client's
// registry interface, snake_case throughout, and only the established
// label keys.
var DefaultMetricName = MetricNameConfig{
	Receivers: map[string]bool{
		"odlib/internal/metrics.Registry":    true,
		"odlib/pkg/odclient.MetricsRegistry": true,
	},
	Prefixes: []string{"odserve_", "odclient_"},
	LabelKeys: map[string]bool{
		"route":  true,
		"method": true,
		"code":   true,
		"tier":   true,
		"shard":  true,
	},
}

// DefaultAnalyzers builds the project's analyzer set with the default
// configuration. A fresh slice per call: analyzers carry per-run state.
func DefaultAnalyzers() []*Analyzer {
	return []*Analyzer{
		LockOrder(DefaultLockOrder),
		CtxFlow(DefaultCtxFlow),
		WallTime(DefaultWallTime),
		MetricName(DefaultMetricName),
		ErrCmp(),
	}
}
