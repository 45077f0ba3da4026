package odclient

// MetricsRegistry is the minimal metric-construction surface the client
// exports its counters through: ask for a counter or histogram by name, get
// back an observation function. It is satisfied structurally by
// odlib/internal/metrics.Registry (odserve's own registry — handy when the
// client runs in the same process) and trivially adaptable to any other
// metrics library. Every series is created at client construction, so a
// scrape sees the full set at zero before traffic.
type MetricsRegistry interface {
	// Counter registers (or looks up) a monotonic counter and returns its
	// add function; calls with the same name must return an equivalent add.
	Counter(name, help string) func(float64)
	// Histogram registers a fixed-bucket histogram and returns its observe
	// function.
	Histogram(name, help string, buckets []float64) func(float64)
}

// WithMetrics exports the client's cumulative counters — the same numbers
// Stats() reports — through reg as odclient_* series, plus a histogram of
// pipelined flush sizes. Nil disables (the default).
func WithMetrics(reg MetricsRegistry) Option {
	return func(o *options) { o.metrics = reg }
}

// flushSizeBuckets sizes the flush-statements histogram: powers of two up to
// the largest batch a sane pipeliner window accumulates.
var flushSizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

// clientMetrics holds the observation functions; all fields are nil when no
// registry is hooked, making every observation a nil check and nothing more.
type clientMetrics struct {
	proves           func(float64)
	cacheHits        func(float64)
	coalesceJoins    func(float64)
	httpRequests     func(float64)
	retries          func(float64)
	generationPolls  func(float64)
	flushBatches     func(float64)
	flushStatements  func(float64) // histogram: statements per flushed batch
	replicaReads     func(float64)
	replicaFailovers func(float64)
}

func newClientMetrics(reg MetricsRegistry) clientMetrics {
	if reg == nil {
		return clientMetrics{}
	}
	return clientMetrics{
		proves:           reg.Counter("odclient_proves_total", "Prove calls made through this client."),
		cacheHits:        reg.Counter("odclient_cache_hits_total", "Prove calls answered from the generation-keyed verdict cache."),
		coalesceJoins:    reg.Counter("odclient_coalesce_joins_total", "Prove calls that joined another caller's in-flight request."),
		httpRequests:     reg.Counter("odclient_http_requests_total", "HTTP requests actually sent (each retry attempt is one)."),
		retries:          reg.Counter("odclient_retries_total", "Re-attempts after retryable failures."),
		generationPolls:  reg.Counter("odclient_generation_polls_total", "GET /generation revalidations issued by the cache's staleness bound."),
		flushBatches:     reg.Counter("odclient_flush_batches_total", "Pipelined batch requests flushed."),
		flushStatements:  reg.Histogram("odclient_flush_statements", "Statements carried per pipelined flush request.", flushSizeBuckets),
		replicaReads:     reg.Counter("odclient_replica_reads_total", "Reads routed to a configured replica."),
		replicaFailovers: reg.Counter("odclient_replica_failovers_total", "Replica reads that fell over to the leader."),
	}
}

// obs invokes an observation function when one is installed.
func obs(f func(float64), v float64) {
	if f != nil {
		f(v)
	}
}
