package odclient

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// pipeliner is the client-side half of the /prove/batch amortization:
// individual Prove/Declare/Remove calls from many goroutines accumulate in
// one background loop for up to a window (or a statement budget) and flush
// as per-schema batch requests — one round trip, one shard snapshot, one WAL
// group commit for the whole burst, exactly the economy the batch endpoints
// give server-side, now available to callers that cannot batch by hand
// because their statements originate in independent optimizer sessions.
//
// The jobs channel is unbuffered on purpose: an enqueue blocks until the
// loop has the job in hand, so stop() can never strand a submitted job in a
// channel buffer — everything accepted is flushed or answered ErrClosed.
type pipeliner struct {
	c        *Client
	window   time.Duration
	maxBatch int

	jobs chan any // *proveJob | *mutJob
	quit chan struct{}
	done chan struct{}
	// flights tracks dispatched flush goroutines: a slow batch round trip
	// must not block the accumulation loop (head-of-line latency for the
	// next window), so flushes run concurrently and stop() drains them.
	flights sync.WaitGroup
}

type proveOutcome struct {
	v   Verdict
	err error
}

type proveJob struct {
	schema, statement, key string
	res                    chan proveOutcome // buffered 1: flush never blocks on a gone caller
}

type mutJob struct {
	schema          string
	declare, remove []string
	res             chan error // buffered 1
}

func newPipeliner(c *Client, window time.Duration, maxBatch int) *pipeliner {
	p := &pipeliner{
		c:        c,
		window:   window,
		maxBatch: maxBatch,
		jobs:     make(chan any),
		quit:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	go p.loop()
	return p
}

// stop drains: pending jobs are dispatched, the loop exits, and every
// in-flight flush completes. Enqueues racing the close are answered
// ErrClosed.
func (p *pipeliner) stop() {
	close(p.quit)
	<-p.done
	p.flights.Wait()
}

// prove submits one statement and blocks until its batch flushes or ctx
// dies. An abandoning caller stops waiting; the statement stays in the batch
// and its verdict lands in the cache for the next asker.
func (p *pipeliner) prove(ctx context.Context, schema, statement, key string) (Verdict, error) {
	j := &proveJob{schema: schema, statement: statement, key: key, res: make(chan proveOutcome, 1)}
	select {
	case p.jobs <- j:
	case <-p.quit:
		return Verdict{}, ErrClosed
	case <-ctx.Done():
		return Verdict{}, ctx.Err()
	}
	select {
	case o := <-j.res:
		return o.v, o.err
	case <-ctx.Done():
		return Verdict{}, ctx.Err()
	}
}

// mutate submits declares/removes and blocks until the flushed mutation is
// durable (the batch response arrived) or ctx dies.
func (p *pipeliner) mutate(ctx context.Context, schema string, declare, remove []string) error {
	j := &mutJob{schema: schema, declare: declare, remove: remove, res: make(chan error, 1)}
	select {
	case p.jobs <- j:
	case <-p.quit:
		return ErrClosed
	case <-ctx.Done():
		return ctx.Err()
	}
	select {
	case err := <-j.res:
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (p *pipeliner) loop() {
	defer close(p.done)
	timer := time.NewTimer(p.window)
	if !timer.Stop() {
		<-timer.C
	}
	var proves []*proveJob
	var muts []*mutJob
	pending := 0 // statements accumulated, across both job kinds
	disarm := func() {
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
	}
	flush := func() {
		if pending == 0 {
			return
		}
		pr, mu := proves, muts
		proves, muts, pending = nil, nil, 0
		p.flights.Add(1)
		go func() {
			defer p.flights.Done()
			p.flush(pr, mu)
		}()
	}
	for {
		var timerC <-chan time.Time
		if pending > 0 {
			timerC = timer.C
		}
		select {
		case j := <-p.jobs:
			if pending == 0 {
				disarm()
				timer.Reset(p.window)
			}
			switch j := j.(type) {
			case *proveJob:
				proves = append(proves, j)
				pending++
			case *mutJob:
				muts = append(muts, j)
				pending += len(j.declare) + len(j.remove)
			}
			if pending >= p.maxBatch {
				disarm()
				flush()
			}
		case <-timerC:
			flush()
		case <-p.quit:
			flush()
			return
		}
	}
}

// flush sends the accumulated batch: mutations first (a caller that
// declared then proved in sequence already has its declare durable, but
// within one window the friendly order is constraints before questions),
// then proves — each grouped by schema, one request per schema per kind.
// Flush requests carry the client's request timeout, not any caller's
// context: the batch is shared work.
func (p *pipeliner) flush(proves []*proveJob, muts []*mutJob) {
	ctx, cancel := context.WithTimeout(context.Background(), p.c.o.requestTimeout)
	defer cancel()

	if len(muts) > 0 {
		type mgroup struct {
			declare, remove []string
			jobs            []*mutJob
		}
		groups := map[string]*mgroup{}
		var order []string
		for _, j := range muts {
			g, ok := groups[j.schema]
			if !ok {
				g = &mgroup{}
				groups[j.schema] = g
				order = append(order, j.schema)
			}
			g.declare = append(g.declare, j.declare...)
			g.remove = append(g.remove, j.remove...)
			g.jobs = append(g.jobs, j)
		}
		for _, schema := range order {
			g := groups[schema]
			p.c.stats.pipelineBatches.Add(1)
			p.c.stats.pipelineStatements.Add(uint64(len(g.declare) + len(g.remove)))
			obs(p.c.met.flushBatches, 1)
			obs(p.c.met.flushStatements, float64(len(g.declare)+len(g.remove)))
			_, err := p.c.mutateWire(ctx, schema, g.declare, g.remove)
			for _, j := range g.jobs {
				j.res <- err
			}
		}
	}

	if len(proves) > 0 {
		type pgroup struct {
			statements []string
			jobs       []*proveJob
		}
		groups := map[string]*pgroup{}
		var order []string
		for _, j := range proves {
			g, ok := groups[j.schema]
			if !ok {
				g = &pgroup{}
				groups[j.schema] = g
				order = append(order, j.schema)
			}
			g.statements = append(g.statements, j.statement)
			g.jobs = append(g.jobs, j)
		}
		for _, schema := range order {
			g := groups[schema]
			p.c.stats.pipelineBatches.Add(1)
			p.c.stats.pipelineStatements.Add(uint64(len(g.statements)))
			obs(p.c.met.flushBatches, 1)
			obs(p.c.met.flushStatements, float64(len(g.statements)))
			results, err := p.c.proveBatchWire(ctx, schema, g.statements)
			for i, j := range g.jobs {
				if err != nil {
					j.res <- proveOutcome{err: err}
					continue
				}
				r := results[i]
				if r.Error != "" {
					j.res <- proveOutcome{err: fmt.Errorf("odclient: prove %q: %s", j.statement, r.Error)}
					continue
				}
				p.c.cachePut(j.key, r.Verdict)
				j.res <- proveOutcome{v: r.Verdict}
			}
		}
	}
}
