package replica

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"odlib/internal/router"
	"odlib/internal/store"
)

// DefaultPollInterval is the leader poll cadence when Options leaves it zero.
const DefaultPollInterval = 250 * time.Millisecond

// DefaultMaxFetchBytes bounds one segment fetch when Options leaves it zero.
const DefaultMaxFetchBytes = 1 << 20

// maxBadFrameRetries bounds truncate-and-refetch cycles for one segment
// within one pass: transport corruption heals on refetch, but a leader whose
// segment file is genuinely corrupt would otherwise spin the tailer hot.
const maxBadFrameRetries = 3

// errNoSegment mirrors a leader 404 on a segment fetch: the segment was
// compacted away between the metadata poll and the fetch.
var errNoSegment = errors.New("replica: leader no longer has the segment")

// Options configures a Tailer.
type Options struct {
	// Leader is the leader's base URL (e.g. "http://10.0.0.1:8080").
	Leader string
	// Router is the follower-mode router to replay into.
	Router *router.Router
	// PollInterval is the metadata poll cadence; 0 = DefaultPollInterval.
	PollInterval time.Duration
	// Client issues the HTTP requests; nil uses a fresh http.Client. Tests
	// inject fault transports (torn bodies, dropped connections) here.
	Client *http.Client
	// MaxFetchBytes bounds one segment fetch; 0 = DefaultMaxFetchBytes.
	MaxFetchBytes int64
}

// Tailer drives one follower: poll the leader, fetch segment bytes, feed
// the router. Passes are serialized (Sync and the background loop never
// interleave fetches), and every pass's outcome lands in the router's poll
// status for /healthz and /metrics to report.
type Tailer struct {
	opt Options

	passMu sync.Mutex // one pass at a time

	started  bool
	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// New validates the options and returns an unstarted Tailer.
func New(opt Options) (*Tailer, error) {
	if opt.Router == nil || !opt.Router.IsFollower() {
		return nil, errors.New("replica: Options.Router must be a follower-mode router")
	}
	u, err := url.Parse(opt.Leader)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("replica: leader URL %q is not absolute", opt.Leader)
	}
	opt.Leader = strings.TrimRight(opt.Leader, "/")
	if opt.PollInterval <= 0 {
		opt.PollInterval = DefaultPollInterval
	}
	if opt.MaxFetchBytes <= 0 {
		opt.MaxFetchBytes = DefaultMaxFetchBytes
	}
	if opt.Client == nil {
		opt.Client = &http.Client{}
	}
	return &Tailer{opt: opt, stop: make(chan struct{}), done: make(chan struct{})}, nil
}

// Start launches the background tail loop. Call Close to stop it.
func (t *Tailer) Start() {
	t.started = true
	go t.run()
}

// Close stops the tail loop, waits for it to exit and drops the client's
// idle connections to the leader. Safe to call without Start and more than
// once. The connections matter to a leader that is draining at the same
// moment: one the transport dialed but never used looks new, not idle, to
// the leader's http.Server.Shutdown, which would wait five seconds on it.
func (t *Tailer) Close() {
	t.stopOnce.Do(func() { close(t.stop) })
	if t.started {
		select {
		case <-t.done:
		case <-time.After(5 * time.Second):
		}
	}
	t.opt.Client.CloseIdleConnections()
}

func (t *Tailer) run() {
	defer close(t.done)
	backoff := t.opt.PollInterval
	for {
		_, err := t.Pass(context.Background())
		if err != nil {
			// Exponential backoff on failures, capped at 2s: a dead leader
			// costs a connection attempt every couple of seconds, and a
			// recovered one is picked up within the same bound.
			backoff *= 2
			if backoff > 2*time.Second {
				backoff = 2 * time.Second
			}
		} else {
			backoff = t.opt.PollInterval
		}
		select {
		case <-t.stop:
			return
		case <-time.After(backoff):
		}
	}
}

// Sync runs passes until the follower has caught up with the leader state
// observed within one clean pass — every shard's applied watermark at the
// leader's applied seq — or ctx expires. Tests and promotion tooling use it;
// the background loop never needs it.
func (t *Tailer) Sync(ctx context.Context) error {
	for {
		meta, err := t.Pass(ctx)
		if err == nil {
			caught := true
			for name, ss := range meta.Shards {
				if _, _, _, watermark := t.opt.Router.FollowerNext(router.Unalias(name)); watermark < ss.AppliedSeq {
					caught = false
					break
				}
			}
			if caught {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			if err != nil {
				return fmt.Errorf("replica: sync: %w (last pass: %w)", ctx.Err(), err)
			}
			return fmt.Errorf("replica: sync: %w", ctx.Err())
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// segmentsResponse is the body of the leader's GET /segments.
type segmentsResponse struct {
	Shards map[string]router.ShardSegments `json:"shards"`
}

// Pass runs one full tail pass: poll metadata, record the leader's position
// per shard, then catch every shard up as far as the leader's current bytes
// allow. The outcome is recorded in the router's poll status.
func (t *Tailer) Pass(ctx context.Context) (segmentsResponse, error) {
	t.passMu.Lock()
	defer t.passMu.Unlock()
	meta, err := t.poll(ctx)
	if err == nil {
		// Wire keys (the default shard's alias) become local shard names here, once.
		shards := make(map[string]router.ShardSegments, len(meta.Shards))
		names := make([]string, 0, len(meta.Shards))
		for name, ss := range meta.Shards {
			local := router.Unalias(name)
			shards[local] = ss
			names = append(names, local)
		}
		sort.Strings(names)
		for _, name := range names {
			ss := shards[name]
			if nerr := t.opt.Router.NoteLeader(name, ss.AppliedSeq, ss.Generation); nerr != nil && err == nil {
				err = nerr
			}
		}
		for _, name := range names {
			if cerr := t.catchUp(ctx, name, shards[name]); cerr != nil && err == nil {
				err = cerr
			}
		}
	}
	t.opt.Router.NotePoll(err)
	return meta, err
}

func (t *Tailer) poll(ctx context.Context) (segmentsResponse, error) {
	var meta segmentsResponse
	err := t.getJSON(ctx, "/segments", &meta)
	return meta, err
}

// catchUp advances one shard to the leader's current bytes. ss is the
// shard's poll-time state; per-segment sizes refresh from fetch responses,
// so a pass drains even bytes appended after the poll.
func (t *Tailer) catchUp(ctx context.Context, name string, ss router.ShardSegments) error {
	rt := t.opt.Router
	// Per-segment view, refreshed by fetch responses.
	segs := make(map[uint64]store.SegmentInfo, len(ss.Segments))
	order := make([]uint64, 0, len(ss.Segments))
	for _, info := range ss.Segments {
		segs[info.Index] = info
		order = append(order, info.Index)
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	badFrames := 0
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		idx, size, open, watermark := rt.FollowerNext(name)
		need := watermark + 1
		if open {
			info, held := segs[idx]
			if !held {
				// The leader compacted the open segment away; every record
				// parsed from it is applied, so retire it and re-decide.
				if err := rt.FollowerSealOpen(name); err != nil {
					return err
				}
				continue
			}
			if size < info.Size {
				n, fresh, err := t.fetch(ctx, name, idx, size)
				if errors.Is(err, errNoSegment) {
					delete(segs, idx)
					continue
				}
				if errors.Is(err, store.ErrBadFrame) {
					if badFrames++; badFrames > maxBadFrameRetries {
						return fmt.Errorf("replica: shard %q segment %d keeps yielding bad frames: %w", name, idx, err)
					}
					continue
				}
				if err != nil {
					return err
				}
				segs[idx] = fresh
				if n == 0 && fresh.Size <= size {
					// Nothing more in this segment right now.
					if fresh.Sealed && size == fresh.Size {
						if err := rt.FollowerSeal(name, idx, size); err != nil {
							return err
						}
						continue
					}
					return nil
				}
				continue
			}
			if info.Sealed && size == info.Size {
				if err := rt.FollowerSeal(name, idx, size); err != nil {
					return err
				}
				continue
			}
			// Open segment fully fetched and still active on the leader:
			// this pass is done for the shard.
			return nil
		}
		// No open local segment: pick the leader segment holding `need`.
		var target *store.SegmentInfo
		for _, i := range order {
			info, held := segs[i]
			if !held || info.Records == 0 {
				continue
			}
			if info.FirstSeq <= need && need <= info.LastSeq {
				target = &info
				break
			}
		}
		if target == nil {
			if ss.SnapshotSeq >= need {
				// The records were compacted away; jump to the snapshot.
				if err := t.bootstrap(ctx, name); err != nil {
					return err
				}
				continue
			}
			// Caught up: need is past the leader's tail. (An empty active
			// segment may still grow; the next pass picks it up.)
			return nil
		}
		n, fresh, err := t.fetch(ctx, name, target.Index, 0)
		if errors.Is(err, errNoSegment) {
			delete(segs, target.Index)
			continue
		}
		if errors.Is(err, store.ErrBadFrame) {
			if badFrames++; badFrames > maxBadFrameRetries {
				return fmt.Errorf("replica: shard %q segment %d keeps yielding bad frames: %w", name, target.Index, err)
			}
			continue
		}
		if err != nil {
			return err
		}
		segs[target.Index] = fresh
		if n == 0 {
			// The metadata promised records here but the fetch yielded no
			// bytes — stale view; give up this pass rather than spin.
			return nil
		}
	}
}

// fetch pulls one chunk of segment bytes and feeds it to the router.
// Returns the byte count ingested and the segment's fresh leader-side info.
func (t *Tailer) fetch(ctx context.Context, name string, index uint64, off int64) (int, store.SegmentInfo, error) {
	u := fmt.Sprintf("%s/segments/%s/%d?offset=%d&limit=%d",
		t.opt.Leader, router.Alias(name), index, off, t.opt.MaxFetchBytes)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return 0, store.SegmentInfo{}, err
	}
	resp, err := t.opt.Client.Do(req)
	if err != nil {
		return 0, store.SegmentInfo{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		io.Copy(io.Discard, resp.Body)
		return 0, store.SegmentInfo{}, fmt.Errorf("%w: shard %q segment %d", errNoSegment, name, index)
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return 0, store.SegmentInfo{}, fmt.Errorf("replica: fetching %s: HTTP %d: %s", u, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	// A torn body (connection cut mid-transfer) surfaces as a read error
	// below OR as fewer bytes than the header promised; either way the bytes
	// read so far are fine to ingest — frames verify individually, and the
	// next fetch resumes at the new local size.
	body, readErr := io.ReadAll(io.LimitReader(resp.Body, t.opt.MaxFetchBytes))
	fresh := store.SegmentInfo{
		Index:  index,
		Size:   parseInt(resp.Header.Get("X-OD-Segment-Size")),
		Sealed: resp.Header.Get("X-OD-Segment-Sealed") == "true",
	}
	n := 0
	if len(body) > 0 {
		applied, err := t.opt.Router.FollowerIngest(name, index, off, body)
		if err != nil {
			return applied, fresh, err
		}
		n = len(body)
	}
	if readErr != nil {
		return n, fresh, fmt.Errorf("replica: reading segment body: %w", readErr)
	}
	return n, fresh, nil
}

// bootstrap installs the leader's current snapshot on the follower shard.
func (t *Tailer) bootstrap(ctx context.Context, name string) error {
	var snap store.Snapshot
	if err := t.getJSON(ctx, "/segments/"+router.Alias(name)+"/snapshot", &snap); err != nil {
		return err
	}
	// The open segment (if any) can never be completed — the leader dropped
	// its source; retire it so InstallSnapshot sees only sealed state.
	if err := t.opt.Router.FollowerSealOpen(name); err != nil {
		return err
	}
	return t.opt.Router.FollowerBootstrap(name, snap)
}

func (t *Tailer) getJSON(ctx context.Context, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, t.opt.Leader+path, nil)
	if err != nil {
		return err
	}
	resp, err := t.opt.Client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("replica: GET %s: HTTP %d: %s", path, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	return json.NewDecoder(io.LimitReader(resp.Body, 64<<20)).Decode(out)
}

func parseInt(s string) int64 {
	n, _ := strconv.ParseInt(s, 10, 64)
	return n
}
