package server

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"odlib/internal/router"
	"odlib/internal/store"
)

// maxSegmentChunk caps one GET /segments/{shard}/{n} response. Followers fetch
// in resumable ranged reads, so a modest chunk bounds leader memory per
// in-flight replica without bounding segment size.
const maxSegmentChunk = 4 << 20

// WithLeader records the leader's advertised URL. A follower includes it in
// every 421/503 refusal body so clients can redirect mutations (and over-lag
// proves) without out-of-band configuration.
func WithLeader(url string) Option {
	return func(s *Server) { s.leader = url }
}

// segmentsResponse is the replication feed's table of contents: per shard, the
// leader's applied watermark and generation, its snapshot cut, and every live
// WAL segment. The default shard's empty-string key is spelled by
// router.Alias ("@default") — as on the metric labels, in the per-segment
// URL path and on disk.
type segmentsResponse struct {
	Shards map[string]router.ShardSegments `json:"shards"`
}

// handleSegments serves GET /segments: the shipping metadata a follower polls.
func (s *Server) handleSegments(w http.ResponseWriter, r *http.Request) {
	state := s.rt.SegmentState()
	out := segmentsResponse{Shards: make(map[string]router.ShardSegments, len(state))}
	for name, ss := range state {
		out.Shards[router.Alias(name)] = ss
	}
	writeJSON(w, http.StatusOK, out)
}

// handleSegment serves GET /segments/{shard}/{item}. A numeric item streams
// raw frame bytes of that WAL segment from ?offset= (clamped to the committed
// size; at most ?limit= bytes, itself capped at maxSegmentChunk), with the
// segment's current committed size and sealed flag in X-OD-Segment-Size /
// X-OD-Segment-Sealed headers so the follower can tell "caught up" from
// "sealed behind me". The literal item "snapshot" serves the shard's durable
// snapshot JSON — the bootstrap path when compaction already deleted the
// segments a follower still needs.
func (s *Server) handleSegment(w http.ResponseWriter, r *http.Request) {
	schema := router.Unalias(r.PathValue("shard"))
	noteShard(w, schema)
	item := r.PathValue("item")
	if item == "snapshot" {
		snap, ok, err := s.rt.SegmentSnapshot(schema)
		if err != nil {
			s.writeRouterError(w, err)
			return
		}
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Errorf("shard %q has no snapshot", router.Alias(schema)))
			return
		}
		writeJSON(w, http.StatusOK, snap)
		return
	}
	index, err := strconv.ParseUint(item, 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad segment index %q", item))
		return
	}
	q := r.URL.Query()
	var off int64
	if v := q.Get("offset"); v != "" {
		if off, err = strconv.ParseInt(v, 10, 64); err != nil || off < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad offset %q", v))
			return
		}
	}
	limit := int64(maxSegmentChunk)
	if v := q.Get("limit"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n <= 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad limit %q", v))
			return
		}
		if n < limit {
			limit = n
		}
	}
	b, info, err := s.rt.ReadSegment(schema, index, off, limit)
	if err != nil {
		if errors.Is(err, store.ErrNoSegment) {
			writeError(w, http.StatusNotFound, err)
			return
		}
		s.writeRouterError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-OD-Segment-Size", strconv.FormatInt(info.Size, 10))
	w.Header().Set("X-OD-Segment-Sealed", strconv.FormatBool(info.Sealed))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b)
}

// maxLagOf reads the optional X-OD-Max-Lag-Records header: a client's own
// staleness bound, tighter than (never looser than) the follower's configured
// one. Absent or malformed means no client bound.
func maxLagOf(r *http.Request) int {
	v := r.Header.Get("X-OD-Max-Lag-Records")
	if v == "" {
		return 0
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return 0
	}
	return n
}
