package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"

	"odlib/internal/core"
	"odlib/internal/discover"
)

// discoverRequest carries a relation instance inline and the discovery
// bounds. Rows are positional over Attrs; cell values are JSON numbers or
// strings, and each column must be uniformly numeric or uniformly textual
// (a numeric column is compared as integers while every cell is an integer
// within ±2⁵³, as floats otherwise). Declare feeds every accepted OD back
// into the target shard through the batch-declare path once discovery
// completes.
type discoverRequest struct {
	Schema        string       `json:"schema,omitempty"`
	Attrs         []string     `json:"attrs"`
	Rows          instanceRows `json:"rows"`
	MaxLHS        int          `json:"maxLHS,omitempty"`
	MaxRHS        int          `json:"maxRHS,omitempty"`
	MaxAttrs      int          `json:"maxAttrs,omitempty"`
	Workers       int          `json:"workers,omitempty"`
	KeepRedundant bool         `json:"keepRedundant,omitempty"`
	Declare       bool         `json:"declare,omitempty"`
}

// discoverSummary is the final NDJSON line of a discovery stream.
type discoverSummary struct {
	Constants []string               `json:"constants"`
	ODs       int                    `json:"ods"`
	Stats     discover.PipelineStats `json:"stats"`
	Declared  *mutationJSON          `json:"declared,omitempty"`
}

// discoverOD and discoverError are a discovery stream's other lines, one
// field each, encoded as the one-key objects they are without building a
// map per line.
type discoverOD struct {
	OD string `json:"od"`
}

type discoverError struct {
	Error string `json:"error"`
}

// maxPooledBytes is the largest buffer a discovery request gives back to its
// pools, 1 MiB: a body or a block of integer cells past it, which only a
// relation of over 100,000 cells needs, is left to the collector rather than
// kept for the next request.
const maxPooledBytes = 1 << 20

// maxReserve is how much of a declared Content-Length the body buffer
// reserves before the bytes arrive, 256 KiB: a body of ordinary size is read
// in one allocation, and one that declares more than it sends costs no more
// than this. Past it the buffer grows with the bytes read.
const maxReserve = 256 << 10

var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// relationOf validates the inline instance against its schema and builds
// the relation from the typed columns the rows were decoded into.
func relationOf(req *discoverRequest) (*core.Relation, error) {
	if len(req.Attrs) == 0 {
		return nil, fmt.Errorf("no attributes given")
	}
	attrs := make(core.List, len(req.Attrs))
	for i, a := range req.Attrs {
		attrs[i] = core.Attribute(a)
	}
	t := &req.Rows
	if t.n > 0 && t.width != len(attrs) {
		return nil, fmt.Errorf("rows have %d cells, schema has %d attributes", t.width, len(attrs))
	}
	if t.n == 0 {
		return core.NewRelation(attrs)
	}
	return core.NewRelationColumns(attrs, t.n, t.columns())
}

// handleDiscover runs the parallel discovery pipeline over an inline
// relation and streams NDJSON: one {"od": ...} line per accepted dependency
// as its lattice level commits, then one summary line with the run's stats
// — and, with "declare": true, the mutation result of feeding the accepted
// set back into the shard catalog through the batch-declare path.
//
// The stream begins before the outcome is known, so errors past the header
// arrive as an {"error": ...} line terminating the stream rather than a
// status code.
func (s *Server) handleDiscover(w http.ResponseWriter, r *http.Request) {
	// The body is read whole, then scanned once (rows.go): a relation is
	// most of a request, and a streaming decoder reads it three times. The
	// buffer is pooled, and goes back as soon as the body is decoded: every
	// name and cell decoded from it is a copy.
	body := bodyPool.Get().(*bytes.Buffer)
	body.Reset()
	body.Grow(int(min(max(r.ContentLength, 0), maxReserve)) + bytes.MinRead)
	_, err := body.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	var req discoverRequest
	if err == nil {
		err = decodeDiscoverBytes(body.Bytes(), &req)
	}
	if body.Cap() <= maxPooledBytes {
		bodyPool.Put(body)
	}
	// The integer cells go back last, once the pipeline has run, the summary
	// line is written and the relation's rank views are released.
	defer req.Rows.release()
	if err != nil {
		writeBodyError(w, err)
		return
	}
	opts := discover.Options{
		MaxLHS:        req.MaxLHS,
		MaxRHS:        req.MaxRHS,
		MaxAttrs:      req.MaxAttrs,
		KeepRedundant: req.KeepRedundant,
	}
	// The size bounds are checked here, not left to the pipeline: once
	// NDJSON is flowing the status code is spent.
	if err := opts.CheckSize(len(req.Attrs)); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	rel, err := relationOf(&req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	defer rel.Release()
	if req.Declare {
		// Refuse before the stream starts: once NDJSON is flowing the status
		// code is spent, and a follower can never honor the declare-back.
		if err := s.rt.ReadOnlyError("discovered ODs must be declared on the leader"); err != nil {
			s.writeRouterError(w, err)
			return
		}
	}
	workers := req.Workers
	if workers <= 0 {
		workers = s.discoverWorkers
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	emit := func(v any) {
		_ = enc.Encode(v)
		if flusher != nil {
			flusher.Flush()
		}
	}

	ctx, cancel := s.proveCtx(r)
	defer cancel()
	res, err := discover.Pipeline(ctx, rel, discover.PipelineOptions{
		Options: opts,
		Workers: workers,
		Pool:    s.discoverPool,
		OnFound: func(od core.OD) {
			emit(discoverOD{od.String()})
		},
	})
	if err != nil {
		emit(discoverError{err.Error()})
		return
	}
	if s.tel != nil {
		s.tel.observeDiscover(res.Stats)
	}

	summary := discoverSummary{
		Constants: make([]string, 0, len(res.Constants)),
		ODs:       len(res.ODs),
		Stats:     res.Stats,
	}
	for _, a := range res.Constants {
		summary.Constants = append(summary.Constants, string(a))
	}
	if req.Declare && len(res.ODs) > 0 {
		m, err := s.rt.Declare(req.Schema, res.ODs)
		if err != nil {
			emit(discoverError{fmt.Sprintf("declaring discovered ODs: %s", err)})
			return
		}
		noteShard(w, m.Schema)
		mj := mutationOf(m)
		summary.Declared = &mj
	}
	emit(summary)
}
