package server

// This file holds the online store-mutation endpoints, available only when
// the server fronts a segment store (Config.Store): /v1/ingest appends rows
// and /v1/compact merges small segments, both committing with an atomic
// manifest/snapshot swap that in-flight searches never observe mid-change.

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"time"
)

// IngestRequest is the /v1/ingest body: a batch of series, all the store's
// series length (or, into an empty store, any one shared length ≥ 2, which
// fixes it). Labels optionally carries one label per row; absent labels
// default to each row's global ID.
type IngestRequest struct {
	Series [][]float64 `json:"series"`
	Labels []int64     `json:"labels,omitempty"`
}

// IngestResponse reports the committed append.
type IngestResponse struct {
	FirstID    int64   `json:"first_id"` // global ID of the first appended row
	Count      int     `json:"count"`
	Generation int64   `json:"generation"` // manifest generation now serving
	Records    int     `json:"records"`    // store rows after the append
	ElapsedMS  float64 `json:"elapsed_ms"`
}

// CompactRequest is the /v1/compact body. MinRecords is the "small segment"
// threshold: runs of at least two consecutive segments each under it are
// merged. Zero (or omitted) merges everything into one segment.
type CompactRequest struct {
	MinRecords int `json:"min_records,omitempty"`
}

// CompactResponse reports the compaction outcome.
type CompactResponse struct {
	Merged     int     `json:"merged"` // segments merged away (0: nothing to do)
	Generation int64   `json:"generation"`
	Segments   int     `json:"segments"` // live segments after
	ElapsedMS  float64 `json:"elapsed_ms"`
}

// mutationEndpoint wraps a store-mutation handler with the checks and
// accounting every mutation shares: the request prologue (POST-only, 503
// while draining), 409 without a store, the in-flight mutation gauge
// (surfaced by /readyz as "ingesting"), and one RED observation + log line
// per terminal outcome.
func (s *Server) mutationEndpoint(ep string, body func(w http.ResponseWriter, r *http.Request, finish func(status int, msg string, attrs ...any))) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		rq, ok := s.begin(w, r, ep)
		if !ok {
			return
		}
		if s.store == nil {
			writeError(w, http.StatusConflict, "server is not store-backed: %s requires -segments mode", r.URL.Path)
			rq.finish(http.StatusConflict, "refused: no store")
			return
		}
		s.mutationsIn.Add(1)
		defer s.mutationsIn.Add(-1)
		body(w, r, rq.finish)
	}
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	s.mutationEndpoint("ingest", func(w http.ResponseWriter, r *http.Request, finish func(int, string, ...any)) {
		var req IngestRequest
		dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 256<<20))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, "bad request body: %v", err)
			finish(http.StatusBadRequest, "bad request", "error", err.Error())
			return
		}
		if len(req.Series) == 0 {
			writeError(w, http.StatusBadRequest, "series must carry at least one row")
			finish(http.StatusBadRequest, "bad request", "error", "empty series")
			return
		}
		if req.Labels != nil && len(req.Labels) != len(req.Series) {
			writeError(w, http.StatusBadRequest, "%d labels for %d series", len(req.Labels), len(req.Series))
			finish(http.StatusBadRequest, "bad request", "error", "label count mismatch")
			return
		}
		start := time.Now()
		firstID, err := s.store.Ingest(req.Series, req.Labels)
		if err != nil {
			// Shape errors (length mismatch, too-short rows) are the client's;
			// anything the store could not commit is ours.
			writeError(w, http.StatusBadRequest, "ingest: %v", err)
			finish(http.StatusBadRequest, "ingest failed", "error", err.Error())
			return
		}
		s.invalidateIntrospection()
		resp := IngestResponse{
			FirstID:    int64(firstID),
			Count:      len(req.Series),
			Generation: s.store.Generation(),
			Records:    s.store.Len(),
			ElapsedMS:  float64(time.Since(start).Microseconds()) / 1000,
		}
		writeJSON(w, http.StatusOK, resp)
		finish(http.StatusOK, "ingest committed", "rows", resp.Count, "first_id", resp.FirstID, "generation", resp.Generation)
	})(w, r)
}

func (s *Server) handleCompact(w http.ResponseWriter, r *http.Request) {
	s.mutationEndpoint("compact", func(w http.ResponseWriter, r *http.Request, finish func(int, string, ...any)) {
		var req CompactRequest
		dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 1<<20))
		dec.DisallowUnknownFields()
		// An empty body is allowed: it selects the merge-everything default.
		if err := dec.Decode(&req); err != nil && !errors.Is(err, io.EOF) {
			writeError(w, http.StatusBadRequest, "bad request body: %v", err)
			finish(http.StatusBadRequest, "bad request", "error", err.Error())
			return
		}
		start := time.Now()
		merged, err := s.store.Compact(int64(req.MinRecords))
		if err != nil {
			writeError(w, http.StatusInternalServerError, "compact: %v", err)
			finish(http.StatusInternalServerError, "compact failed", "error", err.Error())
			return
		}
		if merged > 0 {
			s.invalidateIntrospection()
		}
		resp := CompactResponse{
			Merged:     merged,
			Generation: s.store.Generation(),
			Segments:   len(s.store.Stats().Segments),
			ElapsedMS:  float64(time.Since(start).Microseconds()) / 1000,
		}
		writeJSON(w, http.StatusOK, resp)
		finish(http.StatusOK, "compact done", "merged", resp.Merged, "segments", resp.Segments, "generation", resp.Generation)
	})(w, r)
}
