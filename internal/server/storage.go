package server

// This file is the storage-plane report: /debug/storage answers the store's
// generation and live segments, the orphans found at open, and the tail of
// the storage event journal the process attached to the store
// (segment.DB.SetJournal), as JSON.

import (
	"net/http"

	"lbkeogh/internal/obs/storeobs"
	"lbkeogh/internal/segment"
)

// storageJournalTail bounds how many journal events the report carries (newest last); ?format=jsonl streams the full ring.
const storageJournalTail = 64

// StorageReport is the body of /debug/storage.
type StorageReport struct {
	Generation    int64                     `json:"generation"`
	Records       int64                     `json:"records"`
	Segments      []segment.ManifestSegment `json:"segments"`
	Orphans       []string                  `json:"orphans,omitempty"`
	JournalCounts map[string]int64          `json:"journal_counts"`
	// Journal is the tail of the event ring, oldest first.
	Journal []storeobs.Event `json:"journal"`
}

// buildStorageReport joins the store's stats with its journal.
func (s *Server) buildStorageReport() StorageReport {
	st := s.store.Stats()
	j := s.store.Journal()
	events := j.Events()
	if len(events) > storageJournalTail {
		events = events[len(events)-storageJournalTail:]
	}
	return StorageReport{
		Generation:    st.Generation,
		Records:       int64(st.Records),
		Segments:      st.Segments,
		Orphans:       st.Orphans,
		JournalCounts: j.Counts(),
		Journal:       events,
	}
}

// handleDebugStorage answers the StorageReport; ?format=jsonl streams the
// raw event journal instead, one JSON object per line (the same form
// shapeingest logs).
func (s *Server) handleDebugStorage(w http.ResponseWriter, r *http.Request) {
	if s.store == nil {
		writeError(w, http.StatusNotFound,
			"the storage report is not enabled (server has no segment store; run shapeserver with -segments)")
		return
	}
	if r.URL.Query().Get("format") == "jsonl" {
		w.Header().Set("Content-Type", "application/jsonl")
		s.store.Journal().WriteJSONL(w)
		return
	}
	writeJSON(w, http.StatusOK, s.buildStorageReport())
}
