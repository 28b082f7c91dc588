// Package storeobs is the segment store's lifecycle journal: a bounded ring
// of the events that change what is on disk or what is served — segments
// created, sealed, compacted, unlinked or found orphaned, manifest swaps,
// ingest batches, snapshot pins and releases — with per-kind counters that
// reconcile against the store's own ingest and compaction counters.
//
// Reads are not journalled, nor counted by the store. The index counts and
// times every fetch it makes (its probe's index_fetches, its trace's fetch
// span and disk_read stage); a cold page cache shows as major page faults.
//
// A nil *Journal is a no-op sink, so a store or bulk writer with none
// attached pays one nil check per event.
package storeobs

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"sync"
	"time"

	"lbkeogh/internal/obs/ops"
)

// Storage event kinds. The vocabulary is closed so metric exposition can
// emit a stable, zero-filled lbkeogh_store_journal_events_total{kind=...}
// family that smoke tests reconcile against counter deltas.
const (
	EventSegmentCreated   = "segment_created"
	EventSegmentSealed    = "segment_sealed"
	EventSegmentCompacted = "segment_compacted"
	EventSegmentUnlinked  = "segment_unlinked"
	EventSegmentOrphaned  = "segment_orphaned"
	EventManifestSwap     = "manifest_swap"
	EventIngestBatch      = "ingest_batch"
	EventSnapshotPin      = "snapshot_pin"
	EventSnapshotRelease  = "snapshot_release"
)

// EventKinds lists the full journal vocabulary in exposition order.
var EventKinds = []string{
	EventSegmentCreated,
	EventSegmentSealed,
	EventSegmentCompacted,
	EventSegmentUnlinked,
	EventSegmentOrphaned,
	EventManifestSwap,
	EventIngestBatch,
	EventSnapshotPin,
	EventSnapshotRelease,
}

// Event is one storage-plane lifecycle event. Zero-valued fields are
// omitted from the JSONL form; Seq and Wall are assigned by Record.
type Event struct {
	Seq  int64     `json:"seq"`
	Wall time.Time `json:"wall"`
	Kind string    `json:"kind"`

	Segment    string `json:"segment,omitempty"`
	Generation int64  `json:"generation,omitempty"`
	Records    int64  `json:"records,omitempty"`
	Bytes      int64  `json:"bytes,omitempty"`
	// ReclaimedBytes is the net disk space a compaction returns once the
	// merged-away files are unlinked.
	ReclaimedBytes  int64   `json:"reclaimed_bytes,omitempty"`
	DurationSeconds float64 `json:"duration_seconds,omitempty"`
	Note            string  `json:"note,omitempty"`
}

// Journal is a bounded ring of storage events with per-kind counters,
// optionally mirrored to a structured logger. Safe for concurrent use; a
// nil *Journal is a no-op sink.
type Journal struct {
	logger *slog.Logger

	mu     sync.Mutex
	ring   []Event
	pos    int // next overwrite position once the ring is full
	seq    int64
	counts map[string]int64
}

// NewJournal builds a journal bounded to size events (default 512).
func NewJournal(size int, logger *slog.Logger) *Journal {
	if size <= 0 {
		size = 512
	}
	return &Journal{
		logger: logger,
		ring:   make([]Event, 0, size),
		counts: make(map[string]int64),
	}
}

// Record appends one event, assigning its sequence number and wall time
// (unless the caller stamped one), and mirrors it to the logger if set.
func (j *Journal) Record(ev Event) {
	if j == nil {
		return
	}
	if ev.Wall.IsZero() {
		ev.Wall = time.Now()
	}
	j.mu.Lock()
	j.seq++
	ev.Seq = j.seq
	if len(j.ring) < cap(j.ring) {
		j.ring = append(j.ring, ev)
	} else {
		j.ring[j.pos] = ev
		j.pos = (j.pos + 1) % cap(j.ring)
	}
	j.counts[ev.Kind]++
	j.mu.Unlock()
	if j.logger != nil {
		args := make([]any, 0, 16)
		args = append(args, "kind", ev.Kind, "seq", ev.Seq)
		if ev.Segment != "" {
			args = append(args, "segment", ev.Segment)
		}
		if ev.Generation != 0 {
			args = append(args, "generation", ev.Generation)
		}
		if ev.Records != 0 {
			args = append(args, "records", ev.Records)
		}
		if ev.Bytes != 0 {
			args = append(args, "bytes", ev.Bytes)
		}
		if ev.ReclaimedBytes != 0 {
			args = append(args, "reclaimed_bytes", ev.ReclaimedBytes)
		}
		if ev.DurationSeconds != 0 {
			args = append(args, "duration_seconds", ev.DurationSeconds)
		}
		if ev.Note != "" {
			args = append(args, "note", ev.Note)
		}
		j.logger.Info("storage event", args...)
	}
}

// Events returns the retained events, oldest first.
func (j *Journal) Events() []Event {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]Event, 0, len(j.ring))
	if len(j.ring) == cap(j.ring) {
		out = append(out, j.ring[j.pos:]...)
		out = append(out, j.ring[:j.pos]...)
	} else {
		out = append(out, j.ring...)
	}
	return out
}

// Counts returns the per-kind totals since the journal was created. Unlike
// the ring, counts never forget: they stay reconcilable against monotonic
// /metrics counters even after old events rotate out.
func (j *Journal) Counts() map[string]int64 {
	out := make(map[string]int64, len(EventKinds))
	if j == nil {
		return out
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	for k, v := range j.counts {
		out[k] = v
	}
	return out
}

// Len is the number of events recorded since creation (not the ring size).
func (j *Journal) Len() int64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.seq
}

// WriteJSONL streams the retained events, one JSON object per line, oldest
// first.
func (j *Journal) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, ev := range j.Events() {
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return nil
}

// WriteMetrics emits lbkeogh_store_journal_events_total, zero-filled over the
// whole kind vocabulary, in Prometheus text form. A nil journal writes
// nothing.
func (j *Journal) WriteMetrics(w io.Writer) {
	if j == nil {
		return
	}
	ops.WriteFamily(w, "lbkeogh_store_journal_events_total", "counter",
		"Storage event journal entries by kind; reconciles with the store's ingest/compaction counters.")
	counts := j.Counts()
	for _, kind := range EventKinds {
		fmt.Fprintf(w, "lbkeogh_store_journal_events_total{kind=%q} %d\n", kind, counts[kind])
	}
}
