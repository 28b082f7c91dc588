package storeobs

import (
	"strings"
	"testing"

	"lbkeogh/internal/obs/expofmt"
)

func TestJournalRingAndCounts(t *testing.T) {
	j := NewJournal(4, nil)
	for i := 0; i < 10; i++ {
		j.Record(Event{Kind: EventIngestBatch, Records: int64(i)})
	}
	evs := j.Events()
	if len(evs) != 4 {
		t.Fatalf("ring retained %d events, want 4", len(evs))
	}
	for i, ev := range evs {
		if want := int64(7 + i); ev.Seq != want {
			t.Fatalf("event %d has seq %d, want %d (oldest-first)", i, ev.Seq, want)
		}
		if ev.Wall.IsZero() {
			t.Fatalf("event %d has no wall time", i)
		}
	}
	if got := j.Counts()[EventIngestBatch]; got != 10 {
		t.Fatalf("counts survived rotation: got %d, want 10", got)
	}
	if j.Len() != 10 {
		t.Fatalf("Len = %d, want 10", j.Len())
	}

	var sb strings.Builder
	if err := j.WriteJSONL(&sb); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("JSONL has %d lines, want 4", len(lines))
	}
	if !strings.Contains(lines[0], `"kind":"ingest_batch"`) {
		t.Fatalf("JSONL line missing kind: %s", lines[0])
	}
}

func TestJournalNilSafe(t *testing.T) {
	var j *Journal
	j.Record(Event{Kind: EventManifestSwap})
	if j.Events() != nil || j.Len() != 0 {
		t.Fatal("nil journal is not empty")
	}
	if len(j.Counts()) != 0 {
		t.Fatal("nil journal has counts")
	}
}

// A store with no journal attached scrapes and dumps as nothing.
func TestNilJournalWritesNothing(t *testing.T) {
	var j *Journal
	j.Record(Event{Kind: EventManifestSwap})
	var sb strings.Builder
	j.WriteMetrics(&sb)
	if err := j.WriteJSONL(&sb); err != nil || sb.Len() != 0 {
		t.Fatalf("nil journal wrote %q (err %v)", sb.String(), err)
	}
}

func TestWriteMetricsParses(t *testing.T) {
	j := NewJournal(0, nil)
	j.Record(Event{Kind: EventSegmentCreated, Segment: "seg-000001.lbseg"})

	var sb strings.Builder
	j.WriteMetrics(&sb)
	exp, err := expofmt.Parse(sb.String())
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, sb.String())
	}
	if got := exp.Counter("lbkeogh_store_journal_events_total", map[string]string{"kind": "segment_created"}); got != 1 {
		t.Fatalf("journal counter = %d, want 1", got)
	}
	// The full kind vocabulary is zero-filled.
	for _, kind := range EventKinds {
		if _, ok := exp.Value("lbkeogh_store_journal_events_total", map[string]string{"kind": kind}); !ok {
			t.Fatalf("journal family missing kind %q", kind)
		}
	}
	if len(exp.Types) != 1 {
		t.Fatalf("exposition has %d families, want the journal's one", len(exp.Types))
	}
}
