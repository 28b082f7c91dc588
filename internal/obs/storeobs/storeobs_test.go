package storeobs

import (
	"strings"
	"testing"
	"time"

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

func TestSegmentAccountColdWarm(t *testing.T) {
	r := NewRecorder(Config{})
	a := r.Segment("seg-000001.lbseg", 3*PageSize)

	if a.Covered(0, 512) {
		t.Fatal("untouched range reports covered")
	}
	a.ObserveRead(ColRaw, 0, 512, 1000)
	if !a.Covered(0, 512) {
		t.Fatal("touched range not covered")
	}
	if a.Covered(PageSize, 8) {
		t.Fatal("page 1 covered before any touch")
	}
	// Same page again: warm, no new pages.
	a.ObserveRead(ColRaw, 512, 512, 1000)
	// Straddle pages 1-2: cold, two new pages.
	a.ObserveRead(ColFFT, PageSize+PageSize/2, PageSize, 1000)

	tot := r.Totals()
	if tot.FaultedPages != 3 {
		t.Fatalf("faulted pages = %d, want 3", tot.FaultedPages)
	}
	if want := int64(512 + 512 + PageSize); tot.RequestedBytes != want {
		t.Fatalf("requested bytes = %d, want %d", tot.RequestedBytes, want)
	}
	wantAmp := float64(3*PageSize) / float64(512+512+PageSize)
	if amp := tot.ReadAmplification(); amp < wantAmp-1e-9 || amp > wantAmp+1e-9 {
		t.Fatalf("read amplification = %v, want %v", amp, wantAmp)
	}

	segs := r.Segments()
	if len(segs) != 1 {
		t.Fatalf("got %d segments, want 1", len(segs))
	}
	s := segs[0]
	if s.Reads[ColRaw] != 2 || s.Reads[ColFFT] != 1 {
		t.Fatalf("per-column reads = %v", s.Reads)
	}
	if s.TouchedPages != 3 || s.Pages != 3 {
		t.Fatalf("touched/total pages = %d/%d, want 3/3", s.TouchedPages, s.Pages)
	}
	if s.LastAccess.IsZero() {
		t.Fatal("no last-access time")
	}

	r.DropSegment("seg-000001.lbseg")
	if len(r.Segments()) != 0 {
		t.Fatal("dropped segment still listed")
	}
}

func TestSegmentAccountIdempotentRegistration(t *testing.T) {
	r := NewRecorder(Config{})
	a := r.Segment("x.lbseg", PageSize)
	if r.Segment("x.lbseg", PageSize) != a {
		t.Fatal("re-registration returned a different account")
	}
}

func TestObserveFetchAndLinkTrace(t *testing.T) {
	r := NewRecorder(Config{SlowFetchThreshold: time.Hour})
	r.ObserveFetch(true, 5*time.Millisecond) // cold: pins an exemplar slot
	r.ObserveFetch(false, time.Microsecond)  // warm, fast: no slot
	tot := r.Totals()
	if tot.ColdFetches != 1 || tot.WarmFetches != 1 {
		t.Fatalf("cold/warm = %d/%d, want 1/1", tot.ColdFetches, tot.WarmFetches)
	}

	var sb strings.Builder
	r.WriteMetrics(&sb)
	if strings.Contains(sb.String(), "trace_id") {
		t.Fatal("exemplar emitted before any trace was linked")
	}

	r.LinkTrace(42)
	sb.Reset()
	r.WriteMetrics(&sb)
	if !strings.Contains(sb.String(), `# {trace_id="42"}`) {
		t.Fatal("linked exemplar not emitted")
	}
}

func TestWriteMetricsParses(t *testing.T) {
	r := NewRecorder(Config{})
	a := r.Segment("seg-000001.lbseg", 2*PageSize)
	a.ObserveRead(ColRaw, 0, 1024, 2500)
	a.ObserveRead(ColPAA, PageSize, 64, 900)
	r.ObserveFetch(true, 3*time.Millisecond)
	r.ObserveFetch(false, 40*time.Microsecond)
	r.LinkTrace(7)
	r.Journal().Record(Event{Kind: EventSegmentCreated, Segment: "seg-000001.lbseg"})

	var sb strings.Builder
	r.WriteMetrics(&sb)
	exp, err := expofmt.Parse(sb.String())
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, sb.String())
	}
	if got := exp.Counter("lbkeogh_store_fetches_total", map[string]string{"temperature": "cold"}); got != 1 {
		t.Fatalf("cold fetches = %d, want 1", got)
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
	if v, ok := exp.Value("lbkeogh_store_read_amplification", nil); !ok || v <= 0 {
		t.Fatalf("read_amplification = %v, want > 0", v)
	}
}

func TestNilRecorderIsNoop(t *testing.T) {
	var r *Recorder
	r.ObserveFetch(true, time.Second)
	r.LinkTrace(9)
	r.Segment("x", 100).ObserveRead(ColRaw, 0, 8, 1)
	r.DropSegment("x")
	r.Journal().Record(Event{Kind: EventManifestSwap})
	if r.Totals() != (Totals{}) {
		t.Fatal("nil recorder accumulated totals")
	}
	var sb strings.Builder
	r.WriteMetrics(&sb)
	if sb.Len() != 0 {
		t.Fatal("nil recorder wrote metrics")
	}
	if s := r.Segments(); s != nil {
		t.Fatal("nil recorder listed segments")
	}
}
