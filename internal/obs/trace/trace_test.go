package trace

import (
	"testing"

	"lbkeogh/internal/obs"
)

func TestRecorderNesting(t *testing.T) {
	r := NewRecorder("search", 16)
	root := r.Begin(StageSearch, -1)
	probe := r.Begin(StageVPProbe, -1)
	r.Emit(StageFetch, 3, r.Now(), 0)
	r.End(probe)
	comp2 := r.Begin(StageComparison, 4)
	r.EndAttrs(comp2, obs.Counts{Comparisons: 1})
	r.End(root)

	spans := r.Spans()
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(spans))
	}
	if spans[root].Parent != -1 {
		t.Errorf("root parent = %d, want -1", spans[root].Parent)
	}
	if spans[probe].Parent != int32(root) {
		t.Errorf("probe parent = %d, want %d", spans[probe].Parent, root)
	}
	if spans[2].Stage != StageFetch || spans[2].Parent != int32(probe) {
		t.Errorf("emitted span = %+v, want fetch under probe %d", spans[2], probe)
	}
	if spans[comp2].Parent != int32(root) {
		t.Errorf("comparison parent = %d, want %d (stack must have popped)", spans[comp2].Parent, root)
	}
	if spans[comp2].Attrs.Comparisons != 1 {
		t.Errorf("EndAttrs did not attach attributes: %+v", spans[comp2].Attrs)
	}
	if spans[comp2].Ref != 4 {
		t.Errorf("ref = %d, want 4", spans[comp2].Ref)
	}
}

func TestRecorderUnwindsMismatchedEnds(t *testing.T) {
	r := NewRecorder("x", 8)
	outer := r.Begin(StageSearch, -1)
	r.Begin(StageComparison, 0) // never explicitly ended
	r.End(outer)                // must unwind past the open comparison
	if next := r.Begin(StageComparison, 1); r.Spans()[next].Parent != -1 {
		t.Errorf("after unwinding, new span parent = %d, want -1", r.Spans()[next].Parent)
	}
}

func TestRecorderDropCounting(t *testing.T) {
	r := NewRecorder("x", 2)
	a := r.Begin(StageSearch, -1)
	b := r.Begin(StageComparison, 0)
	c := r.Begin(StageComparison, 1) // over capacity
	if c != -1 {
		t.Fatalf("saturated Begin = %d, want -1", c)
	}
	r.Emit(StageFetch, 0, 0, 1) // also dropped
	r.End(c)                    // no-op, must not panic
	r.End(b)
	r.End(a)
	if got := r.Dropped(); got != 2 {
		t.Errorf("Dropped = %d, want 2", got)
	}
	if len(r.Spans()) != 2 {
		t.Errorf("got %d spans, want 2", len(r.Spans()))
	}
}

func TestNilRecorderIsNoop(t *testing.T) {
	var r *Recorder
	if id := r.Begin(StageSearch, -1); id != -1 {
		t.Fatalf("nil Begin = %d, want -1", id)
	}
	r.End(-1)
	r.EndAttrs(0, obs.Counts{})
	r.Emit(StageFetch, 0, 0, 1)
	r.Drop()
	if r.Full() {
		t.Error("a nil recorder is absent, not full")
	}
	if r.Now() != 0 || r.Dropped() != 0 || r.Spans() != nil || r.Label() != "" || !r.Anchor().IsZero() {
		t.Error("nil recorder accessors must return zero values")
	}
}

func TestStageNames(t *testing.T) {
	seen := map[string]Stage{}
	for s := Stage(0); s < NumStages; s++ {
		name := s.String()
		if name == "" || name == "unknown" {
			t.Errorf("stage %d has no name", s)
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("stages %d and %d share the name %q", prev, s, name)
		}
		seen[name] = s
	}
	if NumStages.String() != "unknown" {
		t.Error("out-of-range stage must print unknown")
	}
}
