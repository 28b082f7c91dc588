package obs

import (
	"reflect"
	"testing"
)

// assertNilCallSafe invokes every exported method of nilPtr's type on the nil
// receiver with zero-valued arguments and fails if any call panics — the
// runtime counterpart of the nilsink static check, enumerated by reflection
// so newly added methods are covered automatically.
func assertNilCallSafe(t *testing.T, nilPtr any) {
	t.Helper()
	v := reflect.ValueOf(nilPtr)
	if v.Kind() != reflect.Pointer || !v.IsNil() {
		t.Fatalf("assertNilCallSafe wants a typed nil pointer, got %T", nilPtr)
	}
	typ := v.Type()
	if typ.NumMethod() == 0 {
		t.Fatalf("%s has no exported methods; wrong type?", typ)
	}
	for i := 0; i < typ.NumMethod(); i++ {
		m := typ.Method(i)
		args := []reflect.Value{v}
		for j := 1; j < m.Func.Type().NumIn(); j++ {
			args = append(args, reflect.Zero(m.Func.Type().In(j)))
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("(%s)(nil).%s panicked: %v", typ, m.Name, r)
				}
			}()
			m.Func.Call(args)
		}()
	}
}

func TestNilSearchStatsIsANoOpSink(t *testing.T) {
	assertNilCallSafe(t, (*SearchStats)(nil))
	var s *SearchStats
	s.AddCounts(&Counts{Comparisons: 1, Rotations: 3, WedgePrunedMembers: 5}, &[MaxPruneLevels]int64{2: 1})
	if got := s.Snapshot(); !reflect.DeepEqual(got, Snapshot{}) {
		t.Fatalf("nil SearchStats.Snapshot() = %+v, want zero", got)
	}
	if got := s.Steps(); got != 0 {
		t.Fatalf("nil SearchStats.Steps() = %d, want 0", got)
	}
}

func TestNilHistogramIsANoOpSink(t *testing.T) {
	assertNilCallSafe(t, (*Histogram)(nil))
	var h *Histogram
	h.Observe(12)
	if got := h.Count(); got != 0 {
		t.Fatalf("nil Histogram.Count() = %d, want 0", got)
	}
	if got := h.Buckets(); got != nil {
		t.Fatalf("nil Histogram.Buckets() = %v, want nil", got)
	}
}
