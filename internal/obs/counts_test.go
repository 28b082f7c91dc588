package obs

import (
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// outcomeBuckets are the counters that dispose of rotations: the right-hand
// side of the Reconciles identity.
var outcomeBuckets = map[string]bool{
	"FullDistEvals": true, "EarlyAbandons": true, "WedgePrunedMembers": true,
	"WedgeLeafLBPrunes": true, "FFTRejectedMembers": true, "CancelledMembers": true,
}

var snakeCase = regexp.MustCompile(`^[a-z][a-z0-9]*(_[a-z0-9]+)*$`)

// TestCountsFieldGuard walks Counts by reflection and holds every site that
// must know about a counter to the struct's own field list, so a counter
// added without one of them fails here rather than in review.
func TestCountsFieldGuard(t *testing.T) {
	typ := reflect.TypeOf(Counts{})
	if typ.NumField() != numCounters {
		t.Fatalf("Counts has %d fields, numCounters = %d", typ.NumField(), numCounters)
	}
	var distinct Counts
	for i := 0; i < typ.NumField(); i++ {
		if typ.Field(i).Type.Kind() != reflect.Int64 {
			t.Fatalf("Counts.%s is %s, want int64", typ.Field(i).Name, typ.Field(i).Type)
		}
		reflect.ValueOf(&distinct).Elem().Field(i).SetInt(int64(100 + i))
	}

	// One metrics-table row per field, keyed by its JSON tag, visited in order.
	var keys []string
	distinct.Each(func(key, help string, v int64) {
		i := len(keys)
		keys = append(keys, key)
		if i >= typ.NumField() {
			return
		}
		f := typ.Field(i)
		if tag, _, _ := strings.Cut(f.Tag.Get("json"), ","); key != tag {
			t.Errorf("metrics row %d has key %q, want %s's JSON tag %q", i, key, f.Name, tag)
		}
		if !snakeCase.MatchString(key) {
			t.Errorf("metrics key %q is not snake_case", key)
		}
		if help == "" {
			t.Errorf("metrics row %q has no help text", key)
		}
		if v != int64(100+i) {
			t.Errorf("Each(%q) = %d, want %s = %d", key, v, f.Name, 100+i)
		}
	})
	if len(keys) != typ.NumField() {
		t.Errorf("Each visited %d rows for %d fields", len(keys), typ.NumField())
	}
	seen := map[string]bool{}
	for _, k := range keys {
		if seen[k] {
			t.Errorf("metrics key %q appears twice", k)
		}
		seen[k] = true
	}

	// AddCounts flushes every field (and the levels, which it clears), twice
	// over to show it adds rather than stores, and leaves its source alone.
	var flushed SearchStats
	levels := [MaxPruneLevels]int64{0: 2, MaxPruneLevels - 1: 5}
	src := distinct
	flushed.AddCounts(&src, &levels)
	flushed.AddCounts(&src, &levels)
	if got := flushed.Counts(); got != distinct.Add(distinct) || src != distinct {
		t.Errorf("AddCounts twice = %+v (source %+v), want 2 x %+v", got, src, distinct)
	}
	if got := flushed.Snapshot().WedgePrunesByLevel; len(got) != MaxPruneLevels || got[0] != 2 || got[MaxPruneLevels-1] != 5 {
		t.Errorf("AddCounts levels = %v, want 2 at the root and 5 in the last slot, once", got)
	}
	if levels != [MaxPruneLevels]int64{} {
		t.Errorf("AddCounts left levels %v behind", levels)
	}
	// The slots the record reads by name address the fields they are named for.
	if got, want := flushed.Steps(), 2*distinct.Steps; got != want {
		t.Errorf("Steps() = %d, want %d", got, want)
	}
	if got, want := flushed.Comparisons(), 2*distinct.Comparisons; got != want {
		t.Errorf("Comparisons() = %d, want %d", got, want)
	}
	flushed.RecordKChange(1, 2)
	if got, want := flushed.Counts().KChanges, 2*distinct.KChanges+1; got != want {
		t.Errorf("KChanges after RecordKChange = %d, want %d", got, want)
	}
	if got := flushed.Snapshot().KTrajectory; len(got) != 1 || got[0].Comparison != 2*distinct.Comparisons {
		t.Errorf("RecordKChange stamped %+v, want comparison %d", got, 2*distinct.Comparisons)
	}

	// Add and Sub cover every field.
	if got := (Counts{}).Add(distinct); got != distinct {
		t.Errorf("0 + c = %+v, want %+v", got, distinct)
	}
	if got := distinct.Add(distinct).Sub(distinct); got != distinct {
		t.Errorf("c + c - c = %+v, want %+v", got, distinct)
	}
	if got := distinct.Sub(distinct); got != (Counts{}) {
		t.Errorf("c - c = %+v, want zero", got)
	}

	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		// The field alone, flushed, reaches Counts() and Snapshot(), and Reset
		// clears it. (KChanges has a second way in, RecordKChange, which
		// TestKTrajectoryBounded holds to the counter.)
		var one Counts
		reflect.ValueOf(&one).Elem().Field(i).SetInt(3)
		var st SearchStats
		st.AddCounts(&one, nil)
		if got := reflect.ValueOf(st.Counts()).Field(i).Int(); got != 3 {
			t.Errorf("Counts().%s = %d after AddCounts of 3", name, got)
		}
		if got := reflect.ValueOf(st.Snapshot().Counts).Field(i).Int(); got != 3 {
			t.Errorf("Snapshot().%s = %d after AddCounts of 3", name, got)
		}
		st.Reset()
		if got := st.Counts(); got != (Counts{}) {
			t.Errorf("Reset left %+v behind after bumping %s", got, name)
		}

		// Only Rotations and the outcome buckets take part in the identity.
		inIdentity := name == "Rotations" || outcomeBuckets[name]
		if one.Reconciles() == inIdentity {
			t.Errorf("Counts{%s: 3}.Reconciles() = %v; in the identity: %v", name, one.Reconciles(), inIdentity)
		}
	}
}
