package vptree

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"lbkeogh/internal/ts"
)

// The heap pops every entry in the documented order — key, then subtree
// before point, then the lower point id — on tie-heavy integer keys.
func TestQueuePopsInOrder(t *testing.T) {
	rng := ts.NewRand(1)
	var buf [4]entry
	h := queue(buf[:0])
	var want []entry
	for i := 0; i < 600; i++ {
		key := float64(rng.Intn(8))
		e := subtree(key, rng.Intn(50))
		if rng.Intn(2) == 0 {
			e = point(key, rng.Intn(50))
		}
		h.push(e)
		want = append(want, e)
	}
	sort.SliceStable(want, func(a, b int) bool {
		ka, pa := want[a].target()
		kb, pb := want[b].target()
		switch {
		case want[a].key != want[b].key:
			return want[a].key < want[b].key
		case pa != pb:
			return !pa // subtree first
		case pa:
			return ka < kb // lower point id first
		default:
			return ka > kb // subtrees: any fixed order; the heap's is the larger node first
		}
	})
	var got []entry
	for len(h) > 0 {
		got = append(got, h.pop())
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("pop order\n got %v\nwant %v", got, want)
	}
}

func TestEntryTarget(t *testing.T) {
	for _, id := range []int{0, 1, 7, math.MaxInt32} {
		if ref, isPoint := point(1, id).target(); ref != id || !isPoint {
			t.Fatalf("point(%d).target() = %d, %v", id, ref, isPoint)
		}
		if ref, isPoint := subtree(1, id).target(); ref != id || isPoint {
			t.Fatalf("subtree(%d).target() = %d, %v", id, ref, isPoint)
		}
	}
}
