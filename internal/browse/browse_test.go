package browse

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
	var buf [4]Entry
	h := Queue(buf[:0])
	var want []Entry
	for i := 0; i < 600; i++ {
		key := float64(rng.Intn(8))
		e := Subtree(key, rng.Intn(50))
		if rng.Intn(2) == 0 {
			e = Point(key, rng.Intn(50))
		}
		h.Push(e)
		want = append(want, e)
	}
	sort.SliceStable(want, func(a, b int) bool {
		ka, pa := want[a].Target()
		kb, pb := want[b].Target()
		switch {
		case want[a].Key != want[b].Key:
			return want[a].Key < want[b].Key
		case pa != pb:
			return !pa // subtree first
		case pa:
			return ka < kb // lower point id first
		default:
			return ka > kb // subtrees: any fixed order; the heap's is the larger node first
		}
	})
	var got []Entry
	for len(h) > 0 {
		got = append(got, h.Pop())
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("pop order\n got %v\nwant %v", got, want)
	}
}

func TestEntryTarget(t *testing.T) {
	for _, id := range []int{0, 1, 7, math.MaxInt32} {
		if ref, point := Point(1, id).Target(); ref != id || !point {
			t.Fatalf("Point(%d).Target() = %d, %v", id, ref, point)
		}
		if ref, point := Subtree(1, id).Target(); ref != id || point {
			t.Fatalf("Subtree(%d).Target() = %d, %v", id, ref, point)
		}
	}
}
