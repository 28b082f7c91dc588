// Package browse is the priority queue of best-first "distance browsing"
// (Hjaltason & Samet): one min-heap holds both the subtrees a tree search has
// still to open and the points it has bounded but not yet handed to its
// caller, so points leave the queue in exact ascending-bound order however
// the tree split them. The VP-tree and the R-tree searches share it.
//
// The order is total: key ascending; at an equal key a subtree before a
// point, and of two points the lower id first. Opening every subtree of a
// key before the points of that key is what makes a search's point sequence
// the sorted one — provided no subtree key exceeds the key of a point inside
// it, which each tree guarantees for its own bound.
package browse

// Entry is one queued subtree or point.
type Entry struct {
	// Key is the subtree's admissible bound, or the point's own bound.
	Key float64
	ref int // a subtree's node index, or ^id for point id
}

// Subtree queues node under its bound.
func Subtree(key float64, node int) Entry { return Entry{Key: key, ref: node} }

// Point queues point id under its bound.
func Point(key float64, id int) Entry { return Entry{Key: key, ref: ^id} }

// Target returns the node index of a subtree entry (point false) or the id
// of a point entry (point true).
func (e Entry) Target() (ref int, point bool) {
	if e.ref < 0 {
		return ^e.ref, true
	}
	return e.ref, false
}

// before is the queue's order. A subtree's ref is non-negative and a point's
// is ^id, so "the larger ref first" puts subtrees before points and the
// lower id first among points.
func before(a, b Entry) bool {
	return a.Key < b.Key || !(b.Key < a.Key) && a.ref > b.ref
}

// Queue is a min-heap of entries in the order above. Start one on a stack
// buffer (Queue(buf[:0])): a selective search never leaves it, and a wide
// one allocates only when the heap doubles, not per entry.
type Queue []Entry

// Push adds e.
func (h *Queue) Push(e Entry) {
	s := *h
	if len(s) == cap(s) {
		// Doubling keeps a wide frontier to a handful of allocations;
		// append alone grows by a quarter past 256 entries.
		s = append(make(Queue, 0, 2*cap(s)+16), s...)
	}
	s = append(s, e)
	*h = s
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !before(s[i], s[parent]) {
			break
		}
		s[parent], s[i] = s[i], s[parent]
		i = parent
	}
}

// Pop removes and returns the first entry; the queue must not be empty.
func (h *Queue) Pop() Entry {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	*h = s
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		first := i
		if l < n && before(s[l], s[first]) {
			first = l
		}
		if r < n && before(s[r], s[first]) {
			first = r
		}
		if first == i {
			break
		}
		s[i], s[first] = s[first], s[i]
		i = first
	}
	return top
}
