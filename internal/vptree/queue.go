package vptree

// queue is Search's min-heap of subtrees and points, the queue of best-first
// "distance browsing" (Hjaltason & Samet). Its order is total: key
// ascending; at an equal key a subtree before a point, and of two points the
// lower id first. Start one on a stack buffer (queue(buf[:0])): a selective
// search never leaves it, and a wide one allocates only when the heap
// doubles, not per entry.
type queue []entry

// entry is one queued subtree or point: key is the subtree's admissible
// bound or the point's own bound; ref is a subtree's node index, or ^id for
// point id.
type entry struct {
	key float64
	ref int
}

func subtree(key float64, node int) entry { return entry{key: key, ref: node} }

func point(key float64, id int) entry { return entry{key: key, ref: ^id} }

// target returns the node index of a subtree entry (isPoint false) or the id
// of a point entry (isPoint true).
func (e entry) target() (ref int, isPoint bool) {
	if e.ref < 0 {
		return ^e.ref, true
	}
	return e.ref, false
}

// before is the queue's order: a subtree's ref is non-negative and a point's
// is ^id, so "the larger ref first" puts subtrees before points and the
// lower id first among points.
func before(a, b entry) bool {
	return a.key < b.key || !(b.key < a.key) && a.ref > b.ref
}

func (h *queue) push(e entry) {
	s := *h
	if len(s) == cap(s) {
		// Doubling keeps a wide frontier to a handful of allocations;
		// append alone grows by a quarter past 256 entries.
		s = append(make(queue, 0, 2*cap(s)+16), s...)
	}
	s = append(s, e)
	*h = s
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 2
		if !before(s[i], s[parent]) {
			break
		}
		s[parent], s[i] = s[i], s[parent]
		i = parent
	}
}

// pop removes and returns the first entry; the queue must not be empty.
func (h *queue) pop() entry {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	*h = s
	for i := 0; ; {
		first := i
		if l := 2*i + 1; l < n && before(s[l], s[first]) {
			first = l
		}
		if r := 2*i + 2; r < n && before(s[r], s[first]) {
			first = r
		}
		if first == i {
			return top
		}
		s[i], s[first] = s[first], s[i]
		i = first
	}
}
