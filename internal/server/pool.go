package server

import (
	"container/list"
	"encoding/binary"
	"hash/fnv"
	"math"
	"slices"
	"sync"

	"lbkeogh"
)

// QuerySpec identifies a compiled query for pooling: everything that goes
// into NewQuery. Two requests with the same spec can reuse the same query:
// its rotation set and, once a search has bought it, its wedge hierarchy —
// the O(n²) part of serving a query — and the early-abandoning steps its
// index probes have spent towards that purchase.
type QuerySpec struct {
	Measure string
	R       int
	Eps     float64
	Mirror  bool
	MaxDeg  *float64 // nil: unlimited
	Series  []float64
}

// Key hashes the spec (FNV-64a over the exact float bits; no collisions are
// assumed — see Pool) for use as the pool key.
func (sp QuerySpec) Key() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	writeU64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	h.Write([]byte(sp.Measure))
	h.Write([]byte{0})
	writeU64(uint64(int64(sp.R)))
	writeU64(math.Float64bits(sp.Eps))
	if sp.Mirror {
		writeU64(1)
	} else {
		writeU64(0)
	}
	if sp.MaxDeg != nil {
		writeU64(1)
		writeU64(math.Float64bits(*sp.MaxDeg))
	} else {
		writeU64(0)
	}
	writeU64(uint64(len(sp.Series)))
	for _, v := range sp.Series {
		writeU64(math.Float64bits(v))
	}
	return h.Sum64()
}

// Session is one pooled query. A checked-out session is owned exclusively by
// its request (a Query is single-goroutine); Spec is retained so an exact
// hash collision cannot silently serve the wrong rotation set.
type Session struct {
	Q    *lbkeogh.Query
	Spec QuerySpec
	key  uint64
	// repeated marks a session whose spec has come back: it has served a
	// hit, or it was built for a key the pool had recently evicted.
	repeated bool
}

// Pool is a pool of idle query sessions keyed by QuerySpec hash. Checkout
// pops the most recently used idle session for the spec (building a fresh
// one on miss); Checkin returns it. Repeated queries — the common serving
// pattern the paper's batch experiments simulate — skip the rotation matrix
// and wedge-tree build entirely.
//
// Over capacity, Checkin evicts the least recently used idle session whose
// spec has not repeated, and only when every idle session has repeated the
// least recently used of those. A stream of one-off specs therefore cycles
// through the pool without flushing the hot sessions, however many one-offs
// arrive between two uses of a hot spec. A session counts as repeated once it
// serves a hit, or when it is built for a key among the last max keys the
// pool evicted (the ghost list): a spec evicted as a one-off and asked for
// again is hot, and that is how a new hot set takes over a pool still full
// of the old one.
type Pool struct {
	mu        sync.Mutex
	max       int
	lru       *list.List // of *Session; front = least recently used idle
	byKey     map[uint64][]*list.Element
	ghost     []uint64 // ring of the last max evicted keys
	ghostNext int
	ghostN    map[uint64]int // occurrences of each key in ghost
	hits      int64
	misses    int64
	evictions int64
}

// NewPool creates a pool retaining up to max idle sessions (min 1).
func NewPool(max int) *Pool {
	if max < 1 {
		max = 1
	}
	return &Pool{
		max:    max,
		lru:    list.New(),
		byKey:  map[uint64][]*list.Element{},
		ghost:  make([]uint64, 0, max),
		ghostN: map[uint64]int{},
	}
}

// Checkout returns an exclusive session for the spec, reusing an idle one
// when available and calling build otherwise. hit reports which happened.
// Concurrent misses on the same spec each build their own session; the
// duplicates merge back into the pool at Checkin.
func (p *Pool) Checkout(spec QuerySpec, build func() (*lbkeogh.Query, error)) (s *Session, hit bool, err error) {
	key := spec.Key()
	p.mu.Lock()
	elems := p.byKey[key]
	for i := len(elems) - 1; i >= 0; i-- {
		el := elems[i]
		cand := el.Value.(*Session)
		if !specEqual(cand.Spec, spec) {
			continue // hash collision: leave the stranger alone
		}
		p.byKey[key] = slices.Delete(elems, i, i+1)
		p.lru.Remove(el)
		cand.repeated = true
		p.hits++
		p.mu.Unlock()
		return cand, true, nil
	}
	p.misses++
	repeated := p.ghostN[key] > 0
	p.mu.Unlock()
	q, err := build() // outside the lock: building is the expensive part
	if err != nil {
		return nil, false, err
	}
	return &Session{Q: q, Spec: spec, key: key, repeated: repeated}, false, nil
}

// Checkin returns a session to the idle pool and, while the pool is over
// capacity, evicts as the Pool comment describes.
func (p *Pool) Checkin(s *Session) {
	p.mu.Lock()
	defer p.mu.Unlock()
	el := p.lru.PushBack(s)
	p.byKey[s.key] = append(p.byKey[s.key], el)
	for p.lru.Len() > p.max {
		old := p.lru.Front()
		for e := old; e != nil; e = e.Next() {
			if !e.Value.(*Session).repeated {
				old = e
				break
			}
		}
		p.lru.Remove(old)
		victim := old.Value.(*Session)
		elems := p.byKey[victim.key]
		for i, e := range elems {
			if e == old {
				elems = slices.Delete(elems, i, i+1)
				break
			}
		}
		if len(elems) == 0 {
			delete(p.byKey, victim.key)
		} else {
			p.byKey[victim.key] = elems
		}
		p.remember(victim.key)
		p.evictions++
	}
}

// remember puts an evicted key on the ghost list, dropping the oldest key
// once the list holds max.
func (p *Pool) remember(key uint64) {
	if len(p.ghost) < p.max {
		p.ghost = append(p.ghost, key)
	} else {
		old := p.ghost[p.ghostNext]
		if p.ghostN[old]--; p.ghostN[old] == 0 {
			delete(p.ghostN, old)
		}
		p.ghost[p.ghostNext] = key
		p.ghostNext = (p.ghostNext + 1) % p.max
	}
	p.ghostN[key]++
}

func specEqual(a, b QuerySpec) bool {
	if a.Measure != b.Measure || a.R != b.R || a.Eps != b.Eps || a.Mirror != b.Mirror ||
		(a.MaxDeg == nil) != (b.MaxDeg == nil) || a.MaxDeg != nil && *a.MaxDeg != *b.MaxDeg ||
		len(a.Series) != len(b.Series) {
		return false
	}
	for i, v := range a.Series {
		if math.Float64bits(v) != math.Float64bits(b.Series[i]) {
			return false
		}
	}
	return true
}

// PoolStats is a point-in-time view of the session pool.
type PoolStats struct {
	// Idle is the number of sessions currently parked; Hits/Misses/Evictions
	// are cumulative Checkout and capacity outcomes.
	Idle      int   `json:"idle"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
}

// Stats snapshots the pool.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return PoolStats{Idle: p.lru.Len(), Hits: p.hits, Misses: p.misses, Evictions: p.evictions}
}
