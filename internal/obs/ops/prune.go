package ops

import (
	"sync"
	"time"

	"lbkeogh/internal/obs"
)

// pruneSlot is one time slice of a pruning-power window.
type pruneSlot struct {
	epoch  int64
	counts obs.Counts
	levels [obs.MaxPruneLevels]int64
}

// PruneWindow is a rolling window over search-internals deltas: what
// fraction of rotations the wedge hierarchy pruned (and at which levels),
// the FFT screen's reject rate, and how often the dynamic-K heuristic moved —
// the production view of the paper's pruning-power tables. One Observe per
// finished search, never per comparison. A nil *PruneWindow is a no-op sink.
type PruneWindow struct {
	mu    sync.Mutex
	cfg   WindowConfig
	slots []pruneSlot
}

// NewPruneWindow returns a rolling pruning-power window.
func NewPruneWindow(cfg WindowConfig) *PruneWindow {
	cfg = cfg.withDefaults()
	p := &PruneWindow{cfg: cfg, slots: make([]pruneSlot, cfg.Slots)}
	for i := range p.slots {
		p.slots[i].epoch = -1
	}
	return p
}

// Observe folds one search's counter delta (and its per-level wedge prunes)
// into the current slot.
func (p *PruneWindow) Observe(delta obs.Counts, prunesByLevel []int64) {
	if p == nil {
		return
	}
	p.mu.Lock()
	now := p.cfg.now()
	epoch := now.UnixNano() / int64(p.cfg.SlotDur)
	s := &p.slots[int(epoch%int64(len(p.slots)))]
	if s.epoch != epoch {
		*s = pruneSlot{epoch: epoch}
	}
	s.counts = s.counts.Add(delta)
	for i, v := range prunesByLevel {
		if i >= len(s.levels) {
			break
		}
		s.levels[i] += v
	}
	p.mu.Unlock()
}

// PruneSnapshot is one merged view of a pruning-power window.
type PruneSnapshot struct {
	// Window is the wall time covered; Counts the summed deltas inside it.
	Window time.Duration
	Counts obs.Counts
	// PruneRate is the fraction of covered rotations dismissed without a
	// full distance evaluation; FFTRejectRate the fraction rejected by the
	// FFT magnitude screen alone. Both are 0 on an empty window.
	PruneRate     float64
	FFTRejectRate float64
	// LevelFraction[i] is the fraction of covered rotations pruned at wedge
	// dendrogram depth i (trimmed to the deepest non-zero level).
	LevelFraction []float64
	// KChanges counts dynamic-K adjustments inside the window — drift here
	// means the workload is pushing the probe heuristic around.
	KChanges int64
}

// Snapshot merges the live slots into one window view.
func (p *PruneWindow) Snapshot() PruneSnapshot {
	var out PruneSnapshot
	if p == nil {
		return out
	}
	var levels [obs.MaxPruneLevels]int64
	p.mu.Lock()
	epoch := p.cfg.now().UnixNano() / int64(p.cfg.SlotDur)
	oldest := epoch - int64(len(p.slots)) + 1
	out.Window = p.cfg.Window()
	for i := range p.slots {
		s := &p.slots[i]
		if s.epoch < oldest {
			continue
		}
		out.Counts = out.Counts.Add(s.counts)
		for l := range levels {
			levels[l] += s.levels[l]
		}
	}
	p.mu.Unlock()
	out.KChanges = out.Counts.KChanges
	if rot := out.Counts.Rotations; rot > 0 {
		out.PruneRate = obs.SnapshotOf(out.Counts).PruneRate
		out.FFTRejectRate = float64(out.Counts.FFTRejectedMembers) / float64(rot)
		deepest := -1
		for l, v := range levels {
			if v != 0 {
				deepest = l
			}
		}
		if deepest >= 0 {
			out.LevelFraction = make([]float64, deepest+1)
			for l := 0; l <= deepest; l++ {
				out.LevelFraction[l] = float64(levels[l]) / float64(rot)
			}
		}
	}
	return out
}
