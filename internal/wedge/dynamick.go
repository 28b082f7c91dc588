package wedge

import "math"

// The controller's two time constants, in comparisons. A window is how many
// comparisons a wedge-set size is summed over before the sum is believed: a
// comparison's steps are heavy-tailed (most candidates are pruned at the
// frontier, one in twenty descends to the leaves), so one of them says
// nothing and thirty-two say enough to rank neighbouring sizes more often
// right than wrong. After both neighbours have lost, the incumbent runs
// restWindows windows unchallenged. Long scans like a longer window and short
// index probes a shorter one, but only mildly — windows 16 to 128 with rests
// 2 to 8 stay within 11 % of each other on a 16 000-row scan and within 4 %
// on a 512-row one — which is why these are constants and not options.
const (
	window      = 32
	restWindows = 4
)

// DynamicK adapts the wedge-set size K on the fly (Section 4.1, last
// paragraph) by hill-climbing over a geometric ladder of K values: it sums
// the steps of one window of comparisons at the incumbent rung, then races a
// neighbour rung over a window of its own, abandoning the neighbour as soon
// as its running sum reaches the incumbent's — the paper's own early
// abandoning, applied to the probe. A neighbour that finishes lower becomes
// the incumbent and the climb continues the same way; otherwise the other
// side is tried, and when neither wins the incumbent rests before it is
// measured again. The controller never stops adapting, because the cheapest K
// drifts as the best-so-far tightens over a scan.
//
// What a trial costs is charged to the search like any other comparison,
// exactly as the paper includes "this slight overhead in adjusting the
// parameter" in all its experiments. There is no clock and no randomness: a
// scan's step count is a function of its input alone. DESIGN.md design
// decision 3 says how this departs from the paper's controller (kept as
// refDynamicK beside the tests) and why.
type DynamicK struct {
	ladder []int // strictly increasing, ladder[0] = 1, last = maxK
	cur    int   // the incumbent's rung
	step   int   // 0: the incumbent is running; ±1: that neighbour is on trial
	dir    int   // the side tried first: the way the last move went
	lost   int   // sides ruled out since the incumbent was measured
	n      int   // comparisons into the current window; < 0 while resting
	sum    int64 // steps spent in the current window
	bar    int64 // the incumbent's window sum: what a neighbour must beat
}

// NewDynamicK returns a controller over wedge-set sizes 1..maxK. intervals
// (the paper's single parameter; 5 there) sets the ladder's resolution: the
// ratio between rungs is maxK^(1/(2·intervals)), so there are at most
// 2·intervals+1 of them. intervals < 1 is treated as 1. The controller starts
// at the rung nearest K = 2, as the paper starts at 2.
func NewDynamicK(maxK, intervals int) *DynamicK {
	maxK, intervals = max(maxK, 1), max(intervals, 1)
	d := &DynamicK{dir: 1}
	for i := 0; i <= 2*intervals; i++ {
		k := int(math.Round(math.Pow(float64(maxK), float64(i)/float64(2*intervals))))
		if len(d.ladder) == 0 || k > d.ladder[len(d.ladder)-1] {
			d.ladder = append(d.ladder, k)
		}
	}
	if len(d.ladder) > 1 && d.ladder[1] <= 3 {
		d.cur = 1 // otherwise ladder[0] = 1 is the nearest rung to 2
	}
	return d
}

// Ladder returns the K values the controller will ever use, ascending. A
// caller that caches per-K state cuts it for these once, up front.
func (d *DynamicK) Ladder() []int { return d.ladder }

// K returns the wedge-set size to use for the next comparison.
func (d *DynamicK) K() int { return d.ladder[d.cur+d.step] }

// Current returns the controller's settled K (ignoring any trial in flight).
func (d *DynamicK) Current() int { return d.ladder[d.cur] }

// Observe records the steps of the comparison that used K().
func (d *DynamicK) Observe(steps int64) {
	if d.n++; d.n <= 0 {
		return // resting
	}
	d.sum += steps
	switch {
	case d.step == 0:
		if d.n == window { // the incumbent is measured: challenge it
			d.bar, d.lost = d.sum, 0
			d.race(d.dir)
		}
	case d.sum >= d.bar: // the neighbour cannot finish lower: abandon it
		d.lost++
		d.race(-d.step)
	case d.n == window: // the neighbour won: move, and keep climbing
		d.cur += d.step
		d.bar, d.dir, d.lost = d.sum, d.step, 1 // the rung just left has lost
		d.race(d.step)
	}
}

// race opens a fresh window for the neighbour on the given side, or on the
// other side if there is no rung there; once both sides are ruled out the
// incumbent rests, and is measured again in the window after.
func (d *DynamicK) race(side int) {
	d.n, d.sum = 0, 0
	for ; d.lost < 2; d.lost, side = d.lost+1, -side {
		if r := d.cur + side; r >= 0 && r < len(d.ladder) {
			d.step = side
			return
		}
	}
	d.step, d.n = 0, -restWindows*window
}
