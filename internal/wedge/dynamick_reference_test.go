package wedge

// refDynamicK is the paper's on-the-fly wedge-set-size controller (Section
// 4.1) as this repository first shipped it, kept only as the reference the
// product controller is measured against: search starts with K = 2; each time
// the best-so-far value changes, a subset of candidate K values is probed —
// the values that evenly divide the ranges [1, K] and [K, maxK] into
// `intervals` intervals — one probe per subsequent comparison, measuring
// num_steps; the cheapest candidate becomes the new K.
//
// It was replaced because its estimator is one heavy-tailed sample per
// candidate and its trigger dries up: after the last best-so-far change, a
// few hundred rows into a scan, the winner of one noisy round runs every
// remaining comparison (TestDynamicKSettlesNearArgmin,
// TestDynamicKBeatsReferenceOnScan).
type refDynamicK struct {
	maxK      int
	intervals int

	curK       int
	probing    bool
	candidates []int
	probeIdx   int
	bestSteps  int64
	bestK      int
	rearm      bool // best-so-far changed while a probe was running
}

// newRefDynamicK returns a controller over wedge-set sizes 1..maxK with the
// given number of probe intervals (the paper's single parameter; 5 there).
// intervals < 1 is treated as 1.
func newRefDynamicK(maxK, intervals int) *refDynamicK {
	if maxK < 1 {
		maxK = 1
	}
	if intervals < 1 {
		intervals = 1
	}
	k := 2
	if k > maxK {
		k = maxK
	}
	return &refDynamicK{maxK: maxK, intervals: intervals, curK: k}
}

// K returns the wedge-set size to use for the next comparison.
func (d *refDynamicK) K() int {
	if d.probing {
		return d.candidates[d.probeIdx]
	}
	return d.curK
}

// Current returns the controller's settled K (ignoring any probe in flight).
func (d *refDynamicK) Current() int { return d.curK }

// Observe records the outcome of the comparison that used K(): the number of
// steps it took and whether it improved the best-so-far. It advances the
// probe state machine.
func (d *refDynamicK) Observe(steps int64, bestChanged bool) {
	if d.probing {
		if steps < d.bestSteps || d.bestK < 0 {
			d.bestSteps = steps
			d.bestK = d.candidates[d.probeIdx]
		}
		if bestChanged {
			d.rearm = true
		}
		d.probeIdx++
		if d.probeIdx >= len(d.candidates) {
			d.curK = d.bestK
			d.probing = false
			if d.rearm {
				d.rearm = false
				d.startProbe()
			}
		}
		return
	}
	if bestChanged {
		d.startProbe()
	}
}

func (d *refDynamicK) startProbe() {
	cands := d.candidateKs()
	if len(cands) <= 1 {
		return
	}
	d.candidates = cands
	d.probing = true
	d.probeIdx = 0
	d.bestSteps = 0
	d.bestK = -1
}

// candidateKs returns the probe set: values that evenly divide [1, curK] and
// [curK, maxK] into d.intervals intervals, deduplicated and clamped.
func (d *refDynamicK) candidateKs() []int {
	seen := map[int]bool{}
	var out []int
	add := func(k int) {
		if k < 1 {
			k = 1
		}
		if k > d.maxK {
			k = d.maxK
		}
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	for i := 0; i <= d.intervals; i++ {
		add(1 + i*(d.curK-1)/d.intervals)
	}
	for i := 0; i <= d.intervals; i++ {
		add(d.curK + i*(d.maxK-d.curK)/d.intervals)
	}
	return out
}
