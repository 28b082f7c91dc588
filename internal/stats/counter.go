// Package stats provides the implementation-free cost accounting used by the
// paper's efficiency experiments, plus small statistical helpers for the
// experiment harness.
//
// The paper (Section 5.3) argues that comparing approaches by CPU time is
// subject to implementation bias, and instead counts "num_steps": the number
// of real-value subtractions performed by a distance or lower-bound kernel.
// Every kernel in this repository takes a *Tally and adds the steps it
// performs to it; a searcher keeps one Tally as its record of the steps its
// comparisons spent, so experiments can report exactly the metric the paper
// reports. A Counter is the caller's accumulator across searches and
// queries.
package stats

import "sync/atomic"

// Counter accumulates num_steps as defined in the paper: one step per
// real-value subtraction performed by a distance or lower-bound kernel.
//
// A nil *Counter is valid everywhere and records nothing. Add is atomic, so
// the workers of a parallel scan may share one counter without racing; each
// adds its steps once, when it stops. Hot loops keep a Tally instead.
type Counter struct {
	steps atomic.Int64
}

// Add records n additional steps. It is safe to call on a nil receiver and
// safe for concurrent use.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.steps.Add(n)
	}
}

// Steps reports the number of steps recorded so far. A nil receiver reports 0.
func (c *Counter) Steps() int64 {
	if c == nil {
		return 0
	}
	return c.steps.Load()
}

// Reset clears the counter. It is safe to call on a nil receiver.
func (c *Counter) Reset() {
	if c != nil {
		c.steps.Store(0)
	}
}

// Tally is the single-goroutine scratch counterpart of Counter: a plain
// accumulator for the kernel-facing hot paths, where an atomic add per
// distance evaluation would dominate the cost of short early-abandoned
// kernels. A Tally must never be shared across goroutines; owners keep one
// on the stack (or in scratch confined to their goroutine, as wedge.Scratch
// is) and flush it into a Counter (or an obs record) once per comparison,
// per pass or per call. A nil *Tally records nothing, mirroring Counter's contract.
type Tally struct {
	steps int64
}

// Add records n additional steps. Safe on a nil receiver.
func (t *Tally) Add(n int64) {
	if t != nil {
		t.steps += n
	}
}

// Steps reports the number of steps recorded so far. A nil receiver reports 0.
func (t *Tally) Steps() int64 {
	if t == nil {
		return 0
	}
	return t.steps
}

// Reset clears the tally. Safe on a nil receiver.
func (t *Tally) Reset() {
	if t != nil {
		t.steps = 0
	}
}
