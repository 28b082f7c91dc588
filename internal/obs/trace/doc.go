// Package trace is the query-lifecycle span recorder on top of internal/obs:
// where the obs counters say *what* a search did (the paper's num_steps
// accounting), trace says *when* and *how long* — which comparisons, probes
// and fetches of one query the wall-clock went to. It stops at the
// comparison: which bound inside a comparison the time goes to is the
// benchmark's per-layer ladder and a CPU profile, not a span.
//
// # Model
//
// A Recorder accumulates the Spans of one trace against a monotonic anchor;
// it is single-goroutine (a Query already is) and a nil *Recorder is a
// valid no-op sink costing one branch per call, mirroring the nil
// *obs.SearchStats contract. Callers record into it directly — Begin/End
// around a stage, Emit for an already-timed interval — and nesting falls out
// of call order through its open-span stack. A comparison is one span with
// nothing beneath it; a recorder at its span cap is Full, which callers
// treat as absent. A recorder belongs to one query: an index probe records
// its walk and fetches into its caller's recorder and keeps no log of its
// own, so an untraced query leaves no trace anywhere.
//
// Spans carry obs.Counts deltas as attributes, so a comparison span's
// attrs satisfy the same reconciliation identity as the query's SearchStats
// (obs.Counts.Reconciles: Rotations = FullDistEvals + EarlyAbandons +
// WedgePrunedMembers + WedgeLeafLBPrunes + FFTRejectedMembers +
// CancelledMembers), and summing the comparison spans of a trace reproduces
// the query's record.
//
// Retention (sampling, slow-query capture), the per-stage latency
// histograms and the Chrome export belong to the log a finished recorder is
// handed to: the public package's TraceLog.
package trace
