// Package trace is the query-lifecycle span layer on top of internal/obs:
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
// # Sampling and slow-query capture
//
// Recording and retention are separate decisions. When a Log is attached,
// every query records spans (the recording cost is the point of opting in);
// retention is decided at Finish time, when the duration is known:
//
//   - a trace whose duration is >= Config.SlowThreshold is ALWAYS retained
//     in the slow ring (capacity SlowCapacity, oldest evicted first);
//   - independently, the trace is retained in the sampled ring (capacity
//     Capacity) with probability Config.SampleRate, decided by a
//     fixed-seed splitmix64 so runs are reproducible.
//
// Deciding at completion rather than at start is what makes slow-query
// capture reliable: a start-time sampling decision would drop exactly the
// outlier you wanted to keep. Every finished trace — retained or not —
// feeds the per-stage latency histograms, so histograms and Prometheus
// export see the full population, not the sample.
//
// # Export
//
// WriteChrome is the one export: the Chrome trace-event format, one track per
// trace (load the file at ui.perfetto.dev or chrome://tracing). Every event
// carries its span index and parent in its args, so the same file also feeds
// jq/duckdb-style analysis. The public package mounts it, plus a live
// waterfall, under /debug/lbkeogh.
package trace
