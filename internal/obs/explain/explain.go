// Package explain is the bound-tightness sampler: it measures, for a sampled
// subset of candidate comparisons, the full bound waterfall the paper argues
// from — FFT-magnitude bound, LB_Keogh envelope bound, then the exact kernel
// — recording each stage's value, the true rotation-invariant distance, and
// which stage eliminated the candidate.
//
// Keogh et al.'s case for LB_Keogh rests on the ratio of the lower bound to
// the true distance (the closer to 1, the better the pruning); this package
// turns that ratio into continuously collected telemetry: per-bound tightness
// histograms, false-positive attribution ("passed the bound, killed by the
// kernel") and per-bound elimination counts over the sampled comparisons.
// How many rotations each stage disposed of across every comparison is the
// search's own obs.Counts record, not this package's.
//
// Everything here lives off the hot path: a disabled sampler costs one nil
// check per comparison, and measurement never charges the query's own
// counters (bounds and true distances are recomputed against a private
// tally).
package explain

// StageKernel is the waterfall's last stage, the exact kernel: a sampled
// candidate every bound passed is eliminated here when its true distance
// reaches the threshold (wedge.KernelStageName).
const StageKernel = "kernel"
