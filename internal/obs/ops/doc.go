// Package ops is the operational-telemetry layer over the obs/trace stack:
// what a production deployment of the search service needs beyond per-query
// stats and spans. It provides structured logging (log/slog with
// request-scoped loggers carrying request and trace IDs), rolling-window RED
// aggregates with OpenMetrics-style exemplars, pruning-power windows, SLO
// burn-rate computation, Go runtime telemetry (lbkeogh_runtime_* families
// from runtime/metrics), and the exposition writers every serving-layer
// family goes through. Profiles are net/http/pprof's, served on demand.
//
// Nothing in this package sits on the search hot path: windows are observed
// once per request and runtime metrics are read once per scrape. The
// library's nil-sink discipline is preserved — a nil *RED or *PruneWindow is
// a no-op, and the nil-recorder perf guard (LBKEOGH_PERF_GUARD) is
// unaffected by this layer being compiled in.
package ops
