// Package ops is the operational-telemetry layer over the obs/trace stack:
// what a production deployment of the search service needs beyond per-query
// stats and spans. It provides structured logging (log/slog with
// request-scoped loggers carrying request and trace IDs), the cumulative
// per-endpoint request record (RED: outcomes by error class, a latency
// histogram, OpenMetrics-style exemplars), Go runtime telemetry
// (lbkeogh_runtime_* families from runtime/metrics), and the exposition
// writers every serving-layer family goes through. Profiles are
// net/http/pprof's, served on demand.
//
// Everything here counts from process start and keeps no clock-driven state:
// rates, windowed quantiles and SLO burn rates are the scraper's to take from
// the difference of two scrapes. Nothing in this package sits on the search
// hot path: a RED is observed once per request and runtime metrics are read
// once per scrape. A nil *RED is a no-op sink, and the nil-recorder perf
// guard (LBKEOGH_PERF_GUARD) is unaffected by this layer being compiled in.
package ops
