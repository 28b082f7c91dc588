package server

import (
	"fmt"
	"io"
	"log/slog"
	"sort"

	"lbkeogh/internal/obs/ops"
)

// The /v1 endpoints requests are accounted under. Eager creation keeps every
// series present on /metrics from the first scrape, so absence never has to
// be disambiguated from zero.
var telemetryEndpoints = []string{"search", "topk", "range", "ingest", "compact"}

func endpointName(kind searchKind) string {
	switch kind {
	case kindTopK:
		return "topk"
	case kindRange:
		return "range"
	default:
		return "search"
	}
}

// telemetry is the server's operational-telemetry state: the request logger,
// the request-ID source, and one cumulative RED record per endpoint (every
// terminal outcome, refusals included). It is request-rate accounting — one
// Observe per finished request, nothing on the comparison hot path — and it
// keeps no window: an external scraper deltas two scrapes and compares
// against its own accounting exactly (TestAdmissionSemanticsOverHTTP), and
// rates, windowed quantiles and burn rates are its to take (README
// "Request accounting, SLOs and burn rates").
type telemetry struct {
	logger    *slog.Logger
	ids       *ops.IDSource
	endpoints map[string]*ops.RED
}

func newTelemetry(cfg Config) *telemetry {
	t := &telemetry{
		logger:    ops.Or(cfg.Logger),
		ids:       ops.NewIDSource(),
		endpoints: map[string]*ops.RED{},
	}
	for _, ep := range telemetryEndpoints {
		t.endpoints[ep] = &ops.RED{}
	}
	return t
}

// writeMetrics appends the per-endpoint request families and the runtime
// telemetry to the /metrics exposition.
func (t *telemetry) writeMetrics(w io.Writer) {
	eps := sortedKeys(t.endpoints)
	snaps := map[string]ops.REDSnapshot{}
	for _, ep := range eps {
		snaps[ep] = t.endpoints[ep].Snapshot()
	}

	ops.WriteFamily(w, "shapeserver_request_duration_seconds", "histogram",
		"Request latency since process start, by endpoint.")
	for _, ep := range eps {
		h := t.endpoints[ep].Histogram()
		ops.WriteDurationHistogram(w, "shapeserver_request_duration_seconds",
			fmt.Sprintf("endpoint=%q", ep), h.Buckets(), h.Sum())
	}

	ops.WriteFamily(w, "shapeserver_endpoint_requests_total", "counter",
		"Terminal request outcomes since process start, by endpoint and error class (cumulative: delta two scrapes to reconcile against a client's own tally).")
	for _, ep := range eps {
		for _, class := range ops.ClassNames() {
			fmt.Fprintf(w, "shapeserver_endpoint_requests_total{endpoint=%q,class=%q} %d\n",
				ep, class, snaps[ep].Classes[class])
		}
	}

	ops.WriteRuntimeMetrics(w)
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
