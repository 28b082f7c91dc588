package server

import (
	"fmt"
	"io"
	"log/slog"

	"lbkeogh/internal/obs/ops"
)

// endpoint is a /v1 endpoint requests are accounted under, numbered in
// exposition order: it indexes telemetryEndpoints and telemetry.endpoints.
type endpoint int

const (
	epCompact endpoint = iota
	epIngest
	epRange
	epSearch
	epTopK
	numEndpoints
)

// telemetryEndpoints names each endpoint on /metrics and in the request log.
// Every series is written from the first scrape, so absence never has to be
// disambiguated from zero.
var telemetryEndpoints = [numEndpoints]string{"compact", "ingest", "range", "search", "topk"}

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
	endpoints [numEndpoints]ops.RED
}

func newTelemetry(cfg Config) *telemetry {
	return &telemetry{logger: ops.Or(cfg.Logger), ids: ops.NewIDSource()}
}

// writeMetrics appends the per-endpoint request families and the runtime
// telemetry to the /metrics exposition.
func (t *telemetry) writeMetrics(w io.Writer) {
	ops.WriteFamily(w, "shapeserver_request_duration_seconds", "histogram",
		"Request latency since process start, by endpoint.")
	for ep, name := range telemetryEndpoints {
		h := t.endpoints[ep].Histogram()
		ops.WriteDurationHistogram(w, "shapeserver_request_duration_seconds",
			fmt.Sprintf("endpoint=%q", name), h.Buckets(), h.Sum())
	}

	ops.WriteFamily(w, "shapeserver_endpoint_requests_total", "counter",
		"Terminal request outcomes since process start, by endpoint and error class (cumulative: delta two scrapes to reconcile against a client's own tally).")
	for ep, name := range telemetryEndpoints {
		classes := t.endpoints[ep].Snapshot().Classes
		for _, class := range ops.ClassNames() {
			fmt.Fprintf(w, "shapeserver_endpoint_requests_total{endpoint=%q,class=%q} %d\n",
				name, class, classes[class])
		}
	}

	ops.WriteRuntimeMetrics(w)
}
