package server

import (
	"fmt"
	"html/template"
	"io"
	"log/slog"
	"sort"
	"strings"
	"time"

	"lbkeogh"
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

// panel renders the per-endpoint records as a dashboard section for
// /debug/lbkeogh.
func (t *telemetry) panel() lbkeogh.DebugPanel {
	return lbkeogh.DebugPanel{
		Title: "requests by endpoint (since start)",
		HTML:  t.panelHTML,
	}
}

type endpointRow struct {
	Endpoint string
	Snap     ops.REDSnapshot
	P50, P99 time.Duration
}

func (t *telemetry) panelHTML() template.HTML {
	var rows []endpointRow
	for _, ep := range sortedKeys(t.endpoints) {
		snap := t.endpoints[ep].Snapshot()
		rows = append(rows, endpointRow{
			Endpoint: ep,
			Snap:     snap,
			P50:      time.Duration(max(snap.P50NS, 0)),
			P99:      time.Duration(max(snap.P99NS, 0)),
		})
	}
	var b strings.Builder
	if err := telemetryPanelTemplate.Execute(&b, rows); err != nil {
		return template.HTML(template.HTMLEscapeString(err.Error()))
	}
	return template.HTML(b.String())
}

var telemetryPanelTemplate = template.Must(template.New("telemetry").Parse(`
<table>
<tr><th class="l">endpoint</th><th>requests</th>
<th>ok</th><th>client</th><th>rejected</th><th>timeout</th><th>server</th>
<th>p50</th><th>p99</th></tr>
{{range .}}
<tr><td class="l">{{.Endpoint}}</td><td>{{.Snap.Requests}}</td>
<td>{{index .Snap.Classes "ok"}}</td><td>{{index .Snap.Classes "client"}}</td>
<td>{{index .Snap.Classes "rejected"}}</td><td>{{index .Snap.Classes "timeout"}}</td>
<td>{{index .Snap.Classes "server"}}</td>
<td>{{.P50}}</td><td>{{.P99}}</td></tr>
{{end}}
</table>
<p class="meta">quantiles are bucket-resolution (power-of-two bounds) since process start;
rates and windows are the scraper's &middot;
a slow request's trace_id (response and log line) finds its trace in the slow ring below</p>
`))
