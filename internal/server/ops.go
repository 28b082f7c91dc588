package server

import (
	"fmt"
	"html/template"
	"io"
	"log/slog"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"lbkeogh"
	"lbkeogh/internal/obs"
	"lbkeogh/internal/obs/ops"
)

// The label vocabularies the rolling windows are keyed by. Eager creation
// keeps every family present on /metrics from the first scrape, so absence
// never has to be disambiguated from zero.
var (
	telemetryEndpoints  = []string{"search", "topk", "range", "ingest", "compact"}
	telemetryStrategies = []string{"wedge", "brute", "early_abandon", "fft"}
)

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
// the request-ID source, the cumulative request counts and latency
// histograms, and the rolling RED / SLO / pruning-power windows. Everything
// here is request-rate accounting — one Observe per finished request,
// nothing on the comparison hot path.
type telemetry struct {
	logger *slog.Logger
	ids    *ops.IDSource
	slo    ops.SLO

	// endpoints holds one RED window per /v1 endpoint (every terminal
	// outcome, including refusals); strategies one per search strategy
	// (only requests that actually ran a search); prune one pruning-power
	// window per strategy.
	endpoints  map[string]*ops.RED
	strategies map[string]*ops.RED
	prune      map[string]*ops.PruneWindow

	// reqTotals counts every terminal request outcome since process start,
	// by endpoint and error class, and durations holds the same requests'
	// latencies per endpoint. Unlike the rolling windows these are
	// cumulative, so an external scraper can delta two scrapes and compare
	// against its own accounting exactly (TestAdmissionSemanticsOverHTTP),
	// and Prometheus never reads an expiring slot as a counter reset.
	reqTotals map[string]map[string]*atomic.Int64
	durations map[string]*obs.Histogram
}

func newTelemetry(cfg Config) *telemetry {
	var wcfg ops.WindowConfig // the ops defaults: 60 slots of 1s, a smoothly rolling minute
	t := &telemetry{
		logger:     ops.Or(cfg.Logger),
		ids:        ops.NewIDSource(),
		slo:        cfg.SLO.WithDefaults(),
		endpoints:  map[string]*ops.RED{},
		strategies: map[string]*ops.RED{},
		prune:      map[string]*ops.PruneWindow{},
		reqTotals:  map[string]map[string]*atomic.Int64{},
		durations:  map[string]*obs.Histogram{},
	}
	for _, ep := range telemetryEndpoints {
		t.endpoints[ep] = ops.NewRED(wcfg)
		t.durations[ep] = &obs.Histogram{}
		t.reqTotals[ep] = map[string]*atomic.Int64{}
		for _, class := range ops.ClassNames() {
			t.reqTotals[ep][class] = &atomic.Int64{}
		}
	}
	for _, st := range telemetryStrategies {
		t.strategies[st] = ops.NewRED(wcfg)
		t.prune[st] = ops.NewPruneWindow(wcfg)
	}
	return t
}

// observeRequest folds one terminal request outcome into its endpoint window,
// the cumulative endpoint/class totals and the endpoint's latency histogram.
func (t *telemetry) observeRequest(endpoint string, status int, dur time.Duration, traceID int64) {
	t.endpoints[endpoint].Observe(status, dur, traceID)
	t.reqTotals[endpoint][ops.ErrorClass(status)].Add(1)
	t.durations[endpoint].Observe(dur.Nanoseconds())
}

// observeSearch folds one executed search into its strategy's RED and
// pruning-power windows.
func (t *telemetry) observeSearch(strategy string, status int, dur time.Duration, traceID int64, delta lbkeogh.SearchStats) {
	t.strategies[strategy].Observe(status, dur, traceID)
	t.prune[strategy].Observe(delta.Counts, delta.WedgePrunesByLevel)
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// writeMetrics appends the rolling-window families, SLO burn rates, and the
// runtime telemetry to the /metrics exposition.
func (t *telemetry) writeMetrics(w io.Writer) {
	eps := sortedKeys(t.endpoints)
	snaps := map[string]ops.REDSnapshot{}
	for _, ep := range eps {
		snaps[ep] = t.endpoints[ep].Snapshot()
	}

	ops.WriteFamily(w, "shapeserver_request_duration_seconds", "histogram",
		"Request latency since process start, by endpoint; buckets carry the rolling window's trace-ID exemplars.")
	for _, ep := range eps {
		ops.WriteDurationHistogram(w, "shapeserver_request_duration_seconds",
			fmt.Sprintf("endpoint=%q", ep), t.durations[ep], snaps[ep].ExemplarText())
	}

	ops.WriteFamily(w, "shapeserver_endpoint_requests_total", "counter",
		"Terminal request outcomes since process start, by endpoint and error class (cumulative: delta two scrapes to reconcile against a client's own tally).")
	for _, ep := range eps {
		for _, class := range ops.ClassNames() {
			fmt.Fprintf(w, "shapeserver_endpoint_requests_total{endpoint=%q,class=%q} %d\n",
				ep, class, t.reqTotals[ep][class].Load())
		}
	}

	ops.WriteFamily(w, "shapeserver_window_requests", "gauge",
		"Requests observed inside the rolling window, by endpoint.")
	for _, ep := range eps {
		fmt.Fprintf(w, "shapeserver_window_requests{endpoint=%q} %d\n", ep, snaps[ep].Requests)
	}
	ops.WriteFamily(w, "shapeserver_window_request_rate", "gauge",
		"Requests per second over the rolling window, by endpoint.")
	for _, ep := range eps {
		fmt.Fprintf(w, "shapeserver_window_request_rate{endpoint=%q} %s\n", ep, ops.FormatFloat(snaps[ep].RatePerSec))
	}
	ops.WriteFamily(w, "shapeserver_window_errors", "gauge",
		"Requests inside the rolling window by endpoint and error class.")
	for _, ep := range eps {
		for _, class := range sortedKeys(snaps[ep].Classes) {
			fmt.Fprintf(w, "shapeserver_window_errors{endpoint=%q,class=%q} %d\n",
				ep, class, snaps[ep].Classes[class])
		}
	}

	ops.WriteGaugeFloat(w, "shapeserver_slo_latency_objective_seconds",
		"The latency objective requests are judged against.", t.slo.WithDefaults().LatencyObjective.Seconds())
	ops.WriteFamily(w, "shapeserver_slo_latency_burn_rate", "gauge",
		"Latency error-budget burn rate over the rolling window (1.0 consumes the budget exactly on schedule).")
	burns := map[string]ops.Burn{}
	for _, ep := range eps {
		burns[ep] = t.slo.Burn(snaps[ep])
		fmt.Fprintf(w, "shapeserver_slo_latency_burn_rate{endpoint=%q} %s\n", ep, ops.FormatFloat(burns[ep].LatencyBurnRate))
	}
	ops.WriteFamily(w, "shapeserver_slo_error_burn_rate", "gauge",
		"Error-budget burn rate over the rolling window (server-attributable classes only).")
	for _, ep := range eps {
		fmt.Fprintf(w, "shapeserver_slo_error_burn_rate{endpoint=%q} %s\n", ep, ops.FormatFloat(burns[ep].ErrorBurnRate))
	}

	sts := sortedKeys(t.strategies)
	ops.WriteFamily(w, "shapeserver_window_strategy_requests", "gauge",
		"Executed searches inside the rolling window, by strategy.")
	for _, st := range sts {
		fmt.Fprintf(w, "shapeserver_window_strategy_requests{strategy=%q} %d\n", st, t.strategies[st].Snapshot().Requests)
	}
	ops.WriteFamily(w, "shapeserver_window_strategy_p99_seconds", "gauge",
		"Bucket-resolution p99 search latency inside the rolling window, by strategy.")
	for _, st := range sts {
		fmt.Fprintf(w, "shapeserver_window_strategy_p99_seconds{strategy=%q} %s\n",
			st, ops.FormatFloat(float64(t.strategies[st].Snapshot().P99NS)/1e9))
	}

	prunes := map[string]ops.PruneSnapshot{}
	for _, st := range sts {
		prunes[st] = t.prune[st].Snapshot()
	}
	ops.WriteFamily(w, "shapeserver_window_rotations", "gauge",
		"Rotations covered by searches inside the rolling window, by strategy.")
	for _, st := range sts {
		fmt.Fprintf(w, "shapeserver_window_rotations{strategy=%q} %d\n", st, prunes[st].Counts.Rotations)
	}
	ops.WriteFamily(w, "shapeserver_window_prune_rate", "gauge",
		"Fraction of covered rotations dismissed without a full distance evaluation, by strategy.")
	for _, st := range sts {
		fmt.Fprintf(w, "shapeserver_window_prune_rate{strategy=%q} %s\n", st, ops.FormatFloat(prunes[st].PruneRate))
	}
	ops.WriteFamily(w, "shapeserver_window_fft_reject_rate", "gauge",
		"Fraction of covered rotations rejected by the FFT magnitude screen, by strategy.")
	for _, st := range sts {
		fmt.Fprintf(w, "shapeserver_window_fft_reject_rate{strategy=%q} %s\n", st, ops.FormatFloat(prunes[st].FFTRejectRate))
	}
	ops.WriteFamily(w, "shapeserver_window_level_prune_fraction", "gauge",
		"Fraction of covered rotations pruned at each wedge dendrogram level, by strategy.")
	for _, st := range sts {
		for level, frac := range prunes[st].LevelFraction {
			fmt.Fprintf(w, "shapeserver_window_level_prune_fraction{strategy=%q,level=\"%d\"} %s\n",
				st, level, ops.FormatFloat(frac))
		}
	}
	ops.WriteFamily(w, "shapeserver_window_k_changes", "gauge",
		"Dynamic-K adjustments inside the rolling window, by strategy.")
	for _, st := range sts {
		fmt.Fprintf(w, "shapeserver_window_k_changes{strategy=%q} %d\n", st, prunes[st].KChanges)
	}

	ops.WriteRuntimeMetrics(w)
}

// panel renders the rolling windows as a dashboard section for
// /debug/lbkeogh.
func (t *telemetry) panel() lbkeogh.DebugPanel {
	return lbkeogh.DebugPanel{
		Title: "serving telemetry (rolling windows)",
		HTML:  t.panelHTML,
	}
}

type telemetryPanelData struct {
	Endpoints []endpointRow
	Prune     []pruneRow
}

type endpointRow struct {
	Endpoint string
	Snap     ops.REDSnapshot
	Burn     ops.Burn
	P50, P99 time.Duration
}

type pruneRow struct {
	Strategy string
	Snap     ops.PruneSnapshot
	Levels   string
}

func (t *telemetry) panelHTML() template.HTML {
	var data telemetryPanelData
	for _, ep := range sortedKeys(t.endpoints) {
		snap := t.endpoints[ep].Snapshot()
		data.Endpoints = append(data.Endpoints, endpointRow{
			Endpoint: ep,
			Snap:     snap,
			Burn:     t.slo.Burn(snap),
			P50:      time.Duration(max64(snap.P50NS, 0)),
			P99:      time.Duration(max64(snap.P99NS, 0)),
		})
	}
	for _, st := range sortedKeys(t.prune) {
		snap := t.prune[st].Snapshot()
		if snap.Counts.Rotations == 0 {
			continue
		}
		fracs := make([]string, len(snap.LevelFraction))
		for i, f := range snap.LevelFraction {
			fracs[i] = fmt.Sprintf("%.2f", f)
		}
		data.Prune = append(data.Prune, pruneRow{Strategy: st, Snap: snap, Levels: strings.Join(fracs, " ")})
	}
	var b strings.Builder
	if err := telemetryPanelTemplate.Execute(&b, data); err != nil {
		return template.HTML(template.HTMLEscapeString(err.Error()))
	}
	return template.HTML(b.String())
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

var telemetryPanelTemplate = template.Must(template.New("telemetry").Parse(`
<table>
<tr><th class="l">endpoint</th><th>requests</th><th>rate/s</th>
<th>ok</th><th>client</th><th>rejected</th><th>timeout</th><th>server</th>
<th>p50</th><th>p99</th><th>latency burn</th><th>error burn</th></tr>
{{range .Endpoints}}
<tr><td class="l">{{.Endpoint}}</td><td>{{.Snap.Requests}}</td><td>{{printf "%.2f" .Snap.RatePerSec}}</td>
<td>{{index .Snap.Classes "ok"}}</td><td>{{index .Snap.Classes "client"}}</td>
<td>{{index .Snap.Classes "rejected"}}</td><td>{{index .Snap.Classes "timeout"}}</td>
<td>{{index .Snap.Classes "server"}}</td>
<td>{{.P50}}</td><td>{{.P99}}</td>
<td>{{printf "%.2f" .Burn.LatencyBurnRate}}</td><td>{{printf "%.2f" .Burn.ErrorBurnRate}}</td></tr>
{{end}}
</table>
{{if .Prune}}
<table>
<tr><th class="l">strategy</th><th>rotations</th><th>prune rate</th><th>fft reject</th>
<th>k changes</th><th class="l">level fractions</th></tr>
{{range .Prune}}
<tr><td class="l">{{.Strategy}}</td><td>{{.Snap.Counts.Rotations}}</td>
<td>{{printf "%.4f" .Snap.PruneRate}}</td><td>{{printf "%.4f" .Snap.FFTRejectRate}}</td>
<td>{{.Snap.KChanges}}</td><td class="l">{{.Levels}}</td></tr>
{{end}}
</table>
{{end}}
<p class="meta">quantiles are bucket-resolution (power-of-two bounds) &middot;
exemplars on /metrics link latency buckets to retained traces</p>
`))
