package lbkeogh

import (
	"encoding/json"
	"fmt"
	"html/template"
	"net/http"
	"sort"
	"strconv"
	"time"

	"lbkeogh/internal/obs/trace"
)

// DebugHandler serves the live observability dashboard. Mount it at
// /debug/lbkeogh:
//
//	http.Handle("/debug/lbkeogh", lbkeogh.DebugHandler(
//	        map[string]lbkeogh.StatsSource{"query": q},
//	        map[string]*lbkeogh.TraceLog{"query": tlog},
//	))
//
// The page renders each source's counter record, each log's per-stage
// latency quantiles, the slow-query log, and a span waterfall per retained
// trace. Query parameters select machine-readable exports instead of HTML:
// ?log=<name>&format=chrome downloads every retained trace of that log as a
// Chrome trace-event file (Perfetto-loadable); adding &trace=<id> narrows to
// one trace. Either map may be nil.
func DebugHandler(stats map[string]StatsSource, logs map[string]*TraceLog) http.Handler {
	return DebugHandlerWithPanels(stats, logs)
}

// DebugPanel is an extra dashboard section rendered between the counter
// tables and the trace logs. HTML is called per request, so panels can show
// live state; the serving layer uses this to splice its per-endpoint request
// record into the same page.
type DebugPanel struct {
	Title string
	HTML  func() template.HTML
}

// DebugHandlerWithPanels is DebugHandler with extra dashboard panels.
func DebugHandlerWithPanels(stats map[string]StatsSource, logs map[string]*TraceLog, panels ...DebugPanel) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if name := r.URL.Query().Get("log"); name != "" {
			serveTraceExport(w, r, logs[name])
			return
		}
		page := buildDebugPage(stats, logs)
		for _, p := range panels {
			page.Panels = append(page.Panels, debugPanel{Title: p.Title, Body: p.HTML()})
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		if err := debugTemplate.Execute(w, page); err != nil {
			// Headers are already out; all we can do is log into the body.
			fmt.Fprintf(w, "<!-- render error: %v -->", err)
		}
	})
}

// serveTraceExport answers the ?log=&format=&trace= download routes.
func serveTraceExport(w http.ResponseWriter, r *http.Request, t *TraceLog) {
	if t == nil {
		http.Error(w, "unknown trace log", http.StatusNotFound)
		return
	}
	if format := r.URL.Query().Get("format"); format != "" && format != "chrome" {
		http.Error(w, "format must be chrome", http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	idStr := r.URL.Query().Get("trace")
	if idStr == "" {
		if err := t.WriteChromeTraces(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
		return
	}
	id, err := strconv.ParseInt(idStr, 10, 64)
	if err != nil {
		http.Error(w, "bad trace id", http.StatusBadRequest)
		return
	}
	if err := t.WriteChromeTrace(w, id); err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
	}
}

// maxWaterfallRows bounds the spans rendered per trace so a saturated trace
// cannot blow up the page; exports always carry every span.
const maxWaterfallRows = 96

type debugPage struct {
	Generated time.Time
	Sources   []debugSource
	Panels    []debugPanel
	Logs      []debugLog
}

type debugPanel struct {
	Title string
	Body  template.HTML
}

type debugSource struct {
	Name  string
	Stats SearchStats
}

type debugLog struct {
	Name          string
	Finished      int64
	Sampled       int64
	SlowThreshold time.Duration
	Stages        []StageLatency
	Slow          []debugTrace
	Recent        []debugTrace
}

type debugTrace struct {
	ID        int64
	Label     string
	Start     string
	Dur       time.Duration
	Slow      bool
	Dropped   int64
	Truncated int // rows hidden beyond maxWaterfallRows
	ChromeURL string
	Rows      []debugSpanRow
}

type debugSpanRow struct {
	Indent   int
	Stage    string
	Ref      int32
	Dur      time.Duration
	LeftPct  float64
	WidthPct float64
	Attrs    string
}

func buildDebugPage(stats map[string]StatsSource, logs map[string]*TraceLog) debugPage {
	page := debugPage{Generated: time.Now()}
	names := make([]string, 0, len(stats))
	for n := range stats {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		page.Sources = append(page.Sources, debugSource{Name: n, Stats: stats[n].Stats()})
	}
	logNames := make([]string, 0, len(logs))
	for n := range logs {
		logNames = append(logNames, n)
	}
	sort.Strings(logNames)
	for _, n := range logNames {
		t := logs[n]
		if t == nil {
			continue
		}
		finished, sampled := t.Totals()
		dl := debugLog{
			Name:          n,
			Finished:      finished,
			Sampled:       sampled,
			SlowThreshold: t.SlowThreshold(),
			Stages:        t.StageLatencies(),
		}
		for _, tr := range t.inner().Slow() {
			dl.Slow = append(dl.Slow, buildDebugTrace(n, tr))
		}
		for _, tr := range t.inner().Recent() {
			dl.Recent = append(dl.Recent, buildDebugTrace(n, tr))
		}
		// Newest first reads better in a live log.
		reverse(dl.Slow)
		reverse(dl.Recent)
		page.Logs = append(page.Logs, dl)
	}
	return page
}

func reverse(ts []debugTrace) {
	for i, j := 0, len(ts)-1; i < j; i, j = i+1, j-1 {
		ts[i], ts[j] = ts[j], ts[i]
	}
}

func buildDebugTrace(logName string, tr trace.Trace) debugTrace {
	out := debugTrace{
		ID:        tr.ID,
		Label:     tr.Label,
		Start:     tr.Wall.Format("15:04:05.000"),
		Dur:       time.Duration(tr.DurNS),
		Slow:      tr.Slow,
		Dropped:   tr.Dropped,
		ChromeURL: fmt.Sprintf("?log=%s&trace=%d&format=chrome", logName, tr.ID),
	}
	total := tr.DurNS
	if total <= 0 {
		total = 1
	}
	depth := make([]int, len(tr.Spans))
	for i, sp := range tr.Spans {
		if sp.Parent >= 0 && int(sp.Parent) < i {
			depth[i] = depth[sp.Parent] + 1
		}
	}
	n := len(tr.Spans)
	if n > maxWaterfallRows {
		out.Truncated = n - maxWaterfallRows
		n = maxWaterfallRows
	}
	for i := 0; i < n; i++ {
		sp := tr.Spans[i]
		row := debugSpanRow{
			Indent:   depth[i],
			Stage:    sp.Stage.String(),
			Ref:      sp.Ref,
			Dur:      time.Duration(sp.Dur),
			LeftPct:  float64(sp.Start) / float64(total) * 100,
			WidthPct: float64(sp.Dur) / float64(total) * 100,
		}
		if row.WidthPct < 0.25 {
			row.WidthPct = 0.25 // keep hair-thin spans visible
		}
		if sp.Attrs != (Counts{}) {
			if b, err := json.Marshal(sp.Attrs); err == nil {
				row.Attrs = string(b)
			}
		}
		out.Rows = append(out.Rows, row)
	}
	return out
}

var debugTemplate = template.Must(template.New("debug").Funcs(template.FuncMap{
	"ns": func(v int64) string { return time.Duration(v).String() },
	"indentPx": func(n int) int {
		return n * 14
	},
}).Parse(`<!DOCTYPE html>
<html><head><title>lbkeogh debug</title><style>
body { font: 13px/1.5 system-ui, sans-serif; margin: 1.5em; color: #222; }
h1 { font-size: 1.3em; } h2 { font-size: 1.1em; margin-top: 1.6em; }
h3 { font-size: 1em; margin: 1em 0 0.3em; }
table { border-collapse: collapse; margin: 0.4em 0 1em; }
th, td { border: 1px solid #ccc; padding: 2px 8px; text-align: right; }
th { background: #f2f2f2; }
td.l, th.l { text-align: left; }
.wf { width: 30em; position: relative; background: #fafafa; }
.bar { position: absolute; top: 2px; bottom: 2px; background: #4a90d9; border-radius: 2px; }
.bar.fetch { background: #c6b30a; }
.slow { color: #b00; font-weight: bold; }
.meta { color: #777; }
details { margin: 0.3em 0; }
summary { cursor: pointer; }
</style></head><body>
<h1>lbkeogh observability</h1>
<p class="meta">generated {{.Generated.Format "2006-01-02 15:04:05.000"}}</p>

{{range .Sources}}
<h2>stats: {{.Name}}</h2>
<table>
<tr><th>comparisons</th><th>rotations</th><th>steps</th><th>full dist</th><th>abandons</th>
<th>wedge pruned</th><th>leaf LB prunes</th><th>fft rejected</th><th>prune rate</th>
<th>index fetches</th></tr>
<tr><td>{{.Stats.Comparisons}}</td><td>{{.Stats.Rotations}}</td><td>{{.Stats.Steps}}</td>
<td>{{.Stats.FullDistEvals}}</td><td>{{.Stats.EarlyAbandons}}</td>
<td>{{.Stats.WedgePrunedMembers}}</td><td>{{.Stats.WedgeLeafLBPrunes}}</td>
<td>{{.Stats.FFTRejectedMembers}}</td><td>{{printf "%.4f" .Stats.PruneRate}}</td>
<td>{{.Stats.IndexFetches}}</td></tr>
</table>
{{end}}

{{range .Panels}}
<h2>{{.Title}}</h2>
{{.Body}}
{{end}}

{{range .Logs}}
<h2>trace log: {{.Name}}</h2>
<p class="meta">{{.Finished}} traces finished, {{.Sampled}} sampled;
slow threshold {{.SlowThreshold}} &middot;
<a href="?log={{.Name}}&format=chrome">download all retained traces (Chrome trace-event JSON)</a></p>

{{if .Stages}}
<h3>stage latencies</h3>
<table>
<tr><th class="l">stage</th><th>count</th><th>sum</th><th>p50</th><th>p90</th><th>p99</th></tr>
{{range .Stages}}
<tr><td class="l">{{.Stage}}</td><td>{{.Count}}</td><td>{{ns .SumNS}}</td>
<td>{{ns .P50NS}}</td><td>{{ns .P90NS}}</td><td>{{ns .P99NS}}</td></tr>
{{end}}
</table>
{{end}}

{{if .Slow}}
<h3>slow queries</h3>
{{template "traces" .Slow}}
{{end}}

{{if .Recent}}
<h3>recent traces (sampled)</h3>
{{template "traces" .Recent}}
{{end}}
{{end}}

{{define "traces"}}
{{range .}}
<details>
<summary>#{{.ID}} {{.Label}} &middot; {{.Start}} &middot;
{{if .Slow}}<span class="slow">{{.Dur}}</span>{{else}}{{.Dur}}{{end}}
&middot; {{len .Rows}} spans{{if .Dropped}} ({{.Dropped}} dropped){{end}}
&middot; <a href="{{.ChromeURL}}">chrome</a></summary>
<table>
<tr><th class="l">stage</th><th>ref</th><th>dur</th><th class="l wf">waterfall</th><th class="l">attrs</th></tr>
{{range .Rows}}
<tr>
<td class="l" style="padding-left: {{indentPx .Indent}}px">{{.Stage}}</td>
<td>{{if ge .Ref 0}}{{.Ref}}{{end}}</td>
<td>{{.Dur}}</td>
<td class="wf"><div class="bar {{.Stage}}" style="left: {{printf "%.2f" .LeftPct}}%; width: {{printf "%.2f" .WidthPct}}%"></div></td>
<td class="l">{{.Attrs}}</td>
</tr>
{{end}}
</table>
{{if .Truncated}}<p class="meta">{{.Truncated}} more spans not shown (exports carry all).</p>{{end}}
</details>
{{end}}
{{end}}
</body></html>
`))
