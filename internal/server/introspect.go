package server

// This file holds index-health introspection and the explain dashboard
// panel: /debug/index serves a structural report of the rotation-invariant
// index static mode answers through (VP-tree shape, wedge-hierarchy merge
// quality), and the /debug/lbkeogh explain panel
// renders the bound-tightness sampler's aggregate.

import (
	"html/template"
	"net/http"
	"strings"

	"lbkeogh"
)

// IndexReport is the /debug/index body: the health of the index that serves
// static mode, plus a representative wedge hierarchy (the one a query for
// database row 0 builds, since wedge sets are per-query).
type IndexReport struct {
	Dims  int                    `json:"dims"`
	Rows  int                    `json:"rows"`
	Index lbkeogh.IndexHealth    `json:"index"`
	Wedge lbkeogh.WedgeTreeStats `json:"wedge"`
}

// handleDebugIndex serves the index-health report as JSON, built per
// request. Store mode has no index to describe — it scans its snapshots
// flat — and answers 404.
func (s *Server) handleDebugIndex(w http.ResponseWriter, r *http.Request) {
	if s.ix == nil {
		writeError(w, http.StatusNotFound, "store mode scans flat: no index serves, so there is none to describe")
		return
	}
	q, err := lbkeogh.NewQuery(s.cfg.DB[0], lbkeogh.Euclidean())
	if err != nil {
		writeError(w, http.StatusInternalServerError, "building representative query: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, IndexReport{
		Dims:  s.ix.Dims(),
		Rows:  len(s.cfg.DB),
		Index: s.ix.Health(),
		Wedge: q.WedgeStats(),
	})
}

// explainPanel renders the bound-tightness sampler on /debug/lbkeogh.
func (s *Server) explainPanel() lbkeogh.DebugPanel {
	return lbkeogh.DebugPanel{
		Title: "bound tightness (sampled waterfalls)",
		HTML:  s.explainPanelHTML,
	}
}

type explainPanelData struct {
	Off  bool
	Snap lbkeogh.BoundSamplerSnapshot
}

func (s *Server) explainPanelHTML() template.HTML {
	data := explainPanelData{Off: s.sampler == nil}
	if s.sampler != nil {
		data.Snap = s.sampler.Snapshot()
	}
	var b strings.Builder
	if err := explainPanelTemplate.Execute(&b, data); err != nil {
		return template.HTML(template.HTMLEscapeString(err.Error()))
	}
	return template.HTML(b.String())
}

var explainPanelTemplate = template.Must(template.New("explain").Parse(`
{{if .Off}}<p class="meta">bound-tightness sampling is disabled (ExplainSampleInterval &lt; 0)</p>{{else}}
<p class="meta">{{.Snap.Sampled}} of {{.Snap.Seen}} comparisons sampled (interval {{.Snap.Interval}}) &middot;
{{.Snap.Survived}} survived every stage &middot; {{.Snap.KernelKills}} killed only by the exact kernel</p>
{{if .Snap.Bounds}}
<table>
<tr><th class="l">bound</th><th>checks</th><th>ratio p50</th><th>ratio p90</th><th>mean</th>
<th>false pos</th><th>fp fraction</th><th>eliminated</th></tr>
{{range .Snap.Bounds}}
<tr><td class="l">{{.Bound}}</td><td>{{.Checks}}</td>
<td>{{printf "%.2f" .P50Ratio}}</td><td>{{printf "%.2f" .P90Ratio}}</td><td>{{printf "%.3f" .MeanRatio}}</td>
<td>{{.FalsePositives}}</td><td>{{printf "%.4f" .FalsePositiveFraction}}</td><td>{{.Eliminated}}</td></tr>
{{end}}
</table>
<p class="meta">ratio = lower bound / true rotation-invariant distance (1 = perfectly tight) &middot;
full histograms on /metrics &middot;
index structure health at <a href="/debug/index">/debug/index</a></p>
{{end}}{{end}}
`))
