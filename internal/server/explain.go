package server

// This file holds the explain dashboard panel: the /debug/lbkeogh panel
// that renders the bound-tightness sampler's aggregate.

import (
	"html/template"
	"strings"

	"lbkeogh"
)

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
full histograms on /metrics</p>
{{end}}{{end}}
`))
