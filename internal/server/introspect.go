package server

// This file holds index-health introspection and the explain dashboard
// panel: /debug/index serves a structural report of the rotation-invariant
// index built over the serving database (VP-tree shape, wedge-hierarchy
// merge quality), and the /debug/lbkeogh explain panel
// renders the bound-tightness sampler's aggregate.

import (
	"fmt"
	"html/template"
	"net/http"
	"strings"

	"lbkeogh"
)

// introspectMaxRows caps how many rows store mode's introspection index is
// built over. The report measures structural health (tree balance, merge
// quality), which a uniform stride sample preserves, so a million-shape
// store never pays a million-row index build for a debug endpoint.
const introspectMaxRows = 20000

// IndexReport is the /debug/index body: the health of the index that serves
// (static mode) or of one built over a sample of the store (store mode, which
// scans flat), plus a representative wedge hierarchy (the one a query for
// database row 0 builds, since wedge sets are per-query).
type IndexReport struct {
	Dims int `json:"dims"`
	Rows int `json:"rows"` // rows the report was built over
	// SampledFrom is the full database size when Rows is a sample of it
	// (store mode over a large store); 0 when the report covers every row.
	SampledFrom int                    `json:"sampled_from,omitempty"`
	Generation  int64                  `json:"generation,omitempty"` // store generation (store mode)
	Index       lbkeogh.IndexHealth    `json:"index"`
	Wedge       lbkeogh.WedgeTreeStats `json:"wedge"`
}

// buildIntrospection builds the report over the current database view.
func (s *Server) buildIntrospection() (IndexReport, error) {
	view := s.acquireView()
	defer view.release()
	if len(view.rows) == 0 {
		return IndexReport{}, fmt.Errorf("store is empty: nothing to introspect")
	}
	ix, rows, sampledFrom := s.ix, view.rows, 0
	if ix == nil {
		if len(rows) > introspectMaxRows { // a uniform stride sample of the pinned view
			sampledFrom = len(rows)
			stride := (len(rows) + introspectMaxRows - 1) / introspectMaxRows
			rows = make([]lbkeogh.Series, 0, sampledFrom/stride+1)
			for i := 0; i < sampledFrom; i += stride {
				rows = append(rows, view.rows[i])
			}
		}
		var err error
		if ix, err = lbkeogh.NewIndex(rows, serveDims); err != nil {
			return IndexReport{}, fmt.Errorf("building introspection index: %w", err)
		}
	}
	q, err := lbkeogh.NewQuery(rows[0], lbkeogh.Euclidean())
	if err != nil {
		return IndexReport{}, fmt.Errorf("building representative query: %w", err)
	}
	rep := IndexReport{
		Dims:        ix.Dims(),
		Rows:        len(rows),
		SampledFrom: sampledFrom,
		Index:       ix.Health(),
		Wedge:       q.WedgeStats(),
	}
	if s.store != nil {
		rep.Generation = s.store.Generation()
	}
	return rep, nil
}

// invalidateIntrospection marks the cached report stale after a store
// mutation; the next /debug/index request rebuilds it.
func (s *Server) invalidateIntrospection() {
	s.ixMu.Lock()
	s.ixBuilt = false
	s.ixMu.Unlock()
}

// handleDebugIndex serves the lazily built index-health report as JSON. In
// store mode the first request pays an index build; later ones are free until
// an ingest or compaction moves the store generation, which invalidates the
// cache.
func (s *Server) handleDebugIndex(w http.ResponseWriter, r *http.Request) {
	s.ixMu.Lock()
	stale := !s.ixBuilt
	if s.store != nil && s.ixGen != s.store.Generation() {
		stale = true
	}
	if stale {
		s.ixReport, s.ixErr = s.buildIntrospection()
		s.ixBuilt = true
		s.ixGen = s.ixReport.Generation
	}
	report, err := s.ixReport, s.ixErr
	s.ixMu.Unlock()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, report)
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
full histograms with trace-ID exemplars on /metrics &middot;
index structure health at <a href="/debug/index">/debug/index</a></p>
{{end}}{{end}}
`))
