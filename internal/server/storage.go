package server

// This file is the storage-plane dashboard: /debug/storage renders the
// store's generation and live segments, the orphans found at open, and the
// storage event journal the process attached to the store
// (segment.DB.SetJournal) — as a compaction and ingest timeline and as the
// raw event tail.

import (
	"fmt"
	"html/template"
	"net/http"
	"time"

	"lbkeogh/internal/obs/storeobs"
	"lbkeogh/internal/segment"
)

// storageJournalTail bounds how many journal events the dashboard and the
// JSON report carry (newest last); ?format=jsonl streams the full ring.
const storageJournalTail = 64

// StorageReport is the ?format=json body of /debug/storage.
type StorageReport struct {
	Generation    int64                     `json:"generation"`
	Records       int64                     `json:"records"`
	Segments      []segment.ManifestSegment `json:"segments"`
	Orphans       []string                  `json:"orphans,omitempty"`
	JournalCounts map[string]int64          `json:"journal_counts"`
	// Journal is the tail of the event ring, oldest first.
	Journal []storeobs.Event `json:"journal"`
}

// buildStorageReport joins the store's stats with its journal.
func (s *Server) buildStorageReport() StorageReport {
	st := s.store.Stats()
	j := s.store.Journal()
	events := j.Events()
	if len(events) > storageJournalTail {
		events = events[len(events)-storageJournalTail:]
	}
	return StorageReport{
		Generation:    st.Generation,
		Records:       int64(st.Records),
		Segments:      st.Segments,
		Orphans:       st.Orphans,
		JournalCounts: j.Counts(),
		Journal:       events,
	}
}

// handleDebugStorage serves the storage-plane dashboard. ?format=json
// returns the report as JSON; ?format=jsonl streams the raw event journal
// one JSON object per line (the same form shapeingest logs).
func (s *Server) handleDebugStorage(w http.ResponseWriter, r *http.Request) {
	if s.store == nil {
		writeError(w, http.StatusNotFound,
			"the storage dashboard is not enabled (server has no segment store; run shapeserver with -segments)")
		return
	}
	switch r.URL.Query().Get("format") {
	case "jsonl":
		w.Header().Set("Content-Type", "application/jsonl")
		s.store.Journal().WriteJSONL(w)
		return
	case "json":
		writeJSON(w, http.StatusOK, s.buildStorageReport())
		return
	}
	rep := s.buildStorageReport()
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := storageTemplate.Execute(w, rep); err != nil {
		// Too late for a status change; note the failure in the body.
		fmt.Fprintf(w, "<!-- template: %v -->", err)
	}
}

// storageFuncs are the template helpers: human-readable sizes and times, and
// the timeline's duration bars.
var storageFuncs = template.FuncMap{
	"bytes": func(b int64) string {
		switch {
		case b >= 1<<30:
			return fmt.Sprintf("%.2f GiB", float64(b)/(1<<30))
		case b >= 1<<20:
			return fmt.Sprintf("%.2f MiB", float64(b)/(1<<20))
		case b >= 1<<10:
			return fmt.Sprintf("%.1f KiB", float64(b)/(1<<10))
		}
		return fmt.Sprintf("%d B", b)
	},
	"durms": func(sec float64) string {
		return time.Duration(float64(time.Second) * sec).Truncate(time.Microsecond).String()
	},
	"wall": func(t time.Time) string { return t.Format("15:04:05.000") },
	// barwidth scales an operation duration to a pixel bar, log-compressed
	// so a 10s compaction doesn't push a 2ms ingest off the page.
	"barwidth": func(sec float64) int {
		px := 8
		for sec >= 0.001 && px < 200 {
			px += 24
			sec /= 10
		}
		return px
	},
	"lifecycle": func(kind string) bool {
		switch kind {
		case storeobs.EventIngestBatch, storeobs.EventSegmentCompacted, storeobs.EventManifestSwap:
			return true
		}
		return false
	},
}

var storageTemplate = template.Must(template.New("storage").Funcs(storageFuncs).Parse(`<!doctype html>
<html><head><title>lbkeogh storage</title><style>
body { font-family: system-ui, sans-serif; margin: 2em; color: #222; }
h1 { font-size: 1.3em; } h2 { font-size: 1.1em; margin-top: 1.5em; }
table { border-collapse: collapse; font-size: 0.9em; }
th, td { border: 1px solid #ccc; padding: 0.25em 0.6em; text-align: right; }
th.l, td.l { text-align: left; }
.meta { color: #666; font-size: 0.85em; }
.bar { display: inline-block; height: 0.7em; background: #69c; vertical-align: middle; }
</style></head><body>
<h1>storage plane &middot; generation {{.Generation}} &middot; {{.Records}} records</h1>
<p class="meta"><a href="?format=json">json</a> &middot; <a href="?format=jsonl">journal jsonl</a></p>

<h2>live segments</h2>
<table>
<tr><th class="l">segment</th><th>records</th></tr>
{{range .Segments}}
<tr><td class="l">{{.File}}</td><td>{{.Records}}</td></tr>
{{end}}
</table>
{{if .Orphans}}<p class="meta">orphaned segment files ignored at open: {{range .Orphans}}{{.}} {{end}}</p>{{end}}

<h2>compaction &amp; ingest timeline</h2>
<table>
<tr><th>seq</th><th>wall</th><th class="l">kind</th><th class="l">note</th><th>records</th><th>bytes</th><th>reclaimed</th><th>duration</th><th class="l"></th></tr>
{{range .Journal}}{{if lifecycle .Kind}}
<tr><td>{{.Seq}}</td><td>{{wall .Wall}}</td><td class="l">{{.Kind}}</td><td class="l">{{.Note}}</td>
<td>{{.Records}}</td><td>{{bytes .Bytes}}</td><td>{{bytes .ReclaimedBytes}}</td><td>{{durms .DurationSeconds}}</td>
<td class="l"><span class="bar" style="width:{{barwidth .DurationSeconds}}px"></span></td></tr>
{{end}}{{end}}
</table>

<h2>event journal (last {{len .Journal}})</h2>
<table>
<tr><th>seq</th><th>wall</th><th class="l">kind</th><th class="l">segment</th><th>gen</th><th>records</th><th>bytes</th><th>duration</th><th class="l">note</th></tr>
{{range .Journal}}
<tr><td>{{.Seq}}</td><td>{{wall .Wall}}</td><td class="l">{{.Kind}}</td><td class="l">{{.Segment}}</td>
<td>{{.Generation}}</td><td>{{.Records}}</td><td>{{.Bytes}}</td><td>{{durms .DurationSeconds}}</td><td class="l">{{.Note}}</td></tr>
{{end}}
</table>
<p class="meta">per-kind totals: {{range $k, $v := .JournalCounts}}{{$k}}={{$v}} {{end}}</p>
</body></html>
`))
