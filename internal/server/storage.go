package server

// This file is the storage-plane dashboard: /debug/storage renders the
// segment heatmap (per-segment access recency × first-touch coverage), the
// cold/warm fetch split, and the storage event journal collected by the
// storeobs recorder the process attached to the segment store. The same
// recorder's per-segment aggregates are exposed on /metrics as the
// shapeserver_segment_* families written by writeSegmentMetrics.

import (
	"fmt"
	"html/template"
	"io"
	"net/http"
	"sort"
	"time"

	"lbkeogh/internal/obs/ops"
	"lbkeogh/internal/obs/storeobs"
)

// storageJournalTail bounds how many journal events the dashboard and the
// JSON report carry (newest last); ?format=jsonl streams the full ring.
const storageJournalTail = 64

// StorageSegment is one row of the /debug/storage heatmap: a live segment
// file joined across the store manifest (records) and the access accountant
// (reads, bytes, first-touch pages).
type StorageSegment struct {
	Segment   string `json:"segment"`
	Records   int64  `json:"records"`
	FileBytes int64  `json:"file_bytes"`

	// Reads and ReadBytes are per column (raw, fft, paa, meta).
	Reads      [storeobs.NumColumns]int64 `json:"reads"`
	ReadBytes  [storeobs.NumColumns]int64 `json:"read_bytes"`
	TotalReads int64                      `json:"total_reads"`

	// TouchedFraction is the fraction of the file's pages ever first-touched
	// through a read — the access-coverage axis of the heatmap.
	Pages           int64   `json:"pages"`
	TouchedPages    int64   `json:"touched_pages"`
	TouchedFraction float64 `json:"touched_fraction"`

	LastAccess time.Time `json:"last_access"`
	AgeSeconds float64   `json:"age_seconds"` // since LastAccess; -1 if never read
}

// StorageReport is the ?format=json body of /debug/storage.
type StorageReport struct {
	Generation        int64            `json:"generation"`
	Records           int64            `json:"records"`
	Totals            storeobs.Totals  `json:"totals"`
	ReadAmplification float64          `json:"read_amplification"`
	Segments          []StorageSegment `json:"segments"`
	Orphans           []string         `json:"orphans,omitempty"`
	JournalCounts     map[string]int64 `json:"journal_counts"`
	// Journal is the tail of the event ring, oldest first.
	Journal []storeobs.Event `json:"journal"`
}

// buildStorageReport joins the recorder's view with the store manifest.
func (s *Server) buildStorageReport() StorageReport {
	st := s.store.Stats()
	rep := StorageReport{
		Generation:    st.Generation,
		Records:       int64(st.Records),
		Totals:        s.storeObs.Totals(),
		Orphans:       st.Orphans,
		JournalCounts: s.storeObs.Journal().Counts(),
	}
	rep.ReadAmplification = rep.Totals.ReadAmplification()

	records := make(map[string]int64, len(st.Segments))
	for _, seg := range st.Segments {
		records[seg.File] = seg.Records
	}
	now := time.Now()
	for _, acct := range s.storeObs.Segments() {
		row := StorageSegment{
			Segment:      acct.Segment,
			Records:      records[acct.Segment],
			FileBytes:    acct.FileBytes,
			Reads:        acct.Reads,
			ReadBytes:    acct.Bytes,
			TotalReads:   acct.TotalReads(),
			Pages:        acct.Pages,
			TouchedPages: acct.TouchedPages,
			LastAccess:   acct.LastAccess,
			AgeSeconds:   -1,
		}
		if acct.Pages > 0 {
			row.TouchedFraction = float64(acct.TouchedPages) / float64(acct.Pages)
		}
		if !acct.LastAccess.IsZero() {
			row.AgeSeconds = now.Sub(acct.LastAccess).Seconds()
		}
		rep.Segments = append(rep.Segments, row)
	}
	sort.Slice(rep.Segments, func(i, j int) bool {
		return rep.Segments[i].Segment < rep.Segments[j].Segment
	})

	events := s.storeObs.Journal().Events()
	if len(events) > storageJournalTail {
		events = events[len(events)-storageJournalTail:]
	}
	rep.Journal = events
	return rep
}

// handleDebugStorage serves the storage-plane dashboard. ?format=json
// returns the report as JSON; ?format=jsonl streams the raw event journal
// one JSON object per line (the same form shapeingest logs).
func (s *Server) handleDebugStorage(w http.ResponseWriter, r *http.Request) {
	if s.storeObs == nil {
		writeError(w, http.StatusNotFound,
			"storage observability is not enabled (server has no store observer; run shapeserver with -segments)")
		return
	}
	switch r.URL.Query().Get("format") {
	case "jsonl":
		w.Header().Set("Content-Type", "application/jsonl")
		s.storeObs.Journal().WriteJSONL(w)
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

// writeSegmentMetrics appends the per-segment heat families to /metrics:
// the label cardinality is one series per live segment file, bounded by
// compaction the same way the files themselves are.
func (s *Server) writeSegmentMetrics(w io.Writer) {
	rep := s.buildStorageReport()
	ops.WriteFamily(w, "shapeserver_segment_reads_total", "counter",
		"Record and label reads served per live segment file.")
	for _, seg := range rep.Segments {
		fmt.Fprintf(w, "shapeserver_segment_reads_total{segment=%q} %d\n", seg.Segment, seg.TotalReads)
	}
	ops.WriteFamily(w, "shapeserver_segment_read_bytes_total", "counter",
		"Bytes requested from each live segment file.")
	for _, seg := range rep.Segments {
		var b int64
		for _, v := range seg.ReadBytes {
			b += v
		}
		fmt.Fprintf(w, "shapeserver_segment_read_bytes_total{segment=%q} %d\n", seg.Segment, b)
	}
	ops.WriteFamily(w, "shapeserver_segment_file_bytes", "gauge",
		"Size of each live segment file.")
	for _, seg := range rep.Segments {
		fmt.Fprintf(w, "shapeserver_segment_file_bytes{segment=%q} %d\n", seg.Segment, seg.FileBytes)
	}
	ops.WriteFamily(w, "shapeserver_segment_touched_fraction", "gauge",
		"Fraction of each segment's pages ever first-touched by a read.")
	for _, seg := range rep.Segments {
		fmt.Fprintf(w, "shapeserver_segment_touched_fraction{segment=%q} %s\n",
			seg.Segment, ops.FormatFloat(seg.TouchedFraction))
	}
	ops.WriteFamily(w, "shapeserver_segment_last_access_age_seconds", "gauge",
		"Seconds since each segment was last read (absent until first read).")
	for _, seg := range rep.Segments {
		if seg.AgeSeconds >= 0 {
			fmt.Fprintf(w, "shapeserver_segment_last_access_age_seconds{segment=%q} %s\n",
				seg.Segment, ops.FormatFloat(seg.AgeSeconds))
		}
	}
}

// storageFuncs are the template helpers: heat colors for the two heatmap
// axes and human-readable sizes/ages.
var storageFuncs = template.FuncMap{
	// heat maps a [0,1] fraction onto a cold-to-hot background.
	"heat": func(f float64) template.CSS {
		if f > 1 {
			f = 1
		}
		// 210° (cool blue) down to 0° (hot red), washed out for legibility.
		hue := 210 * (1 - f)
		return template.CSS(fmt.Sprintf("background:hsl(%.0f,70%%,85%%)", hue))
	},
	// recency maps age-seconds onto the same scale: just-read is hot,
	// minutes-old is cool, never-read is gray. Log-ish breakpoints.
	"recency": func(age float64) template.CSS {
		if age < 0 {
			return "background:#eee;color:#777"
		}
		f := 1.0
		switch {
		case age > 600:
			f = 0
		case age > 60:
			f = 0.25
		case age > 10:
			f = 0.5
		case age > 1:
			f = 0.75
		}
		hue := 210 * (1 - f)
		return template.CSS(fmt.Sprintf("background:hsl(%.0f,70%%,85%%)", hue))
	},
	"pct": func(f float64) string { return fmt.Sprintf("%.1f%%", 100*f) },
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
	"ago": func(age float64) string {
		if age < 0 {
			return "never"
		}
		return time.Duration(float64(time.Second) * age).Truncate(time.Millisecond).String()
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
<p class="meta">
cold fetches {{.Totals.ColdFetches}} &middot; warm fetches {{.Totals.WarmFetches}} &middot;
requested {{bytes .Totals.RequestedBytes}} &middot; faulted pages {{.Totals.FaultedPages}} &middot;
read amplification {{printf "%.2f" .ReadAmplification}}&times;
&middot; <a href="?format=json">json</a> &middot; <a href="?format=jsonl">journal jsonl</a>
</p>

<h2>segment heatmap</h2>
<table>
<tr><th class="l">segment</th><th>records</th><th>file</th><th>reads</th>
<th>raw</th><th>fft</th><th>paa</th><th>meta</th>
<th>touched pages</th><th>last read</th></tr>
{{range .Segments}}
<tr><td class="l">{{.Segment}}</td><td>{{.Records}}</td><td>{{bytes .FileBytes}}</td><td>{{.TotalReads}}</td>
<td>{{index .Reads 0}}</td><td>{{index .Reads 1}}</td><td>{{index .Reads 2}}</td><td>{{index .Reads 3}}</td>
<td style="{{heat .TouchedFraction}}">{{.TouchedPages}}/{{.Pages}} ({{pct .TouchedFraction}})</td>
<td style="{{recency .AgeSeconds}}">{{ago .AgeSeconds}}</td></tr>
{{end}}
</table>
<p class="meta">touched = pages first-touched by reads since the segment was opened (cold-read coverage) &middot;
colors run cold (blue) to hot (red), gray = never read</p>
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
