package server

import (
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"lbkeogh"
	"lbkeogh/internal/obs"
	"lbkeogh/internal/obs/expofmt"
)

// metricsInventory lists what a scrape is made of — one `family · type ·
// {label keys}` line per distinct combination, sorted — and nothing of what it
// measured. The two process-stat families are left out: they exist on Linux
// only.
func metricsInventory(exp *expofmt.Exposition) string {
	seen := map[string]bool{}
	for _, s := range exp.Samples {
		fam := s.Name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base := strings.TrimSuffix(fam, suffix); base != fam && exp.Types[base] == "histogram" {
				fam = base
			}
		}
		if fam == "shapeserver_page_faults_total" || fam == "shapeserver_rss_bytes" {
			continue
		}
		var keys []string
		for k := range s.Labels {
			if k != "le" { // every histogram has it; its _sum and _count do not
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		seen[fam+" · "+exp.Types[fam]+" · {"+strings.Join(keys, ",")+"}"] = true
	}
	lines := make([]string, 0, len(seen))
	for l := range seen {
		lines = append(lines, l)
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}

// TestMetricsInventoryPinned pins the families, types and label keys /metrics
// serves after one fixed session — a search, a top-K, a range, a refused
// request and an EXPLAIN search — in static and in store mode, and holds every
// shapeserver_<counter>_total family to the sum of that counter over the responses'
// own stats: the server's cumulative record is its requests' deltas and
// nothing else. Both goldens were captured at 2c81433, before the server's
// aggregate became an obs.SearchStats, and have since only lost lines: the
// page-residency sampler's lbkeogh_store_residency_* and
// lbkeogh_store_resident_bytes (page faults against RSS and mapped bytes
// answer the same question), then the four derived pruning-waterfall
// families (each stage one outcome counter above or the sum of two), then the
// store's fetch and page accounting — ten lbkeogh_store_ families and five
// shapeserver_segment_ ones — leaving the journal's (the index's fetch span
// times a fetch), then the rolling windows' thirteen shapeserver_window_* and
// shapeserver_slo_* gauges, each a ratio or delta of the cumulative families
// checked here that a scraper takes itself (README "Request accounting, SLOs
// and burn rates"), then four counters that restated another: two index
// counters and the store's read counter beside shapeserver_index_fetches, and
// a request counter beside shapeserver_admitted_total, then the store
// journal's lbkeogh_store_journal_events_total, whose per-kind counts
// restated shapeserver_store_ingests_total, shapeserver_store_compactions_total
// and the ingest and compact request logs. Two sets of lines were
// renamed, not lost: the counters WriteMetrics builds from obs.Counts gained
// their _total suffix, and shapeserver_stage_latency_ns became
// shapeserver_stage_latency_seconds.
func TestMetricsInventoryPinned(t *testing.T) {
	session := func(t *testing.T, ts *httptest.Server, golden string) {
		var sum obs.Counts
		var levels []int64
		for _, rq := range []struct {
			path, body string
			want       int
		}{
			{"/v1/search", `{"query_index":1}`, http.StatusOK},
			{"/v1/topk", `{"query_index":2,"k":3}`, http.StatusOK},
			{"/v1/range", `{"query_index":3,"threshold":2}`, http.StatusOK},
			{"/v1/search", `{}`, http.StatusBadRequest},
			{"/v1/search", `{"query_index":4,"measure":"dtw","r":2,"explain":true}`, http.StatusOK},
		} {
			code, sr, raw := post(t, ts, rq.path, rq.body)
			if code != rq.want {
				t.Fatalf("%s %s: status %d, want %d (%s)", rq.path, rq.body, code, rq.want, raw)
			}
			sum = sum.Add(sr.Stats.Counts)
			for l, v := range sr.Stats.WedgePrunesByLevel {
				if l == len(levels) {
					levels = append(levels, 0)
				}
				levels[l] += v
			}
		}
		if sum.Comparisons == 0 || sum.WedgePrunedMembers == 0 || len(levels) == 0 || !sum.Reconciles() {
			t.Fatalf("the session's summed stats %+v", sum)
		}
		exp := scrapeMetrics(t, ts)
		sum.Each(func(key, _ string, want int64) {
			if v, ok := exp.Value("shapeserver_"+key+"_total", nil); !ok || int64(v) != want {
				t.Errorf("shapeserver_%s_total = %v (present %v), the responses' stats sum to %d", key, v, ok, want)
			}
		})
		// The request-duration histogram is cumulative: every terminal request
		// is in it, whichever class it ended in. Every endpoint's series has
		// the same le set, the histogram's whole layout, so a scraper may sum
		// by le across endpoints (compact served nothing here).
		les := map[string][]string{}
		for _, s := range exp.Find("shapeserver_request_duration_seconds_bucket") {
			les[s.Labels["endpoint"]] = append(les[s.Labels["endpoint"]], s.Labels["le"])
		}
		for _, ep := range telemetryEndpoints {
			if got, want := strings.Join(les[ep], " "), strings.Join(les["search"], " "); got != want || len(les[ep]) != obs.HistogramBuckets+1 {
				t.Errorf("request-duration le set of %q:\n%s\nwant %d buckets, the same as search's:\n%s", ep, got, obs.HistogramBuckets+1, want)
			}
			var served int64
			for _, s := range exp.Find("shapeserver_endpoint_requests_total") {
				if s.Labels["endpoint"] == ep {
					served += int64(s.Value)
				}
			}
			if n := exp.Counter("shapeserver_request_duration_seconds_count", map[string]string{"endpoint": ep}); n != served {
				t.Errorf("shapeserver_request_duration_seconds_count{endpoint=%q} = %d, shapeserver_endpoint_requests_total sums to %d", ep, n, served)
			}
		}
		// The per-level prunes, too, are the responses' sum level by level.
		for l, want := range levels {
			level := map[string]string{"level": strconv.Itoa(l)}
			if v, _ := exp.Value("shapeserver_wedge_prunes_by_level_total", level); int64(v) != want {
				t.Errorf("shapeserver_wedge_prunes_by_level_total{level=\"%d\"} = %v, the responses' stats sum to %d", l, v, want)
			}
		}
		if got := metricsInventory(exp); got != golden {
			t.Errorf("/metrics inventory:\n%s\nwant:\n%s", got, golden)
		}
	}
	t.Run("static", func(t *testing.T) {
		_, ts := newTestServer(t, Config{TraceLog: lbkeogh.NewTraceLog(lbkeogh.WithSampleRate(1))})
		session(t, ts, staticInventoryGolden)
	})
	t.Run("store", func(t *testing.T) {
		_, _, ts := newStoreServer(t, Config{TraceLog: lbkeogh.NewTraceLog(lbkeogh.WithSampleRate(1))})
		if code, raw := postJSON(t, ts, "/v1/ingest", ingestBody(storeRows(7, 20, 32)), nil); code != http.StatusOK {
			t.Fatalf("ingest: status %d body %s", code, raw)
		}
		session(t, ts, storeInventoryGolden)
	})
}

// TestReadmeMetricFamiliesServed holds README.md to what /metrics serves:
// every shapeserver_… or lbkeogh_… name in code — an inline-backticked span
// or a fenced block, anywhere inside it, so a query such as
// `rate(shapeserver_rotations_total[5m])` is checked too — must name a family of the
// inventories TestMetricsInventoryPinned pins (a histogram's _bucket, _sum and
// _count count as the histogram), be a prefix of one when written `prefix_*`
// or a bare `prefix_`, or sit on the allowlist below.
func TestReadmeMetricFamiliesServed(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	types := map[string]string{}
	for _, golden := range []string{staticInventoryGolden, storeInventoryGolden} {
		for _, line := range strings.Split(strings.TrimSpace(golden), "\n") {
			parts := strings.Split(line, " · ")
			types[parts[0]] = parts[1]
		}
	}
	allowed := map[string]bool{
		// The process-stat pair: Linux only, so metricsInventory leaves it out.
		"shapeserver_page_faults_total": true,
		"shapeserver_rss_bytes":         true,
		// The pread segment reader's build tag, not a family.
		"lbkeogh_pread": true,
	}
	served := func(tok string) bool {
		if prefix, ok := strings.CutSuffix(tok, "*"); ok || strings.HasSuffix(tok, "_") {
			for fam := range types {
				if strings.HasPrefix(fam, prefix) {
					return true
				}
			}
			return false
		}
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base, ok := strings.CutSuffix(tok, suffix); ok && types[base] == "histogram" {
				return true
			}
		}
		return types[tok] != "" || allowed[tok]
	}
	fence := regexp.MustCompile("(?s)```.*?```")
	code := fence.FindAllString(string(readme), -1)
	code = append(code, regexp.MustCompile("`[^`\n]+`").FindAllString(fence.ReplaceAllString(string(readme), ""), -1)...)
	name := regexp.MustCompile(`\b(?:shapeserver|lbkeogh)_[a-z0-9_]*\*?`)
	var tokens int
	for _, span := range code {
		for _, tok := range name.FindAllString(span, -1) {
			tokens++
			if !served(tok) {
				t.Errorf("README.md names %q (in %s), which /metrics does not serve", tok, span)
			}
		}
	}
	if tokens == 0 {
		t.Fatal("README.md names no metric family")
	}
}

const staticInventoryGolden = `lbkeogh_explain_bound_checks_total · counter · {bound}
lbkeogh_explain_bound_eliminated_total · counter · {bound}
lbkeogh_explain_bound_false_positives_total · counter · {bound}
lbkeogh_explain_bound_tightness_ratio · histogram · {bound}
lbkeogh_explain_comparisons_seen_total · counter · {}
lbkeogh_explain_sampled_kernel_kills_total · counter · {}
lbkeogh_explain_sampled_survivors_total · counter · {}
lbkeogh_explain_samples_total · counter · {}
lbkeogh_runtime_gc_cycles_total · counter · {}
lbkeogh_runtime_gc_pause_seconds · histogram · {}
lbkeogh_runtime_goroutines · gauge · {}
lbkeogh_runtime_heap_bytes · gauge · {}
lbkeogh_runtime_sched_latency_seconds · histogram · {}
lbkeogh_runtime_total_bytes · gauge · {}
shapeserver_admitted_total · counter · {}
shapeserver_cancelled_members_total · counter · {}
shapeserver_comparisons_total · counter · {}
shapeserver_drained_total · counter · {}
shapeserver_draining · gauge · {}
shapeserver_early_abandons_total · counter · {}
shapeserver_endpoint_requests_total · counter · {class,endpoint}
shapeserver_fft_fallbacks_total · counter · {}
shapeserver_fft_rejected_members_total · counter · {}
shapeserver_fft_rejects_total · counter · {}
shapeserver_full_dist_evals_total · counter · {}
shapeserver_index_fetches_total · counter · {}
shapeserver_inflight · gauge · {}
shapeserver_k_changes_total · counter · {}
shapeserver_pool_evictions_total · counter · {}
shapeserver_pool_hits_total · counter · {}
shapeserver_pool_idle · gauge · {}
shapeserver_pool_misses_total · counter · {}
shapeserver_queue_waiting · gauge · {}
shapeserver_rejected_total · counter · {}
shapeserver_request_duration_seconds · histogram · {endpoint}
shapeserver_rotations_total · counter · {}
shapeserver_stage_latency_seconds · histogram · {stage}
shapeserver_steps_total · counter · {}
shapeserver_timeouts_total · counter · {}
shapeserver_wedge_leaf_lb_prunes_total · counter · {}
shapeserver_wedge_leaf_visits_total · counter · {}
shapeserver_wedge_node_visits_total · counter · {}
shapeserver_wedge_pruned_members_total · counter · {}
shapeserver_wedge_prunes_by_level_total · counter · {level}
`

const storeInventoryGolden = `lbkeogh_explain_bound_checks_total · counter · {bound}
lbkeogh_explain_bound_eliminated_total · counter · {bound}
lbkeogh_explain_bound_false_positives_total · counter · {bound}
lbkeogh_explain_bound_tightness_ratio · histogram · {bound}
lbkeogh_explain_comparisons_seen_total · counter · {}
lbkeogh_explain_sampled_kernel_kills_total · counter · {}
lbkeogh_explain_sampled_survivors_total · counter · {}
lbkeogh_explain_samples_total · counter · {}
lbkeogh_runtime_gc_cycles_total · counter · {}
lbkeogh_runtime_gc_pause_seconds · histogram · {}
lbkeogh_runtime_goroutines · gauge · {}
lbkeogh_runtime_heap_bytes · gauge · {}
lbkeogh_runtime_sched_latency_seconds · histogram · {}
lbkeogh_runtime_total_bytes · gauge · {}
shapeserver_admitted_total · counter · {}
shapeserver_cancelled_members_total · counter · {}
shapeserver_comparisons_total · counter · {}
shapeserver_drained_total · counter · {}
shapeserver_draining · gauge · {}
shapeserver_early_abandons_total · counter · {}
shapeserver_endpoint_requests_total · counter · {class,endpoint}
shapeserver_fft_fallbacks_total · counter · {}
shapeserver_fft_rejected_members_total · counter · {}
shapeserver_fft_rejects_total · counter · {}
shapeserver_full_dist_evals_total · counter · {}
shapeserver_index_fetches_total · counter · {}
shapeserver_inflight · gauge · {}
shapeserver_k_changes_total · counter · {}
shapeserver_pool_evictions_total · counter · {}
shapeserver_pool_hits_total · counter · {}
shapeserver_pool_idle · gauge · {}
shapeserver_pool_misses_total · counter · {}
shapeserver_queue_waiting · gauge · {}
shapeserver_rejected_total · counter · {}
shapeserver_request_duration_seconds · histogram · {endpoint}
shapeserver_rotations_total · counter · {}
shapeserver_stage_latency_seconds · histogram · {stage}
shapeserver_steps_total · counter · {}
shapeserver_store_busy · gauge · {}
shapeserver_store_compactions_total · counter · {}
shapeserver_store_generation · gauge · {}
shapeserver_store_ingested_records_total · counter · {}
shapeserver_store_ingests_total · counter · {}
shapeserver_store_mapped_bytes · gauge · {}
shapeserver_store_records · gauge · {}
shapeserver_store_segment_records · gauge · {segment}
shapeserver_store_segments · gauge · {}
shapeserver_timeouts_total · counter · {}
shapeserver_wedge_leaf_lb_prunes_total · counter · {}
shapeserver_wedge_leaf_visits_total · counter · {}
shapeserver_wedge_node_visits_total · counter · {}
shapeserver_wedge_pruned_members_total · counter · {}
shapeserver_wedge_prunes_by_level_total · counter · {level}
`
