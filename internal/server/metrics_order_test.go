package server

import (
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"lbkeogh"
)

// typeSequence is a /metrics body's `# TYPE` lines in the order it wrote
// them, less the two process-stat families, which exist on Linux only.
func typeSequence(body string) string {
	var lines []string
	for _, l := range strings.Split(body, "\n") {
		fam, ok := strings.CutPrefix(l, "# TYPE ")
		if !ok || strings.HasPrefix(fam, "shapeserver_page_faults_total ") || strings.HasPrefix(fam, "shapeserver_rss_bytes ") {
			continue
		}
		lines = append(lines, fam)
	}
	return strings.Join(lines, "\n") + "\n"
}

// TestMetricsFamilyOrderPinned pins the order /metrics writes its families
// in after one traced search, in static and in store mode and with the
// shared bound sampler off: the search record, the trace log's stage
// latencies, the serving-layer families (the store's in store mode), the
// bound sampler's, and the per-endpoint request and runtime families.
// TestMetricsInventoryPinned sorts its lines, so it holds what is served but
// not this order. The sequences were captured before lbkeogh.HandleObs
// mounted the surface.
func TestMetricsFamilyOrderPinned(t *testing.T) {
	for _, mode := range []string{"static", "store", "unsampled"} {
		t.Run(mode, func(t *testing.T) {
			cfg := Config{TraceLog: lbkeogh.NewTraceLog(lbkeogh.WithSampleRate(1))}
			golden := staticFamilyOrderGolden
			if mode == "unsampled" {
				// No shared sampler: no explain family, not its zero-sample headers.
				cfg.ExplainSampleInterval = -1
				golden = regexp.MustCompile(`(?m)^lbkeogh_explain_.*\n`).ReplaceAllString(golden, "")
			}
			var ts *httptest.Server
			if mode == "store" {
				_, _, ts = newStoreServer(t, cfg)
				if code, raw := postJSON(t, ts, "/v1/ingest", ingestBody(storeRows(7, 20, 32)), nil); code != http.StatusOK {
					t.Fatalf("ingest: status %d body %s", code, raw)
				}
				golden = storeFamilyOrderGolden
			} else {
				_, ts = newTestServer(t, cfg)
			}
			if code, _, raw := post(t, ts, "/v1/search", `{"query_index":1}`); code != http.StatusOK {
				t.Fatalf("search: status %d (%s)", code, raw)
			}
			code, body := getStatus(t, ts.URL+"/metrics")
			if code != http.StatusOK {
				t.Fatalf("/metrics: status %d", code)
			}
			if got := typeSequence(body); got != golden {
				t.Errorf("/metrics family order:\n%s\nwant:\n%s", got, golden)
			}
		})
	}
}

const staticFamilyOrderGolden = `shapeserver_comparisons_total counter
shapeserver_rotations_total counter
shapeserver_steps_total counter
shapeserver_full_dist_evals_total counter
shapeserver_early_abandons_total counter
shapeserver_wedge_node_visits_total counter
shapeserver_wedge_leaf_visits_total counter
shapeserver_wedge_pruned_members_total counter
shapeserver_wedge_leaf_lb_prunes_total counter
shapeserver_fft_rejects_total counter
shapeserver_fft_rejected_members_total counter
shapeserver_fft_fallbacks_total counter
shapeserver_cancelled_members_total counter
shapeserver_index_fetches_total counter
shapeserver_k_changes_total counter
shapeserver_stage_latency_seconds histogram
shapeserver_inflight gauge
shapeserver_queue_waiting gauge
shapeserver_admitted_total counter
shapeserver_rejected_total counter
shapeserver_pool_idle gauge
shapeserver_pool_hits_total counter
shapeserver_pool_misses_total counter
shapeserver_pool_evictions_total counter
shapeserver_timeouts_total counter
shapeserver_drained_total counter
shapeserver_draining gauge
lbkeogh_explain_comparisons_seen_total counter
lbkeogh_explain_samples_total counter
lbkeogh_explain_sampled_survivors_total counter
lbkeogh_explain_sampled_kernel_kills_total counter
lbkeogh_explain_bound_checks_total counter
lbkeogh_explain_bound_false_positives_total counter
lbkeogh_explain_bound_eliminated_total counter
lbkeogh_explain_bound_tightness_ratio histogram
shapeserver_request_duration_seconds histogram
shapeserver_endpoint_requests_total counter
lbkeogh_runtime_goroutines gauge
lbkeogh_runtime_heap_bytes gauge
lbkeogh_runtime_total_bytes gauge
lbkeogh_runtime_gc_cycles_total counter
lbkeogh_runtime_gc_pause_seconds histogram
lbkeogh_runtime_sched_latency_seconds histogram
`

const storeFamilyOrderGolden = `shapeserver_comparisons_total counter
shapeserver_rotations_total counter
shapeserver_steps_total counter
shapeserver_full_dist_evals_total counter
shapeserver_early_abandons_total counter
shapeserver_wedge_node_visits_total counter
shapeserver_wedge_leaf_visits_total counter
shapeserver_wedge_pruned_members_total counter
shapeserver_wedge_leaf_lb_prunes_total counter
shapeserver_fft_rejects_total counter
shapeserver_fft_rejected_members_total counter
shapeserver_fft_fallbacks_total counter
shapeserver_cancelled_members_total counter
shapeserver_index_fetches_total counter
shapeserver_k_changes_total counter
shapeserver_wedge_prunes_by_level_total counter
shapeserver_stage_latency_seconds histogram
shapeserver_inflight gauge
shapeserver_queue_waiting gauge
shapeserver_admitted_total counter
shapeserver_rejected_total counter
shapeserver_pool_idle gauge
shapeserver_pool_hits_total counter
shapeserver_pool_misses_total counter
shapeserver_pool_evictions_total counter
shapeserver_timeouts_total counter
shapeserver_drained_total counter
shapeserver_draining gauge
shapeserver_store_generation gauge
shapeserver_store_segments gauge
shapeserver_store_records gauge
shapeserver_store_mapped_bytes gauge
shapeserver_store_busy gauge
shapeserver_store_ingests_total counter
shapeserver_store_compactions_total counter
shapeserver_store_ingested_records_total counter
shapeserver_store_segment_records gauge
lbkeogh_explain_comparisons_seen_total counter
lbkeogh_explain_samples_total counter
lbkeogh_explain_sampled_survivors_total counter
lbkeogh_explain_sampled_kernel_kills_total counter
lbkeogh_explain_bound_checks_total counter
lbkeogh_explain_bound_false_positives_total counter
lbkeogh_explain_bound_eliminated_total counter
lbkeogh_explain_bound_tightness_ratio histogram
shapeserver_request_duration_seconds histogram
shapeserver_endpoint_requests_total counter
lbkeogh_runtime_goroutines gauge
lbkeogh_runtime_heap_bytes gauge
lbkeogh_runtime_total_bytes gauge
lbkeogh_runtime_gc_cycles_total counter
lbkeogh_runtime_gc_pause_seconds histogram
lbkeogh_runtime_sched_latency_seconds histogram
`
