#!/bin/sh
# Segment-store ingest smoke test: bulk-ingest 50k shapes into an mmap-backed
# segment store with shapeingest (no index build, full checksum verify),
# serve the store with shapeserver -segments, then exercise the online path —
# search a stored row (self-match), POST /v1/ingest two more rows, POST
# /v1/compact down to one segment, and assert the record counts on /livez and
# /metrics reconcile with what was loaded at every step.
set -eu

GO=${GO:-go}
tmp=$(mktemp -d)
spid=""
cleanup() {
	[ -n "$spid" ] && kill "$spid" 2>/dev/null || true
	rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

fail() {
	echo "ingest-smoke: $1" >&2
	exit 1
}

command -v curl >/dev/null 2>&1 || fail "curl not installed"

$GO build -o "$tmp/shapeingest" ./cmd/shapeingest
$GO build -o "$tmp/shapeserver" ./cmd/shapeserver

store="$tmp/store"
n=64
count=50000

# Bulk ingest: 50k shapes, segments rolled every 16k records (so compaction
# below has real work), then a full-checksum reopen.
# Progress is structured slog JSON on stderr; the run summary is one JSON
# line on stdout.
"$tmp/shapeingest" -dir "$store" -count $count -n $n -segment-records 16384 \
	-verify >"$tmp/summary.json" 2>"$tmp/ingest.log" ||
	{
		cat "$tmp/ingest.log" >&2
		fail "shapeingest failed"
	}
grep -q '"msg":"ingest complete"' "$tmp/ingest.log" ||
	fail "shapeingest did not log ingest complete"
grep -q "\"rows\":$count" "$tmp/ingest.log" ||
	fail "shapeingest did not report the full load"
grep -q '"msg":"verify complete"' "$tmp/ingest.log" ||
	fail "shapeingest did not log verify complete"
grep -q '"segments":4' "$tmp/ingest.log" ||
	fail "expected 4 segments from the 16384-record roll"
grep -q '"checksums":"good"' "$tmp/ingest.log" ||
	fail "checksum verification did not pass"
# The stdout summary is machine-readable: its rows and segments must
# reconcile with the log above.
grep -q "\"rows\":$count" "$tmp/summary.json" ||
	fail "run summary rows != $count: $(cat "$tmp/summary.json")"
grep -q '"segments":4' "$tmp/summary.json" ||
	fail "run summary segments != 4"
grep -q '"generate_ingest"' "$tmp/summary.json" ||
	fail "run summary has no stage durations"
[ -f "$store/MANIFEST.json" ] ||
	fail "no manifest written"

# Serve the store. Wait on /readyz: the listener binds first, and during the
# map the probe answers 503 with a "loading"/"mapping" reason.
sok=""
for try in 0 1 2 3 4; do
	saddr="127.0.0.1:$((18841 + try))"
	"$tmp/shapeserver" -addr "$saddr" -segments "$store" \
		>"$tmp/server.log" 2>&1 &
	spid=$!
	i=0
	while [ $i -lt 100 ]; do
		if ! kill -0 "$spid" 2>/dev/null; then
			break # died; likely the port was in use
		fi
		if curl -fsS "http://$saddr/readyz" >"$tmp/ready.json" 2>/dev/null; then
			sok=1
			break
		fi
		sleep 0.2
		i=$((i + 1))
	done
	[ -n "$sok" ] && break
	kill "$spid" 2>/dev/null || true
	wait "$spid" 2>/dev/null || true
	spid=""
done
[ -n "$sok" ] || {
	echo "ingest-smoke: shapeserver -segments failed to start" >&2
	cat "$tmp/server.log" >&2
	exit 1
}
grep -q '"reason": "serving"' "$tmp/ready.json" ||
	fail "readyz reason is not serving: $(cat "$tmp/ready.json")"
grep -q '"msg":"segment store mapped"' "$tmp/server.log" ||
	fail "server log does not report the store mapping"

# The mapped store serves the full load.
curl -fsS "http://$saddr/livez" >"$tmp/livez.json" ||
	fail "/livez did not answer 200"
grep -q "\"db_size\": $count" "$tmp/livez.json" ||
	fail "livez db_size != $count: $(cat "$tmp/livez.json")"

# Self-match against a stored row, served from the mmap'd raw column.
curl -fsS "http://$saddr/v1/search" -d '{"query_index":31415}' >"$tmp/search.json" ||
	fail "/v1/search did not answer 200"
grep -q '"index": 31415' "$tmp/search.json" ||
	fail "stored row did not self-match"
grep -q '"dist": 0' "$tmp/search.json" ||
	fail "self-match distance is not 0"

# Online ingest: two more (distinct) rows of the store's series length.
series1=$(seq 1 $n | awk '{printf "%s%.1f", s, ($1 % 7) + 0.5; s=","}')
series2=$(seq 1 $n | awk '{printf "%s%.1f", s, ($1 % 5) + 1.5; s=","}')
curl -fsS "http://$saddr/v1/ingest" \
	-d "{\"series\":[[$series1],[$series2]]}" >"$tmp/ingested.json" ||
	fail "/v1/ingest did not answer 200"
grep -q "\"first_id\": $count" "$tmp/ingested.json" ||
	fail "online ingest first_id != $count: $(cat "$tmp/ingested.json")"
grep -q "\"records\": $((count + 2))" "$tmp/ingested.json" ||
	fail "online ingest did not grow the store to $((count + 2))"

# The appended row is immediately searchable.
curl -fsS "http://$saddr/v1/search" -d "{\"query_index\":$((count + 1))}" >"$tmp/search2.json" ||
	fail "search of the ingested row did not answer 200"
grep -q "\"index\": $((count + 1))" "$tmp/search2.json" ||
	fail "ingested row did not self-match"

# Compact everything into one segment; counts must survive the swap.
curl -fsS "http://$saddr/v1/compact" -d '{}' >"$tmp/compact.json" ||
	fail "/v1/compact did not answer 200"
grep -q '"segments": 1' "$tmp/compact.json" ||
	fail "compact did not merge to one segment: $(cat "$tmp/compact.json")"
curl -fsS "http://$saddr/metrics" >"$tmp/metrics.txt" ||
	fail "/metrics did not answer 200"
grep -q "^shapeserver_store_records $((count + 2))$" "$tmp/metrics.txt" ||
	fail "store_records != $((count + 2)) after compact"
grep -q '^shapeserver_store_segments 1$' "$tmp/metrics.txt" ||
	fail "store_segments != 1 after compact"
grep -q '^shapeserver_store_compactions_total 1$' "$tmp/metrics.txt" ||
	fail "compactions_total != 1"
grep -q '^shapeserver_store_mapped_bytes [1-9]' "$tmp/metrics.txt" ||
	fail "no mapped bytes reported"

# Post-compact search: rows keep their IDs across the merge.
curl -fsS "http://$saddr/v1/search" -d '{"query_index":31415}' >"$tmp/search3.json" ||
	fail "post-compact search did not answer 200"
grep -q '"index": 31415' "$tmp/search3.json" ||
	fail "row 31415 lost across compaction"

# The store's state has one renderer, the /livez store block: /debug/storage
# is gone, and after the compaction the block lists exactly one segment.
code=$(curl -sS -o /dev/null -w '%{http_code}' "http://$saddr/debug/storage")
[ "$code" = 404 ] ||
	fail "/debug/storage answered $code, want 404"
curl -fsS "http://$saddr/livez" >"$tmp/livez2.json" ||
	fail "/livez did not answer 200 after the compaction"
live=$(grep -c '"file": "seg-[0-9]*\.lbseg"' "$tmp/livez2.json" || true)
[ "$live" = 1 ] ||
	fail "livez store block lists $live segments after compact, want 1: $(cat "$tmp/livez2.json")"
curl -fsS "http://$saddr/metrics" >"$tmp/metrics2.txt" ||
	fail "/metrics did not answer 200 after the post-compact search"
grep -q '^shapeserver_store_ingests_total 1$' "$tmp/metrics2.txt" ||
	fail "ingests_total != 1"
grep -q '^shapeserver_store_compactions_total 1$' "$tmp/metrics2.txt" ||
	fail "compactions_total != 1 on the second scrape"

kill -TERM "$spid" 2>/dev/null || true
wait "$spid" 2>/dev/null || true
spid=""

# Strict OpenMetrics-shape parse of the composite /metrics page with the
# store families present (the test spins its own store server).
$GO test ./internal/server/ -run 'TestStoreMetricsParse' -count=1 >/dev/null ||
	fail "strict exposition parse of the storage metric families failed"

echo "ingest-smoke: ok ($saddr: 50k bulk ingest, mmap serve, online ingest, compact, one live segment)"
