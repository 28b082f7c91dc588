#!/bin/sh
# Serving smoke test. Part 1: boot shapeserver on a synthetic database,
# exercise nearest-neighbour and top-K search plus a deliberately timed-out
# request, check the structured request log correlates with response trace
# IDs and that the trace holds nothing beneath a comparison, and /readyz
# flips while the server drains gracefully on SIGTERM.
# Part 2: boot a shapeserver, run an EXPLAIN search, and assert the plan
# parses, its stage waterfall reconciles exactly with the deltas of the
# /metrics outcome counters, and /debug/index serves the index-health report.
# Part 3: the segment-store ingest smoke.
set -eu

GO=${GO:-go}
tmp=$(mktemp -d)
spid=""
cleanup() {
	[ -n "$spid" ] && kill "$spid" 2>/dev/null || true
	rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

if ! command -v curl >/dev/null 2>&1; then
	echo "smoke: curl not installed" >&2
	exit 1
fi

fail() {
	echo "smoke: $1" >&2
	exit 1
}

# ---- Part 1: the shapeserver serving layer -------------------------------

$GO build -o "$tmp/shapeserver" ./cmd/shapeserver

# Wait on /readyz, not /healthz: the listener binds before the database
# loads, and during that window /healthz already answers 200 (alive) while
# /readyz stays 503 until the real handler is in.
sok=""
for try in 0 1 2 3 4; do
	saddr="127.0.0.1:$((18651 + try))"
	"$tmp/shapeserver" -addr "$saddr" -synthetic 400,128 -seed 7 \
		-drain-wait 2s \
		>"$tmp/shapeserver.log" 2>&1 &
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
if [ -z "$sok" ]; then
	echo "smoke: shapeserver failed to start" >&2
	cat "$tmp/shapeserver.log" >&2
	exit 1
fi
grep -q '"status": "ready"' "$tmp/ready.json" ||
	fail "readyz is not ready"
curl -fsS "http://$saddr/healthz" >"$tmp/health.json" ||
	fail "healthz did not answer 200"
grep -q '"status": "ok"' "$tmp/health.json" ||
	fail "healthz is not ok"

# Nearest neighbour: a database row queried against the database matches
# itself at distance 0, and the response carries the pruning stats — a
# Euclidean wedge request is answered through the serving index, so it
# compares exactly the rows it fetched, fewer than the 400 a scan would.
# Capture the response headers too, for the request-log correlation check
# below.
curl -fsS -D "$tmp/hdrs.txt" "http://$saddr/v1/search" -d '{"query_index":3}' >"$tmp/search.json" ||
	fail "/v1/search did not answer 200"
grep -q '"index": 3' "$tmp/search.json" ||
	fail "/v1/search did not return the self-match"
grep -Eq '"comparisons": [1-9][0-9]{0,2},' "$tmp/search.json" ||
	fail "/v1/search response is missing its SearchStats"
grep -q '"comparisons": 400,' "$tmp/search.json" &&
	fail "/v1/search compared every row: it did not go through the serving index"
grep -Eq '"index_fetches": [1-9]' "$tmp/search.json" ||
	fail "/v1/search response reports no index fetches"

# Structured request log: the X-Request-ID header and the response trace_id
# must land together on one JSON log line.
rid=$(awk 'tolower($1) == "x-request-id:" {print $2}' "$tmp/hdrs.txt" | tr -d '\r')
[ -n "$rid" ] ||
	fail "/v1/search response has no X-Request-ID header"
tid=$(grep -o '"trace_id": *[0-9]*' "$tmp/search.json" | grep -o '[0-9]*$')
[ -n "$tid" ] && [ "$tid" != 0 ] ||
	fail "/v1/search response has no trace_id"
grep "\"request_id\":\"$rid\"" "$tmp/shapeserver.log" | grep -q "\"trace_id\":$tid" ||
	fail "no log line carries both request_id $rid and trace_id $tid"

# That trace stops at the comparison: after its root event, every span is the
# search, the index probe, a fetch or a comparison — nothing beneath one.
curl -fsS "http://$saddr/debug/lbkeogh?log=shapeserver&trace=$tid&format=chrome" >"$tmp/trace.json" ||
	fail "trace $tid did not download from /debug/lbkeogh"
grep -o '"name":"[^"]*"' "$tmp/trace.json" | sed 's/^"name":"//; s/"$//' | tail -n +2 >"$tmp/spans.txt"
grep -qx 'comparison' "$tmp/spans.txt" ||
	fail "trace $tid holds no comparison span"
if grep -vxE 'search|vp_probe|fetch|comparison' "$tmp/spans.txt" >"$tmp/stray.txt"; then
	fail "trace $tid holds spans other than search, vp_probe, fetch and comparison: $(sort -u "$tmp/stray.txt" | tr '\n' ' ')"
fi

# The same query again must hit the session pool.
curl -fsS "http://$saddr/v1/search" -d '{"query_index":3}' >"$tmp/search2.json" ||
	fail "repeated /v1/search did not answer 200"
grep -q '"pool_hit": true' "$tmp/search2.json" ||
	fail "repeated query did not reuse the pooled session"

# Top-K returns k ascending hits.
curl -fsS "http://$saddr/v1/topk" -d '{"query_index":3,"k":3}' >"$tmp/topk.json" ||
	fail "/v1/topk did not answer 200"
[ "$(grep -c '"index":' "$tmp/topk.json")" = 3 ] ||
	fail "/v1/topk did not return 3 hits"

# A hopeless deadline on a brute-force DTW scan must come back 504, promptly.
code=$(curl -s -o "$tmp/timeout.json" -w '%{http_code}' "http://$saddr/v1/search" \
	-d '{"query_index":0,"measure":"dtw","strategy":"brute","timeout_ms":1}')
[ "$code" = 504 ] ||
	fail "timed-out search answered $code, want 504"
grep -q 'deadline' "$tmp/timeout.json" ||
	fail "504 body does not mention the deadline"

curl -fsS "http://$saddr/metrics" >"$tmp/smetrics.txt" ||
	fail "shapeserver /metrics did not answer 200"
grep -q '^shapeserver_admitted_total ' "$tmp/smetrics.txt" ||
	fail "shapeserver /metrics is missing admitted_total"
grep -q '^shapeserver_timeouts_total 1$' "$tmp/smetrics.txt" ||
	fail "shapeserver /metrics did not count the timeout"
curl -fsS "http://$saddr/debug/lbkeogh" >/dev/null ||
	fail "shapeserver dashboard did not answer 200"

# Graceful shutdown: SIGTERM flips /readyz to 503 (the -drain-wait window),
# then the process drains and reports it in the log.
kill -TERM "$spid"
i=0
drained=""
while [ $i -lt 50 ]; do
	code=$(curl -s -o /dev/null -w '%{http_code}' "http://$saddr/readyz" || true)
	if [ "$code" = 503 ]; then
		drained=1
		break
	fi
	sleep 0.1
	i=$((i + 1))
done
[ -n "$drained" ] ||
	fail "/readyz did not flip to 503 during the drain window"
wait "$spid" 2>/dev/null || fail "shapeserver exited non-zero on SIGTERM"
spid=""
grep -q '"msg":"drained"' "$tmp/shapeserver.log" ||
	fail "shapeserver did not report a clean drain"

echo "smoke: ok ($saddr: search, topk, pool hit, 504 deadline, log correlation, readyz drain)"

# ---- Part 2: query EXPLAIN and index introspection -----------------------

eok=""
for try in 0 1 2 3 4; do
	eaddr="127.0.0.1:$((18771 + try))"
	"$tmp/shapeserver" -addr "$eaddr" -synthetic 400,128 -seed 7 \
		>"$tmp/explainserver.log" 2>&1 &
	spid=$!
	i=0
	while [ $i -lt 100 ]; do
		if ! kill -0 "$spid" 2>/dev/null; then
			break # died; likely the port was in use
		fi
		if curl -fsS "http://$eaddr/readyz" >/dev/null 2>&1; then
			eok=1
			break
		fi
		sleep 0.2
		i=$((i + 1))
	done
	[ -n "$eok" ] && break
	kill "$spid" 2>/dev/null || true
	wait "$spid" 2>/dev/null || true
	spid=""
done
[ -n "$eok" ] || {
	echo "smoke: shapeserver for the explain checks failed to start" >&2
	cat "$tmp/explainserver.log" >&2
	exit 1
}

# Snapshot the outcome counters, run one EXPLAIN search, snapshot again: each
# of the plan's stage counts must equal the delta of one counter or the sum
# of two.
curl -fsS "http://$eaddr/metrics" >"$tmp/wf_before.txt" ||
	fail "explain server /metrics did not answer 200"
curl -fsS "http://$eaddr/v1/search" -d '{"query_index":5,"explain":true}' >"$tmp/explain.json" ||
	fail "explain search did not answer 200"
curl -fsS "http://$eaddr/metrics" >"$tmp/wf_after.txt" ||
	fail "explain server /metrics did not answer 200 after the search"

grep -q '"plan":' "$tmp/explain.json" ||
	fail "explain:true response carries no plan"
grep -q '"waterfall":' "$tmp/explain.json" ||
	fail "explain plan carries no waterfall"
grep -q '"tightness":' "$tmp/explain.json" ||
	fail "explain plan carries no bound tightness"
grep -q '^# TYPE shapeserver_rotations counter$' "$tmp/wf_after.txt" ||
	fail "/metrics is missing the outcome counters"

if command -v python3 >/dev/null 2>&1; then
	python3 - "$tmp/explain.json" "$tmp/wf_before.txt" "$tmp/wf_after.txt" <<'PY' || fail "explain plan does not reconcile with the /metrics outcome counter deltas"
import json, sys

plan = json.load(open(sys.argv[1]))["plan"]
wf = plan["waterfall"]

names = ("rotations", "full_dist_evals", "fft_rejected_members",
         "wedge_pruned_members", "wedge_leaf_lb_prunes", "early_abandons",
         "cancelled_members")

def counters(path):
    out = {}
    for line in open(path):
        name, _, value = line.partition(" ")
        key = name.removeprefix("shapeserver_")
        if key != name and key in names:
            out[key] = int(value)
    return out

before, after = counters(sys.argv[2]), counters(sys.argv[3])
d = {n: after[n] - before[n] for n in names}

stages = {s["stage"]: s["members"] for s in wf["eliminated"]}
eliminated = sum(stages.values())
total = eliminated + wf["survivors"] + wf.get("cancelled", 0)
assert total == wf["rotations"], f"plan waterfall does not reconcile: {wf}"
assert d["rotations"] == wf["rotations"], f"rotations delta {d} != plan {wf}"
assert d["full_dist_evals"] == wf["survivors"], f"survivor delta {d} != plan {wf}"
assert d["cancelled_members"] == wf.get("cancelled", 0), f"cancelled delta {d} != plan {wf}"
derived = {"fft": d["fft_rejected_members"],
           "envelope": d["wedge_pruned_members"] + d["wedge_leaf_lb_prunes"],
           "kernel": d["early_abandons"]}
for stage, members in stages.items():
    got = derived[stage]
    assert got == members, f"stage {stage}: metrics delta {got} != plan {members}"
print(f"explain waterfall reconciles: {wf['rotations']} rotations, "
      f"{eliminated} eliminated, {wf['survivors']} survivors")
PY
fi

# Index-health introspection serves a structural report of the VP-tree.
curl -fsS "http://$eaddr/debug/index" >"$tmp/index.json" ||
	fail "/debug/index did not answer 200"
grep -q '"vp_tree":' "$tmp/index.json" ||
	fail "/debug/index is missing the VP-tree report"
grep -q '"k_profiles":' "$tmp/index.json" ||
	fail "/debug/index is missing the wedge K profiles"
if command -v python3 >/dev/null 2>&1; then
	python3 -m json.tool "$tmp/index.json" >/dev/null ||
		fail "/debug/index is not valid JSON"
fi

kill -TERM "$spid" 2>/dev/null || true
wait "$spid" 2>/dev/null || true
spid=""

echo "smoke: ok ($eaddr: explain plan reconciles with /metrics, /debug/index serves)"

# ---- Part 3: segment-store ingest, serve, compact ------------------------

./scripts/ingest-smoke.sh || fail "segment-store ingest smoke failed"
