#!/bin/sh
# Serving smoke test. Part 1: boot shapeserver on a synthetic database,
# exercise nearest-neighbour and top-K search plus a deliberately timed-out
# request, check the structured request log correlates with response trace
# IDs and that the trace holds nothing beneath a comparison, and /readyz
# flips while the server drains gracefully on SIGTERM.
# Part 2: boot a shapeserver, run an explained search, and assert that its
# stats reconcile exactly with the deltas of the /metrics outcome counters and
# that its plan is the request's own interval-4 bound sampler.
# Part 3: shapesearch lists the same k neighbours, and the same range, flat
# and through the index.
# Part 4: the segment-store ingest smoke.
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
curl -fsS "http://$saddr/debug/lbkeogh?format=chrome&trace=$tid" >"$tmp/trace.json" ||
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

# A hopeless deadline must come back 504, promptly: an LCSS scan (no index,
# a weak bound) for the last row, which the scan reaches last, so no early
# exact match cuts the rest short (≈ 35 ms untimed on a 2-vCPU box).
code=$(curl -s -o "$tmp/timeout.json" -w '%{http_code}' "http://$saddr/v1/search" \
	-d '{"query_index":399,"measure":"lcss","timeout_ms":1}')
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
# The trace log's JSON summary lists the search's trace among the recent
# ones (shapeserver retains every trace by default).
curl -fsS "http://$saddr/debug/lbkeogh" >"$tmp/tracelog.json" ||
	fail "shapeserver /debug/lbkeogh did not answer 200"
grep -q '"finished":[1-9]' "$tmp/tracelog.json" ||
	fail "/debug/lbkeogh counts no finished trace"
grep -q "\"id\":$tid," "$tmp/tracelog.json" ||
	fail "/debug/lbkeogh does not list trace $tid"

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

# ---- Part 2: an explained search ----------------------------------------

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

# Snapshot the outcome counters, run one explained search, snapshot again:
# each stage of the response's stats must equal the delta of one counter or
# the sum of two, and the plan is the request's own sampler, so the shared
# one does not move. A DTW search scans all 400 rows, so the plan samples
# 100 of them.
curl -fsS "http://$eaddr/metrics" >"$tmp/wf_before.txt" ||
	fail "explain server /metrics did not answer 200"
curl -fsS "http://$eaddr/v1/search" -d '{"query_index":5,"measure":"dtw","r":4,"explain":true}' >"$tmp/explain.json" ||
	fail "explain search did not answer 200"
curl -fsS "http://$eaddr/metrics" >"$tmp/wf_after.txt" ||
	fail "explain server /metrics did not answer 200 after the search"

grep -q '"plan":' "$tmp/explain.json" ||
	fail "explain:true response carries no plan"
grep -q '"bounds":' "$tmp/explain.json" ||
	fail "explain plan carries no bound tightness"
grep -q '^# TYPE shapeserver_rotations_total counter$' "$tmp/wf_after.txt" ||
	fail "/metrics is missing the outcome counters"

if command -v python3 >/dev/null 2>&1; then
	python3 - "$tmp/explain.json" "$tmp/wf_before.txt" "$tmp/wf_after.txt" <<'PY' || fail "explained stats do not reconcile with the /metrics outcome counter deltas"
import json, sys

resp = json.load(open(sys.argv[1]))
st, plan = resp["stats"], resp["plan"]

names = ("rotations", "full_dist_evals", "fft_rejected_members",
         "wedge_pruned_members", "wedge_leaf_lb_prunes", "early_abandons",
         "cancelled_members")

def counters(path):
    out = {}
    for line in open(path):
        name, _, value = line.partition(" ")
        if name == "lbkeogh_explain_comparisons_seen_total":
            out["shared_seen"] = int(value)
        key = name.removeprefix("shapeserver_").removesuffix("_total")
        if key != name and key in names:
            out[key] = int(value)
    return out

before, after = counters(sys.argv[2]), counters(sys.argv[3])
d = {n: after[n] - before[n] for n in names}
for n in names:
    assert d[n] == st.get(n, 0), f"{n}: metrics delta {d[n]} != stats {st.get(n, 0)}"

# The waterfall: each stage one counter or the sum of two.
stages = {"fft": st["fft_rejected_members"],
          "envelope": st["wedge_pruned_members"] + st["wedge_leaf_lb_prunes"],
          "kernel": st["early_abandons"]}
total = sum(stages.values()) + st["full_dist_evals"] + st.get("cancelled_members", 0)
assert total == st["rotations"], f"stats waterfall does not reconcile: {st}"

c = st["comparisons"]
assert plan["seen"] == c, f"plan saw {plan['seen']} of {c} comparisons"
assert plan["sampled"] == (c + 3) // 4, f"plan sampled {plan['sampled']} of {c}, want ceil({c}/4)"
assert plan["bounds"], f"plan carries no bounds: {plan}"
assert after["shared_seen"] == before["shared_seen"], "an explained search fed the shared sampler"
print(f"explained stats reconcile: {st['rotations']} rotations, stages {stages}, "
      f"{st['full_dist_evals']} survivors; plan sampled {plan['sampled']} of {c}")
PY
fi

kill -TERM "$spid" 2>/dev/null || true
wait "$spid" 2>/dev/null || true
spid=""

echo "smoke: ok ($eaddr: explained stats reconcile with /metrics, plan is the request's sampler)"

# ---- Part 3: shapesearch -k and -radius, flat and through the index ------

# Both paths answer the k nearest rows: the same three rows at the same
# distances. Both answer a range query: every row strictly within the radius,
# taken just above the third distance so that it holds at least three rows.
$GO build -o "$tmp/mkdata" ./cmd/mkdata
$GO build -o "$tmp/shapesearch" ./cmd/shapesearch
"$tmp/mkdata" -dataset projectile -m 60 -n 64 >"$tmp/db.csv" ||
	fail "mkdata failed"
neighbours() {
	"$tmp/shapesearch" -db "$tmp/db.csv" -query 17 "$@" >"$tmp/ss.txt" ||
		fail "shapesearch $* failed"
	sed -n 's/^ *#[0-9]*: \(row [0-9]* .*dist [0-9.]*\) .*/\1/p' "$tmp/ss.txt"
}
neighbours -k 3 >"$tmp/flat.txt"
neighbours -k 3 -indexed >"$tmp/indexed.txt"
[ "$(wc -l <"$tmp/flat.txt")" = 3 ] ||
	fail "shapesearch -k 3 listed $(wc -l <"$tmp/flat.txt") neighbours: $(cat "$tmp/flat.txt")"
cmp -s "$tmp/flat.txt" "$tmp/indexed.txt" ||
	fail "shapesearch -indexed -k 3 lists $(cat "$tmp/indexed.txt"), the flat scan $(cat "$tmp/flat.txt")"
radius=$(awk 'NR == 3 { print $NF + 0.0001 }' "$tmp/flat.txt")
neighbours -radius "$radius" >"$tmp/flat-range.txt"
neighbours -radius "$radius" -indexed >"$tmp/indexed-range.txt"
[ "$(wc -l <"$tmp/flat-range.txt")" -ge 3 ] ||
	fail "shapesearch -radius $radius listed $(wc -l <"$tmp/flat-range.txt") rows: $(cat "$tmp/flat-range.txt")"
cmp -s "$tmp/flat-range.txt" "$tmp/indexed-range.txt" ||
	fail "shapesearch -indexed -radius $radius lists $(cat "$tmp/indexed-range.txt"), the flat scan $(cat "$tmp/flat-range.txt")"

echo "smoke: ok (shapesearch -k 3 and -radius $radius list the same rows flat and indexed)"

# ---- Part 4: segment-store ingest, serve, compact ------------------------

./scripts/ingest-smoke.sh || fail "segment-store ingest smoke failed"
