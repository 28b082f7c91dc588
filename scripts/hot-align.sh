#!/bin/sh
# Prints the entry address modulo 64 of each hot kernel in a built binary:
# the banded DTW and early-abandoning Euclidean kernels, LB_Keogh and the
# H-Merge walk. A kernel's speed depends on its 64-byte alignment, which moves
# with any change linked before it (ROADMAP item 17), so a performance claim
# on the scans reports these beside its numbers, for both sides.
#
#   scripts/hot-align.sh [binary]
#
# With no argument it builds the repo benchmark (./benchmark, as
# benchmark/run.sh builds it) into a temporary directory and reads that.
set -eu

GO=${GO:-go}
bin=${1:-}
if [ -z "$bin" ]; then
	tmp=$(mktemp -d)
	trap 'rm -rf "$tmp"' EXIT INT TERM
	bin="$tmp/benchmark"
	"$GO" build -o "$bin" ./benchmark || "$GO" build -buildvcs=false -o "$bin" ./benchmark
fi

found=0
for sym in lbkeogh/internal/dist.dtwBanded lbkeogh/internal/dist.EuclideanEA \
	lbkeogh/internal/envelope.LBKeogh 'lbkeogh/internal/wedge.(*Tree).SearchInto'; do
	addr=$("$GO" tool nm "$bin" | awk -v s="$sym" '$2 == "T" && $3 == s { print $1 }')
	if [ -z "$addr" ]; then
		echo "hot-align: $sym is not in $bin (inlined or renamed?)" >&2
		continue
	fi
	printf '%-45s %10s  mod 64 = %2d\n' "$sym" "$addr" $((0x$addr % 64))
	found=$((found + 1))
done
[ "$found" -eq 4 ]
