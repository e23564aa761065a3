#!/bin/sh
# Lists every dense, ttm, trsvd and core function whose start offset mod 64
# in the benchmark binary differs between a parent commit and the working
# tree: the code-placement check to run whenever a package linked before
# core changes size (a 32-byte shift has moved sweep_s by a few percent
# with no hot code touched). Run from anywhere inside the repository:
#
#	scripts/placement.sh <parent-ref>
#
# Each line is "function parent-offset change-offset" (offsets mod 64,
# "-" where the function exists on one side only), then a count.
set -eu
export LC_ALL=C
[ $# -eq 1 ] || { echo "usage: $0 <parent-ref>" >&2; exit 2; }
root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/parent"
git -C "$root" archive "$1" | tar -x -C "$tmp/parent"
(cd "$tmp/parent" && go build -o "$tmp/parent.bin" ./benchmark)
(cd "$root" && go build -o "$tmp/change.bin" ./benchmark)
for side in parent change; do
	go tool nm -n "$tmp/$side.bin" |
		awk '$2 == "T" && $3 ~ /^hypertensor\/internal\/(dense|ttm|trsvd|core)\./ {
			a = tolower(substr($1, length($1) - 1))
			v = 16 * (index("0123456789abcdef", substr(a, 1, 1)) - 1) + index("0123456789abcdef", substr(a, 2, 1)) - 1
			printf "%s %d\n", $3, v % 64 }' |
		sort >"$tmp/$side.off"
done
join -a 1 -a 2 -e - -o 0,1.2,2.2 "$tmp/parent.off" "$tmp/change.off" |
	awk '$2 != $3 { print; n++ } END { printf "%d functions moved mod 64\n", n }'
