#!/usr/bin/env bash
# bench-micro.sh BASE PKG BENCH [ROUNDS]: compare a package's Go
# microbenchmarks between git ref BASE and the working tree, with an A/A
# control taken in the same run.
#
# It builds a `go test -c` binary of PKG (e.g. ./internal/exec) from BASE,
# exported with git archive, and one from this tree; then runs, ROUNDS times
# (default 10), base, change and base again — the A/A — in an order that
# rotates every round, each at -test.cpu 1 -test.benchmem -test.run '^$'
# -test.bench BENCH from its package directory. Per benchmark it prints each
# side's min and median ns/op, the median over rounds of change/base, and the
# median and spread (min..max over rounds) of the A/A ratio base'/base; then
# each side's median B/op and allocs/op, which repeat exactly run to run and
# so need no control. A change whose
# median ratio lies inside the A/A spread is "within noise": on a loaded
# host that spread, not the ratio alone, is the resolution of the
# comparison. The verdict says "faster" or "slower" only when the control
# itself reads 1: an A/A median more than 5 % off 1 means the two runs of
# one binary disagree, and the verdict is "control off 1: rerun with more
# rounds" whatever the ratio.
set -euo pipefail

base=${1:?usage: bench-micro.sh BASE PKG BENCH [ROUNDS]}
pkg=${2:?usage: bench-micro.sh BASE PKG BENCH [ROUNDS]}
bench=${3:?usage: bench-micro.sh BASE PKG BENCH [ROUNDS]}
rounds=${4:-10}
go=${GO:-go}

git rev-parse --verify -q "$base^{commit}" > /dev/null || { echo "bench-micro: $base names no commit" >&2; exit 2; }
pkg=${pkg#./}
d=$(mktemp -d)
trap 'rm -rf "$d"' EXIT
mkdir -p "$d/base"
git archive "$base" | tar -x -C "$d/base"
(cd "$d/base" && $go test -c -o "$d/base.test" "./$pkg")
$go test -c -o "$d/change.test" "./$pkg"

# run SIDE BINARY DIR: one round of one side, its results tagged with SIDE.
run() {
	(cd "$3" && "$2" -test.run '^$' -test.bench "$bench" -test.cpu 1 -test.benchmem) |
		awk -v side="$1" '$1 ~ /^Benchmark/ {
			ns = by = al = "-"
			for (i = 3; i < NF; i++) {
				if ($(i+1) == "ns/op") ns = $i
				if ($(i+1) == "B/op") by = $i
				if ($(i+1) == "allocs/op") al = $i
			}
			if (ns != "-") print side, $1, ns, by, al
		}' >> "$d/results"
}

: > "$d/results"
for r in $(seq 1 "$rounds"); do
	sides=(base change aa)
	for k in 0 1 2; do
		s=${sides[$(((k + r) % 3))]}
		case $s in
			base) run base "$d/base.test" "$d/base/$pkg" ;;
			aa) run aa "$d/base.test" "$d/base/$pkg" ;;
			change) run change "$d/change.test" "$PWD/$pkg" ;;
		esac
	done
	echo "bench-micro: round $r of $rounds done" >&2
done

# Per benchmark and side, the values in round order; ratios pair round r of
# each side with round r of base.
awk '
function sortv(a, n,   i, j, t) { for (i = 2; i <= n; i++) { t = a[i]; for (j = i - 1; j > 0 && a[j] > t; j--) a[j+1] = a[j]; a[j+1] = t } }
function median(a, n) { sortv(a, n); return n % 2 ? a[(n+1)/2] : (a[n/2] + a[n/2+1]) / 2 }
{
	k = $2 SUBSEP $1; n[k]++; v[k, n[k]] = $3; by[k, n[k]] = $4; al[k, n[k]] = $5
	if (!($2 in seen)) { seen[$2] = 1; order[++shapes] = $2 }
}
# medianOf(b, side, arr): the median over rounds of the B/op or
# allocs/op of one side, "-" when the benchmark reported none.
function medianOf(b, side, arr,   i, m, x) {
	m = n[b, side]
	for (i = 1; i <= m; i++) { if (arr[b, side, i] == "-") return "-"; x[i] = arr[b, side, i] + 0 }
	return median(x, m)
}
END {
	printf "%-52s %21s %21s %12s %10s %17s  %s\n", "benchmark (ns/op)", "base min / median", "change min / median", "change/base", "A/A median", "A/A spread", "verdict"
	for (s = 1; s <= shapes; s++) {
		b = order[s]; nb = n[b, "base"]; nc = n[b, "change"]; na = n[b, "aa"]
		if (nb == 0 || nc == 0 || na == 0) continue
		delete x; for (i = 1; i <= nb; i++) x[i] = v[b, "base", i]; bmed = median(x, nb); bmin = x[1]
		delete x; for (i = 1; i <= nc; i++) x[i] = v[b, "change", i]; cmed = median(x, nc); cmin = x[1]
		m = nb < nc ? nb : nc; if (na < m) m = na
		delete x; delete y
		for (i = 1; i <= m; i++) { x[i] = v[b, "change", i] / v[b, "base", i]; y[i] = v[b, "aa", i] / v[b, "base", i] }
		ratio = median(x, m); aa = median(y, m); lo = y[1]; hi = y[m]
		verdict = ratio < lo ? "faster" : ratio > hi ? "slower" : "within noise"
		if (aa < 0.95 || aa > 1.05) verdict = "control off 1: rerun with more rounds"
		printf "%-52s %10.4g / %-8.4g %10.4g / %-8.4g %12.3f %10.3f %8.3f..%-7.3f  %s\n", b, bmin, bmed, cmin, cmed, ratio, aa, lo, hi, verdict
	}
	printf "\n%-52s %21s %21s\n", "benchmark (median B/op, allocs/op)", "base", "change"
	for (s = 1; s <= shapes; s++) {
		b = order[s]
		if (n[b, "base"] == 0 || n[b, "change"] == 0) continue
		printf "%-52s %12s / %-8s %12s / %-8s\n", b, medianOf(b, "base", by), medianOf(b, "base", al), medianOf(b, "change", by), medianOf(b, "change", al)
	}
}' "$d/results"
