#!/usr/bin/env bash
# bench-compare.sh BASE [SEEDS] [WORKLOADS] [DIR]: compare the declared
# benchmark's end-to-end metrics (BENCHMARK.json) between git ref BASE and
# the working tree, with BASE's alignment control in the same run.
#
# It builds three benchmarks with `make bench-trees`: BASE, BASE padded (a
# copy whose text after internal/obs is shifted, so main.calibrate links at
# another address mod 64) and this tree. Then, for every seed 1..SEEDS
# (default 10) and every workload in WORKLOADS (default: all three), it runs
# the three binaries one after another at --seconds 18 --trace 0, in an order
# that rotates from one (seed, workload) to the next, and reads each run's
# last stdout line, the result record; a run that fails counts as not
# correct and adds no values. Trees and builds go to DIR (default: a
# temporary directory removed at exit; a given DIR must not hold base or
# base-pad yet), and DIR/results keeps every value read. Run it from the
# root of the checkout, as `make bench-compare` does.
#
# Per workload it prints each binary's main.calibrate address mod 64 and the
# runs whose record was not correct:true, failed:0; then per end-to-end
# metric each binary's median and quartiles, the change/base and
# change/padded-base median ratios, the pairs the change won against each
# (ties count for neither side), the change's median against the aligned
# base's — the base that links main.calibrate where the change does, BASE
# when both or neither do — as a share of the metric's BENCHMARK.json bound,
# and a verdict:
#   gain / loss            the change wins (loses) at least nine tenths of
#                          the pairs against both bases, and its median lies
#                          further from BASE's and from the padded base's
#                          than BASE's own quartile spread and than the
#                          distance between the two bases' medians;
#   alignment-confounded   that holds against one base and not the other:
#                          the two bases differ only in alignment;
#   within noise           anything else.
set -euo pipefail

base=${1:?usage: bench-compare.sh BASE [SEEDS] [WORKLOADS] [DIR]}
seeds=${2:-10}
workloads=${3:-dash_repeat explore_cold scan_exact}
dir=${4:-}
go=${GO:-go}
root=$PWD

git rev-parse --verify -q "$base^{commit}" > /dev/null || { echo "bench-compare: $base names no commit" >&2; exit 2; }
if [ -z "$dir" ]; then
	dir=$(mktemp -d)
	trap 'rm -rf "$dir"' EXIT
fi
mkdir -p "$dir"

# Build the three benchmarks; bench-trees prints one line per tree with its
# main.calibrate address mod 64, in the order base, base-pad, this tree.
make -s --no-print-directory bench-trees GO="$go" BASE="$base" DIR="$dir" | tee "$dir/trees.txt" >&2
mods=($(sed -n 's/.*≡ \([0-9]*\) mod 64$/\1/p' "$dir/trees.txt"))
[ "${#mods[@]}" = 3 ] || { echo "bench-compare: bench-trees printed no three addresses" >&2; exit 1; }

# run SIDE TREE WORKLOAD SEED: one run, its record's end-to-end values and
# its correctness appended to the results as "side workload seed name value".
run() {
	local rec
	rec=$(cd "$2" && ./.bench_build/tasterbench --workload "$3" --seed "$4" --seconds 18 --trace 0 | tail -n 1) || true
	if echo "$rec" | grep -q '"correct":true' && echo "$rec" | grep -q '"failed":0[,}]'; then
		echo "$1 $3 $4 _ok 1" >> "$dir/results"
	else
		echo "$1 $3 $4 _ok 0" >> "$dir/results"
	fi
	echo "$rec" | grep -o '"[a-z0-9_]*":{"value":[-0-9.e+]*' |
		sed 's/^"\([a-z0-9_]*\)":{"value":\(.*\)$/\1 \2/' |
		while read -r name value; do echo "$1 $3 $4 $name $value"; done >> "$dir/results"
}

: > "$dir/results"
r=0
for s in $(seq 1 "$seeds"); do
	for w in $workloads; do
		sides=(base pad change)
		for k in 0 1 2; do
			case ${sides[$(((k + r) % 3))]} in
				base) run base "$dir/base" "$w" "$s" ;;
				pad) run pad "$dir/base-pad" "$w" "$s" ;;
				change) run change "$root" "$w" "$s" ;;
			esac
		done
		r=$((r + 1))
		echo "bench-compare: seed $s $w done" >&2
	done
done

# The end-to-end metrics in BENCHMARK.json order, with direction and bound.
grep -o '"name": "[a-z0-9_]*", "unit": "[^"]*", "better": "[a-z]*", "bound": [0-9.]*' BENCHMARK.json |
	sed 's/"name": "\([a-z0-9_]*\)", "unit": "[^"]*", "better": "\([a-z]*\)", "bound": \([0-9.]*\)/\1 \2 \3/' > "$dir/metrics"

awk -v mb="${mods[0]}" -v mp="${mods[1]}" -v mc="${mods[2]}" -v workloads="$workloads" '
function sortv(a, n,   i, j, t) { for (i = 2; i <= n; i++) { t = a[i]; for (j = i - 1; j > 0 && a[j] > t; j--) a[j+1] = a[j]; a[j+1] = t } }
# quant(a, n, q): the q-quantile of a[1..n], interpolated between ranks.
function quant(a, n, q,   c, h, l) { sortv(a, n); h = 1 + (n - 1) * q; l = int(h); return l >= n ? a[n] : a[l] + (h - l) * (a[l+1] - a[l]) }
function stat(side, w, m, q,   i, n, x) { n = 0; for (i = 1; i <= nseed; i++) if ((side, w, i, m) in v) x[++n] = v[side, w, i, m]; return n ? quant(x, n, q) : "nan" }
# better(x, y): 1 when x is better than y for the metric, -1 when worse.
function better(x, y) { if (x == y) return 0; return (dir == "lower") == (x < y) ? 1 : -1 }
# decided(vsMed, won, lost, n): +1 (gain) or -1 (loss) when the pairs and
# the median gap both say so against one base, else 0.
function decided(vsMed, won, lost, n,   gap) {
	gap = cmed - vsMed; if (gap < 0) gap = -gap
	if (gap <= iqr || gap <= align) return 0
	if (better(cmed, vsMed) > 0 && won >= 0.9 * n) return 1
	if (better(cmed, vsMed) < 0 && lost >= 0.9 * n) return -1
	return 0
}
FILENAME ~ /metrics$/ { order[++nm] = $1; better_[$1] = $2; bound[$1] = $3; next }
{ v[$1, $2, $3, $4] = $5 + 0; if ($3 > nseed) nseed = $3 }
END {
	aligned = (mp == mc && mb != mc) ? "pad" : "base"
	nw = split(workloads, ws, " ")
	for (wi = 1; wi <= nw; wi++) {
		w = ws[wi]
		bad = ""
		for (i = 1; i <= nseed; i++) {
			if (("base", w, i, "_ok") in v && !v["base", w, i, "_ok"]) bad = bad " base/" i
			if (("pad", w, i, "_ok") in v && !v["pad", w, i, "_ok"]) bad = bad " pad/" i
			if (("change", w, i, "_ok") in v && !v["change", w, i, "_ok"]) bad = bad " change/" i
		}
		printf "\n%s: %d seeds; main.calibrate mod 64: base %d, padded base %d, change %d (aligned base: %s); runs not correct:true, failed:0:%s\n",
			w, nseed, mb, mp, mc, (aligned == "pad" ? "padded base" : "base"), (bad == "" ? " none" : bad)
		printf "%-20s %26s %26s %26s %7s %7s %7s %7s %9s  %s\n", "metric", "base median [q1, q3]", "padded base", "change", "c/b", "c/p", "won/b", "won/p", "vs bound", "verdict"
		for (mi = 1; mi <= nm; mi++) {
			m = order[mi]; dir = better_[m]
			bmed = stat("base", w, m, 0.5); pmed = stat("pad", w, m, 0.5); cmed = stat("change", w, m, 0.5)
			if (bmed == "nan" || pmed == "nan" || cmed == "nan") continue
			iqr = stat("base", w, m, 0.75) - stat("base", w, m, 0.25)
			align = bmed - pmed; if (align < 0) align = -align
			n = wb = lb = wp = lp = 0
			for (i = 1; i <= nseed; i++) {
				if (!(("base", w, i, m) in v) || !(("pad", w, i, m) in v) || !(("change", w, i, m) in v)) continue
				n++; c = v["change", w, i, m]
				x = better(c, v["base", w, i, m]); if (x > 0) wb++; if (x < 0) lb++
				x = better(c, v["pad", w, i, m]); if (x > 0) wp++; if (x < 0) lp++
			}
			db = decided(bmed, wb, lb, n); dp = decided(pmed, wp, lp, n)
			verdict = db == 1 && dp == 1 ? "gain" : db == -1 && dp == -1 ? "loss" : db != 0 || dp != 0 ? "alignment-confounded" : "within noise"
			# How far the change reads worse than the aligned base, as a share
			# of the bound (over 1: past it).
			ref = aligned == "pad" ? pmed : bmed
			worse = ref == 0 ? 0 : (dir == "lower" ? cmed / ref - 1 : 1 - cmed / ref)
			printf "%-20s %9.4g [%6.4g, %6.4g] %9.4g [%6.4g, %6.4g] %9.4g [%6.4g, %6.4g] %7.3f %7.3f %3d/%-3d %3d/%-3d %9.2f  %s\n", m,
				bmed, stat("base", w, m, 0.25), stat("base", w, m, 0.75),
				pmed, stat("pad", w, m, 0.25), stat("pad", w, m, 0.75),
				cmed, stat("change", w, m, 0.25), stat("change", w, m, 0.75),
				(bmed == 0 ? 0 : cmed / bmed), (pmed == 0 ? 0 : cmed / pmed), wb, n, wp, n, (worse > 0 ? worse / bound[m] : 0), verdict
		}
	}
}' "$dir/metrics" "$dir/results"
