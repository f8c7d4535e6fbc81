#!/usr/bin/env bash
# A/B driver for the repository benchmark. It exports PARENT_REV with git
# archive into a temporary directory and runs that tree's benchmark/run.sh
# and this working tree's benchmark/run.sh, unchanged, in same-seed pairs,
# alternating which side goes first. For every workload and every
# end-to-end metric of BENCHMARK.json it prints each pair, both medians, how
# many pairs the change won (ties count for neither side), the parent's
# interquartile range and a verdict:
#
#   UNRESOLVED  the parent's IQR is wider than the metric's bound, and the
#               runs of the two sides overlap
#   BETTER      the change won at least 9 in 10 pairs and its median is
#               better by more than the parent's IQR
#   WORSE       the change's median is worse than the parent's by more than
#               the metric's bound
#   SAME        none of these
#
# Usage:
#   scripts/ab.sh [--pairs N] [--seconds S] PARENT_REV [WORKLOAD...]
#   scripts/ab.sh --aa [--pairs N] [--seconds S] [WORKLOAD...]
#
# --aa runs the working tree against itself, a check of the verdict: over
# ten pairs it should read neither BETTER nor WORSE (one pair has no spread,
# so any difference reads BETTER there). Workloads default to every one in
# BENCHMARK.json. Every run uses the benchmark's seed 1. Needs bash, git,
# jq, awk and Go. Run nothing else on the machine meanwhile: the numbers
# move with load.
set -euo pipefail

pairs=10 seconds=15 aa=0
readonly seed=1
args=()
while [ $# -gt 0 ]; do
	case "$1" in
	--pairs) pairs="$2"; shift 2 ;;
	--seconds) seconds="$2"; shift 2 ;;
	--aa) aa=1; shift ;;
	-h|--help) sed -n '2,27p' "$0"; exit 0 ;;
	--*) echo "ab.sh: unknown flag $1" >&2; exit 2 ;;
	*) args+=("$1"); shift ;;
	esac
done
[[ "$pairs" =~ ^[1-9][0-9]*$ ]] || { echo "ab.sh: --pairs must be a positive integer" >&2; exit 2; }

root="$(git -C "$(dirname "${BASH_SOURCE[0]}")" rev-parse --show-toplevel)"
bench="$root/BENCHMARK.json"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

if [ "$aa" = 1 ]; then
	parent="$root"
	label="working tree (A/A)"
else
	[ "${#args[@]}" -ge 1 ] || { echo "usage: scripts/ab.sh [--pairs N] [--seconds S] PARENT_REV [WORKLOAD...]" >&2; exit 2; }
	rev="${args[0]}"
	args=("${args[@]:1}")
	parent="$tmp/parent"
	mkdir -p "$parent"
	git -C "$root" archive "$rev" | tar -x -C "$parent"
	label="$(git -C "$root" rev-parse --short "$rev")"
fi
if [ "${#args[@]}" -gt 0 ]; then
	workloads=("${args[@]}")
else
	mapfile -t workloads < <(jq -r '.workloads[].name' "$bench")
fi

# run SIDE DIR WORKLOAD PAIR: one benchmark run; its last stdout line (the
# result object) goes to $tmp/WORKLOAD.SIDE.PAIR.json.
run() {
	local side="$1" dir="$2" w="$3" i="$4" log="$tmp/$3.$1.$4.log"
	if ! (cd "$dir" && bash benchmark/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0) >"$log" 2>&1; then
		echo "ab.sh: $side run $i of $w failed:" >&2
		tail -20 "$log" >&2
		exit 1
	fi
	tail -1 "$log" >"$tmp/$w.$side.$i.json"
}

echo "parent: $label   change: working tree   seed $seed, $seconds s, $pairs pairs"
for w in "${workloads[@]}"; do
	for ((i = 1; i <= pairs; i++)); do
		if ((i % 2)); then
			run parent "$parent" "$w" "$i"
			run change "$root" "$w" "$i"
		else
			run change "$root" "$w" "$i"
			run parent "$parent" "$w" "$i"
		fi
	done
	for side in parent change; do
		jq -rs --arg s "$side" '"\($s) failed operations: \(map(.failed) | add) of \(map(.attempted) | add)"' "$tmp/$w.$side".*.json
	done
	jq -r '.end_to_end[] | "\(.name) \(.better) \(.bound)"' "$bench" | while read -r m better bound; do
		for ((i = 1; i <= pairs; i++)); do
			p="$(jq -r --arg m "$m" '.metrics[$m].value' "$tmp/$w.parent.$i.json")"
			c="$(jq -r --arg m "$m" '.metrics[$m].value' "$tmp/$w.change.$i.json")"
			echo "$i $p $c"
		done | awk -v w="$w" -v m="$m" -v better="$better" -v bound="$bound" '
		# q is the linear-interpolation quantile of the sorted array s[1..n].
		function q(s, n, f,   h, lo) {
			h = (n - 1) * f + 1; lo = int(h)
			return lo >= n ? s[n] : s[lo] + (h - lo) * (s[lo + 1] - s[lo])
		}
		function sort(a, n,   i, j, t) {
			for (i = 2; i <= n; i++)
				for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
		}
		# gain > 0 when x is better than y.
		function gain(x, y) { return better == "lower" ? y - x : x - y }
		function abs(x) { return x < 0 ? -x : x }
		{
			n++; sp[n] = $2; sc[n] = $3
			if (gain($3, $2) > 0) wins++
			rows = rows sprintf("  pair %2d: parent %-14.6g change %-14.6g (%s first)\n", $1, $2, $3, $1 % 2 ? "parent" : "change")
		}
		END {
			sort(sp, n); sort(sc, n)
			mp = q(sp, n, 0.5); mc = q(sc, n, 0.5)
			q1 = q(sp, n, 0.25); q3 = q(sp, n, 0.75); iqr = q3 - q1
			d = gain(mc, mp)
			rel = mp != 0 ? d / abs(mp) : (d == 0 ? 0 : (d > 0 ? 1e9 : -1e9))
			wide = mp != 0 ? iqr / abs(mp) > bound : iqr > 0
			# Every change run better (or worse) than every parent run.
			apart = gain(better == "lower" ? sc[n] : sc[1], better == "lower" ? sp[1] : sp[n]) > 0 ||
				gain(better == "lower" ? sp[n] : sp[1], better == "lower" ? sc[1] : sc[n]) > 0
			if (wide && !apart) verdict = "UNRESOLVED"
			else if (wins * 10 >= 9 * n && d > iqr) verdict = "BETTER"
			else if (-rel > bound) verdict = "WORSE"
			else verdict = "SAME"
			printf "== %s / %s (%s is better, bound %g%%)\n%s", w, m, better, bound * 100, rows
			printf "  medians: parent %.6g  change %.6g  (change %+.1f%%, positive is better)\n", mp, mc, rel * 100
			printf "  change better in %d of %d pairs\n", wins, n
			printf "  parent IQR: %.6g .. %.6g (%.1f%% of its median)\n", q1, q3, mp != 0 ? iqr / abs(mp) * 100 : 0
			printf "  verdict: %s\n", verdict
		}'
	done
done
