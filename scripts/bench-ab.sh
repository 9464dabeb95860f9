#!/usr/bin/env bash
# Benchmark A/B (make bench-ab): run one workload of the repository
# benchmark at git revision REV ("base") and at the working tree ("change")
# in alternating pairs, print every pair's setup_s, summarise each side's
# setup_s by its median and quartiles, and the change/base ratios by their
# geometric mean and median.
#
#   bash scripts/bench-ab.sh REV WORKLOAD [PAIRS]
#   make bench-ab REV=HEAD~1 WORKLOAD=serve-grid400-k3 PAIRS=10
#
# Every run lasts the benchmark's own run_seconds from BENCHMARK.json, so
# each run's setup_s is a median over as many instances as the benchmark's.
# REV is checked out as a detached git worktree under .bench_build/ and
# removed again on exit. Both sides build and run through their own
# bench/run.sh, whose build output stays in the checkout's .bench_build/, so
# the script writes nothing outside the checkout. Pair i runs seed i; odd
# pairs run base first, even pairs change first, so a drift in host speed
# lands on both sides alike.
set -euo pipefail

rev=${1:?usage: bench-ab.sh REV WORKLOAD [PAIRS]}
workload=${2:?usage: bench-ab.sh REV WORKLOAD [PAIRS]}
pairs=${3:-10}

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
seconds=$(sed -n 's/^ *"run_seconds": *\([0-9.]*\).*/\1/p' "$root/BENCHMARK.json")
if [[ -z $seconds ]]; then
    echo "bench-ab: no run_seconds in $root/BENCHMARK.json" >&2
    exit 1
fi
base="$root/.bench_build/ab-base"

cleanup() {
    git -C "$root" worktree remove --force "$base" >/dev/null 2>&1 || true
    git -C "$root" worktree prune
}
trap cleanup EXIT
cleanup
git -C "$root" worktree add --detach "$base" "$rev" >/dev/null 2>&1

# setup_s of one run of the checkout in $1 at seed $2. A run whose JSON is
# not correct or reports failed operations aborts the comparison.
setup() {
    local json
    json=$(bash "$1/bench/run.sh" --workload "$workload" --seed "$2" --seconds "$seconds" | grep '^{' | tail -1)
    case $json in
    *'"correct":true'*'"failed":0,'*) ;;
    *)
        echo "bench-ab: $1 seed $2 did not run clean: $json" >&2
        exit 1
        ;;
    esac
    sed -n 's/.*"setup_s":{"value":\([^,}]*\).*/\1/p' <<<"$json"
}

echo "bench-ab: $workload, base $(git -C "$root" rev-parse --short "$rev") vs the working tree, $pairs pairs of $seconds s runs"
ratios=() bases=() changes=()
for i in $(seq 1 "$pairs"); do
    if ((i % 2)); then
        a=$(setup "$base" "$i")
        b=$(setup "$root" "$i")
    else
        b=$(setup "$root" "$i")
        a=$(setup "$base" "$i")
    fi
    r=$(awk -v a="$a" -v b="$b" 'BEGIN { printf "%.4f", b / a }')
    ratios+=("$r") bases+=("$a") changes+=("$b")
    printf 'pair %2d  seed %2d  base %.6f s  change %.6f s  ratio %s\n' "$i" "$i" "$a" "$b" "$r"
done
# quartiles NAME VALUES...: the median and the quartiles of VALUES, each
# interpolated linearly between the two nearest ranks.
quartiles() {
    local name=$1
    shift
    printf '%s\n' "$@" | sort -g | awk -v name="$name" '
        function q(p,   h, i) { h = (NR - 1) * p + 1; i = int(h); return i >= NR ? v[NR] : v[i] + (h - i) * (v[i + 1] - v[i]) }
        { v[NR] = $1 }
        END { printf "%-6s setup_s median %.6f s  quartiles %.6f .. %.6f s\n", name, q(0.5), q(0.25), q(0.75) }'
}
quartiles base "${bases[@]}"
quartiles change "${changes[@]}"
printf '%s\n' "${ratios[@]}" | sort -g | awk '
    { r[NR] = $1; s += log($1); if ($1 < 1) better++ }
    END {
        med = NR % 2 ? r[(NR + 1) / 2] : (r[NR / 2] + r[NR / 2 + 1]) / 2
        printf "geometric-mean ratio %.4f  median ratio %.4f  change faster in %d of %d pairs\n", exp(s / NR), med, better, NR
    }'
