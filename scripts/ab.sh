#!/usr/bin/env bash
# scripts/ab.sh — interleaved A/B run of the repository's benchmark: a
# parent revision (A) against this checkout as it stands, uncommitted
# edits included (B).
#
# It checks PARENT_REV out as a detached git worktree under the
# gitignored .bench_build/ab/, then runs PAIRS seed pairs of WORKLOAD
# (seeds FIRST_SEED, FIRST_SEED+1, ...) through each tree's own
# `bench/run.sh --trace 0`, alternating which side runs first. Each
# run's output stays under .bench_build/ab/<workload>/ as
# parent-<seed>.out and change-<seed>.out (stderr beside it as .err).
# Finally it removes the worktree and exits with the status of
# `bench/run.sh compare` over the runs.
#
#   scripts/ab.sh HEAD~1 cluster-harvest 101 10
#
# A pair takes about twice one run's 8-13 s, plus a cold build of each
# tree on first use.
set -euo pipefail

if [ "$#" -ne 4 ]; then
	echo "usage: scripts/ab.sh PARENT_REV WORKLOAD FIRST_SEED PAIRS" >&2
	exit 2
fi
rev=$1 workload=$2 first=$3 pairs=$4
case "$first$pairs" in
*[!0-9]*)
	echo "ab: FIRST_SEED and PAIRS must be non-negative integers" >&2
	exit 2
	;;
esac

cd "$(dirname "$0")/.."
root=$PWD
tree="$root/.bench_build/ab/parent"
out="$root/.bench_build/ab/$workload"
mkdir -p "$out"
# A worktree left by an interrupted run would block the checkout.
git worktree remove --force "$tree" 2>/dev/null || true
git worktree add --detach --quiet "$tree" "$rev"
trap 'git -C "$root" worktree remove --force "$tree"' EXIT

parents=() changes=()
for ((i = 0; i < pairs; i++)); do
	seed=$((first + i))
	order="parent change"
	if ((i % 2 == 1)); then
		order="change parent"
	fi
	for side in $order; do
		dir=$root
		if [ "$side" = parent ]; then
			dir=$tree
		fi
		echo "ab: $workload seed $seed: $side" >&2
		bash "$dir/bench/run.sh" --workload "$workload" --seed "$seed" --seconds 10 --trace 0 \
			>"$out/$side-$seed.out" 2>"$out/$side-$seed.err"
	done
	parents+=("$out/parent-$seed.out")
	changes+=("$out/change-$seed.out")
done

status=0
bash bench/run.sh compare "${parents[@]}" -- "${changes[@]}" || status=$?
exit "$status"
