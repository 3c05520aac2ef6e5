#!/usr/bin/env bash
# Gates a change on the benchmark's own verdict: runs bench/run.sh at a
# base commit and in this checkout, prints the before/after table of
# bench/run.sh -compare, and fails when any end-to-end row of it reads
# "worse" under the bounds in BENCHMARK.json. Rows that read "unresolved"
# (a spread wider than the bound, with overlapping ranges) are reported
# but do not fail. Run it from the repository root:
#
#   bash scripts/bench_gate.sh HEAD^                   # measure both, then judge
#   bash scripts/bench_gate.sh -verdict a.json b.json  # judge two -out reports
#
# The base is measured in a temporary git worktree. With
# GITHUB_STEP_SUMMARY set, the table is appended to that file too.
set -euo pipefail

# verdict prints the -compare table of reports $1 (base) and $2 (head)
# and returns 1, naming each workload and metric, if any row is worse.
verdict() {
	local table worse
	table=$(bash bench/run.sh -compare "$1" "$2")
	echo "$table"
	if [ -n "${GITHUB_STEP_SUMMARY:-}" ]; then
		printf '```\n%s\n```\n' "$table" >>"$GITHUB_STEP_SUMMARY"
	fi
	# The end-to-end table runs from its header to the first blank line,
	# and its last column is the verdict.
	worse=$(awk '$1 == "workload" && $2 == "metric" { on = 1; next }
		on && NF == 0 { exit }
		on && $NF == "worse" { print $1, $2 }' <<<"$table")
	if [ -n "$worse" ]; then
		printf 'bench gate: worse than the base on\n%s\n' "$worse"
		return 1
	fi
}

if [ "${1:-}" = -verdict ] && [ $# -eq 3 ]; then
	verdict "$2" "$3"
	exit
elif [ $# -ne 1 ] || [[ $1 == -* ]]; then
	echo "usage: bench_gate.sh <base-ref> | -verdict a.json b.json" >&2
	exit 2
fi

base=$(git rev-parse --verify "$1^{commit}")
work=$(mktemp -d)
trap 'git worktree remove --force "$work/base" >/dev/null 2>&1; rm -rf "$work"' EXIT
git worktree add --detach "$work/base" "$base" >/dev/null
(cd "$work/base" && bash bench/run.sh -trace 0 -out "$work/base.json")
bash bench/run.sh -trace 0 -out "$work/head.json"
verdict "$work/base.json" "$work/head.json"
