#!/usr/bin/env bash
# Self-test of bench_gate.sh's verdict step on two committed -out reports
# of one workload, fig7-sweep3d, where B's cell_s is twice A's and their
# ranges do not overlap: A against A must pass, and A against B must exit
# 1 naming the workload. Run it from the repository root:
#
#   bash scripts/bench_gate_test.sh
set -uo pipefail
unset GITHUB_STEP_SUMMARY
a=scripts/testdata/bench_a.json b=scripts/testdata/bench_b.json

if ! bash scripts/bench_gate.sh -verdict "$a" "$a" >/dev/null; then
	echo "FAIL: A against A did not pass"
	exit 1
fi
out=$(bash scripts/bench_gate.sh -verdict "$a" "$b")
rc=$?
if [ "$rc" -ne 1 ] || ! grep -qx 'fig7-sweep3d cell_s' <<<"$out"; then
	printf 'FAIL: A against B exited %d, want 1 naming fig7-sweep3d cell_s:\n%s\n' "$rc" "$out"
	exit 1
fi
echo "bench gate self-test: ok"
