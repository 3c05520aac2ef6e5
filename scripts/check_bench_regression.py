#!/usr/bin/env python3
"""Fail when simulator event throughput regresses against the baseline.

Usage:

    scripts/check_bench_regression.py BENCH_baseline.json BENCH_sim.json

Both files are rvmabench -json-out output: {"records": [...], "summary":
{...}} (see EXPERIMENTS.md, "Simulator performance log"). The guard
compares events/sec — the wall-clock-normalized kernel speed — in two
ways:

  * the aggregate (summary.events_per_sec_aggregate, computed over the
    sum of per-cell wall times, so it is independent of -workers), and
  * each cell present in both files, so a regression confined to one
    transport or topology cannot hide inside a healthy average.

Baseline and current run must use the same -workers setting (CI pins
-workers 1): when workers oversubscribe the host's cores, concurrent
cells time-share and per-cell wall time inflates, which would read as a
phantom regression.

A drop of more than the threshold (default 20%, override with
BENCH_REGRESSION_THRESHOLD, e.g. 0.3) in the aggregate, or in more than
a quarter of the shared cells, fails with exit status 1. Per-cell noise
is expected — single cells regressing is reported but tolerated up to
that quorum. Event *counts* changing for a shared cell is a determinism
red flag and always fails: the same simulation must execute the same
events no matter how fast the host is.

Every record carries the cell's engine partition count ("shards",
rvmabench -shards N, default 1) per cell and in the summary. events/sec
is only apples-to-apples between runs at the same shard count, so cells
whose shard counts differ are reported in the table (annotated) but
exempt from the throughput regression checks. The event-count equality
check always applies: every shard count simulates the same run.

Cells present in only one log are not errors: a cell in the current run
with no baseline counterpart (a newly added experiment family, e.g. the
kv dataplane) is reported as "new, no baseline" and exempt from every
check, and a baseline cell missing from the current run is reported as
"absent from current". Only a pair of logs with no shared cells *and* no
new cells fails — that means the current log is empty or the files are
unrelated. When no cells are shared at all, the aggregate events/sec
compares different workloads, so it is printed but not regression-checked.

The full per-cell delta table (events/sec baseline vs current, delta %)
always prints to stdout; when $GITHUB_STEP_SUMMARY is set it is also
appended there as a markdown table, so every CI run shows the per-cell
trajectory, not just pass/fail.
"""

import json
import os
import sys


def load(path):
    with open(path) as f:
        doc = json.load(f)
    records = {r["cell"]: r for r in doc.get("records", [])}
    return doc.get("summary", {}), records


def shards_of(rec):
    """Engine partition count of a record (1 when absent)."""
    return rec.get("shards", 1)


def delta_rows(shared, base_cells, cur_cells, new_cells=(), gone_cells=()):
    """One (cell, base_eps, cur_eps, delta_or_None, note) row per cell.
    Shared cells run at different shard counts get a note and delta=None
    (their events/sec are not comparable), as do cells present in only
    one log: current-only cells are "new, no baseline", baseline-only
    cells are "absent from current"."""
    rows = []
    for cell in shared:
        b, c = base_cells[cell], cur_cells[cell]
        b_eps = b.get("events_per_sec", 0.0)
        c_eps = c.get("events_per_sec", 0.0)
        if shards_of(b) != shards_of(c):
            note = f"shards {shards_of(b)}->{shards_of(c)}"
            rows.append((cell, b_eps, c_eps, None, note))
            continue
        delta = (c_eps - b_eps) / b_eps if b_eps > 0 and c_eps > 0 else None
        rows.append((cell, b_eps, c_eps, delta, ""))
    for cell in new_cells:
        c_eps = cur_cells[cell].get("events_per_sec", 0.0)
        rows.append((cell, 0.0, c_eps, None, "new, no baseline"))
    for cell in gone_cells:
        b_eps = base_cells[cell].get("events_per_sec", 0.0)
        rows.append((cell, b_eps, 0.0, None, "absent from current"))
    return rows


def print_delta_table(rows):
    if not rows:
        return
    width = max(len(r[0]) for r in rows)
    print(f"\n{'cell':<{width}}  {'baseline ev/s':>14}  {'current ev/s':>14}  {'delta':>8}")
    for cell, b_eps, c_eps, delta, note in rows:
        d = f"{delta:+.1%}" if delta is not None else (note or "n/a")
        print(f"{cell:<{width}}  {b_eps:>14,.0f}  {c_eps:>14,.0f}  {d:>8}")
    print()


def append_step_summary(rows, base_agg, cur_agg):
    """Append the delta table as markdown to $GITHUB_STEP_SUMMARY, if set."""
    path = os.environ.get("GITHUB_STEP_SUMMARY")
    if not path or not rows:
        return
    lines = ["### Per-cell events/sec vs baseline", "",
             "| cell | baseline ev/s | current ev/s | delta |",
             "| --- | ---: | ---: | ---: |"]
    for cell, b_eps, c_eps, delta, note in rows:
        d = f"{delta:+.1%}" if delta is not None else (note or "n/a")
        lines.append(f"| `{cell}` | {b_eps:,.0f} | {c_eps:,.0f} | {d} |")
    if base_agg > 0 and cur_agg > 0:
        agg_delta = (cur_agg - base_agg) / base_agg
        lines += ["", f"**Aggregate:** {base_agg:,.0f} → {cur_agg:,.0f} "
                      f"({agg_delta:+.1%})"]
    with open(path, "a") as f:
        f.write("\n".join(lines) + "\n")


def main(argv):
    if len(argv) != 3:
        sys.exit(f"usage: {argv[0]} BASELINE.json CURRENT.json")
    threshold = float(os.environ.get("BENCH_REGRESSION_THRESHOLD", "0.20"))

    base_summary, base_cells = load(argv[1])
    cur_summary, cur_cells = load(argv[2])

    failures = []

    shared = sorted(set(base_cells) & set(cur_cells))
    new_cells = sorted(set(cur_cells) - set(base_cells))
    gone_cells = sorted(set(base_cells) - set(cur_cells))

    base_agg = base_summary.get("events_per_sec_aggregate", 0.0)
    cur_agg = cur_summary.get("events_per_sec_aggregate", 0.0)
    base_shards = shards_of(base_summary)
    cur_shards = shards_of(cur_summary)
    if base_agg > 0 and cur_agg > 0:
        drop = (base_agg - cur_agg) / base_agg
        print(f"aggregate events/sec: baseline {base_agg:,.0f} -> current "
              f"{cur_agg:,.0f} ({-drop:+.1%})")
        if base_shards != cur_shards:
            print(f"note: shard counts differ (baseline {base_shards}, "
                  f"current {cur_shards}); aggregate throughput not "
                  f"regression-checked")
        elif not shared:
            print("note: no shared cells (different workloads); aggregate "
                  "throughput not regression-checked")
        elif drop > threshold:
            failures.append(
                f"aggregate events/sec dropped {drop:.1%} "
                f"(threshold {threshold:.0%})")
    else:
        failures.append("missing events_per_sec_aggregate in summary")

    if not shared and not new_cells:
        failures.append("no cells shared between baseline and current run")
    elif new_cells:
        print(f"note: {len(new_cells)} cell(s) new in current run, "
              f"no baseline to compare")
    rows = delta_rows(shared, base_cells, cur_cells, new_cells, gone_cells)
    print_delta_table(rows)
    append_step_summary(rows, base_agg, cur_agg)
    regressed = []
    comparable = 0
    for cell in shared:
        b, c = base_cells[cell], cur_cells[cell]
        # Event counts must match at any shard counts: every partition
        # simulates the same run.
        if b.get("events") != c.get("events"):
            failures.append(
                f"{cell}: event count changed {b.get('events')} -> "
                f"{c.get('events')} (determinism violation, not a perf issue)")
        if shards_of(b) != shards_of(c):
            continue  # throughput not comparable across shard counts
        comparable += 1
        b_eps, c_eps = b.get("events_per_sec", 0.0), c.get("events_per_sec", 0.0)
        if b_eps > 0 and c_eps > 0:
            drop = (b_eps - c_eps) / b_eps
            if drop > threshold:
                regressed.append((cell, drop))
    for cell, drop in regressed:
        print(f"slow cell: {cell} events/sec down {drop:.1%}")
    if comparable and len(regressed) > comparable // 4:
        failures.append(
            f"{len(regressed)}/{comparable} cells regressed more than "
            f"{threshold:.0%} (quorum is {comparable // 4})")

    if failures:
        print()
        for f in failures:
            print(f"FAIL: {f}")
        return 1
    notes = []
    if skipped := len(shared) - comparable:
        notes.append(f"{skipped} skipped: shard counts differ")
    if new_cells:
        notes.append(f"{len(new_cells)} new, no baseline")
    note = f" ({'; '.join(notes)})" if notes else ""
    print(f"OK: {comparable} cells within {threshold:.0%} of baseline{note}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
