#!/usr/bin/env python3
"""CI gate: every untraced benchmark run must stay under an RSS budget.

Usage: check_peak_rss.py <results-dir> <budget-MiB>

Reads `extras.peak_rss_mib` from each untraced result record the
benchmark's `run` command wrote into <results-dir> (`<workload>-seed<n>.json`;
the traced `*.traced.json` records are skipped, since tracing holds its
own buffers). The train workload streams a 50k-segment Megacity from an
on-disk trip store, so the budget catches an accidental whole-corpus
materialization (holding 100k trips x ~50 GPS points in memory blows
through any sane budget immediately); it is deliberately loose versus the
reference host's reading to absorb allocator and runner variance. A
directory with no record, or a record without a reading, fails.
"""

import glob
import json
import os
import sys


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    out_dir, budget_mib = sys.argv[1], float(sys.argv[2])
    paths = sorted(
        p for p in glob.glob(os.path.join(out_dir, "*-seed*.json"))
        if not p.endswith(".traced.json")
    )
    if not paths:
        print(f"no untraced benchmark records in {out_dir}")
        return 1
    ok = True
    for path in paths:
        with open(path) as f:
            record = json.load(f)
        name = record.get("workload", os.path.basename(path))
        peak = record.get("extras", {}).get("peak_rss_mib", {}).get("value")
        if not peak:
            print(f"{name}: peak_rss_mib missing (non-Linux runner?)")
            ok = False
            continue
        verdict = "ok" if peak < budget_mib else f"EXCEEDS {budget_mib:g} MiB budget"
        print(f"{name}: peak RSS {peak:.1f} MiB — {verdict}")
        ok = ok and peak < budget_mib
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
