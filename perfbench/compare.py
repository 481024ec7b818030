#!/usr/bin/env python3
"""Compares two perfbench result files (written by run.py next to its
build, under runs/*.result.json).

  python3 perfbench/compare.py BASE.result.json NEW.result.json

Refuses (exit 2) when the two results come from different build types,
CYCLOPS_OBS settings, workloads or dataset seeds: such numbers are not
comparable.  Otherwise prints each metric with NEW / BASE.
"""

import json
import sys

MUST_MATCH = ("build_type", "cyclops_obs", "workload", "dataset_seed",
              "pool_width", "trace")


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (json.load(open(path)) for path in argv[1:])
    pb, pn = base["provenance"], new["provenance"]
    differ = [k for k in MUST_MATCH if pb.get(k) != pn.get(k)]
    if differ:
        for k in differ:
            print(f"refused: {k} differs ({pb.get(k)} vs {pn.get(k)})",
                  file=sys.stderr)
        return 2
    print(f"base {pb['git_rev']} (dirty {pb['git_dirty']}) vs "
          f"new {pn['git_rev']} (dirty {pn['git_dirty']}), "
          f"{pn['workload']}, {pn['build_type']}, OBS {pn['cyclops_obs']}")
    for name, m in new["metrics"].items():
        b = base["metrics"].get(name)
        if b is None:
            print(f"{name:34s} {m['value']:12.6g} {m['unit']:8s} (new)")
            continue
        ratio = m["value"] / b["value"] if b["value"] else float("nan")
        print(f"{name:34s} {b['value']:12.6g} -> {m['value']:12.6g} "
              f"{m['unit']:8s} x{ratio:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
