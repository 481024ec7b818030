#!/usr/bin/env python3
"""The simulator benchmark: builds perfbench against ../src, runs one
workload, checks every unit's output against the shipped references and
prints the metrics.  The last line of stdout is one JSON object:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage (from the repository root):

  python3 perfbench/run.py --workload trace_study --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --workload calibrate --seed 1 --seconds 20 --trace 1
  python3 perfbench/run.py --workload fleet_mix --seed 1 --dataset-seed 7 ...

--trace 0 prints the end-to-end metrics (tracing off); --trace 1 prints the
per-layer metrics and writes a Chrome trace next to the result file.  See
README.md for what each workload and metric means.
"""

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import checks  # noqa: E402

ROOT = HERE.parent
WORKLOADS = ("trace_study", "fleet_mix", "calibrate")
DEFAULT_DATASET_SEED = 2022
BUILD_TYPE = "Release"
DEADLINE_S = 170.0


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    path = Path(base)
    return (path if path.is_absolute() else ROOT / path) / "perfbench"


def build(out_dir):
    """Configures (once) and builds the perfbench binary; cmake output goes
    to stderr so stdout stays the benchmark's own."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"simulator sources not found at {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        raise RuntimeError("cmake not found")
    if not (out_dir / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out_dir),
               f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}", "-DCYCLOPS_OBS=ON"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(out_dir), "--target", "perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr, stderr=sys.stderr)
    return out_dir / "perfbench"


def run_binary(binary, args, raw_path, trace_path, seconds, deadline):
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--dataset-seed", str(args.dataset_seed), "--seconds", str(seconds),
           "--trace", str(args.trace), "--out", str(raw_path)]
    if args.trace:
        cmd += ["--trace-out", str(trace_path)]
    env = dict(os.environ, CYCLOPS_THREADS="1")
    subprocess.run(cmd, check=True, env=env, stdout=sys.stderr,
                   timeout=max(1.0, deadline - time.monotonic()))
    with open(raw_path) as f:
        return json.load(f)


def git(*argv):
    try:
        done = subprocess.run(["git", "-C", str(ROOT), *argv], capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(args, summary):
    rev = git("rev-parse", "--short", "HEAD")
    status = git("status", "--porcelain") if rev else None
    return {
        "git_rev": rev or "unknown",
        "git_dirty": None if status is None else bool(status),
        "build_type": summary["build_type"],
        "cyclops_obs": summary["cyclops_obs"],
        "host_nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "seed": args.seed,
        "dataset_seed": args.dataset_seed,
        "pool_width": summary["pool_width"],
        "workload": args.workload,
        "trace": args.trace,
    }


def layer_unit(name):
    if name.endswith("_ms") or "_ms." in name:
        return "ms"
    if name.endswith(("_share", "_ratio")) or name == "trace.overhead":
        return "fraction"
    if ".ns_per_event." in name:
        return "ns"
    return "count"


def ref_path(workload, dataset_seed):
    return HERE / "refs" / f"{workload}-{dataset_seed}.json"


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True,
                   help="orders the pool, pass by pass")
    p.add_argument("--seconds", type=float, required=True,
                   help="summed unit time to measure (whole passes)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--dataset-seed", type=int, default=DEFAULT_DATASET_SEED,
                   help="which referenced pool to run (2022 default, 7 held out)")
    p.add_argument("--write-refs", action="store_true",
                   help="write refs/<workload>-<dataset seed>.json from one pass")
    args = p.parse_args()

    out_dir = build_dir()
    binary = build(out_dir)
    deadline = time.monotonic() + DEADLINE_S  # The first run's build may be long.
    runs = out_dir / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-d{args.dataset_seed}-s{args.seed}-t{args.trace}"
    raw_path = runs / f"{stem}.raw.json"
    trace_path = runs / f"{stem}.trace.json"

    if args.write_refs:
        raw = run_binary(binary, args, raw_path, trace_path, 1e-9, deadline)
        refs = checks.make_references(args.workload, raw)
        refs = {"workload": args.workload, "dataset_seed": args.dataset_seed,
                "provenance": provenance(args, raw["summary"]), **refs}
        path = ref_path(args.workload, args.dataset_seed)
        path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
        log(f"wrote {path}")
        return 0

    refs_file = ref_path(args.workload, args.dataset_seed)
    if not refs_file.is_file():
        raise RuntimeError(f"no references for dataset seed {args.dataset_seed}")
    refs = json.loads(refs_file.read_text())

    raw = run_binary(binary, args, raw_path, trace_path, args.seconds, deadline)
    summary = raw["summary"]
    failed, reasons = checks.check(args.workload, raw, refs)
    attempted = len(raw["units"])
    for unit in sorted(failed)[:5]:
        log(f"unit {unit} failed: {reasons[unit]}")

    prov = provenance(args, summary)
    result = {"provenance": prov, "attempted": attempted, "failed": len(failed),
              "fail_fraction": len(failed) / attempted}
    if args.trace:
        with open(trace_path) as f:
            spans = json.load(f)["traceEvents"]
        layers = checks.per_layer(raw, spans)
        metrics = {k: {"value": v, "unit": layer_unit(k)}
                   for k, v in layers.items()}
        result["chrome_trace"] = str(trace_path)
    else:
        e2e, context = checks.end_to_end(raw)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
        named = checks.named_metrics(args.workload, context,
                                     len(failed) / attempted)
        result["named"] = {k: {"value": v, "unit": u} for k, (v, u) in named.items()}
        result["context"] = context
    result["metrics"] = metrics
    result_path = runs / f"{stem}.result.json"
    result_path.write_text(json.dumps(result, indent=1) + "\n")

    print(f"# {args.workload} seed {args.seed} dataset {args.dataset_seed} "
          f"trace {args.trace}: {attempted} units, {len(failed)} failed "
          f"(fail_fraction {len(failed) / attempted:.4f}), {summary['passes']} passes")
    print("# provenance " + json.dumps(prov, sort_keys=True))
    if not args.trace:
        print(f"# {context['units']} timed units; median {context['unit_ms_p50']:.6g} ms "
              f"(wall {context['wall_ms_p50']:.6g} ms); tail = "
              f"{context['tail_percentile']} of {context['pool_entries']} pool "
              f"entries' median times ({context['tail_entries_beyond']} beyond)")
        for name, m in result["named"].items():
            print(f"# {name} {m['value']:.6g} {m['unit']}")
    for name, m in metrics.items():
        print(f"# {name} {m['value']:.6g} {m['unit']}")
    print(f"# result file {result_path}")
    print(json.dumps({"correct": not failed, "attempted": attempted,
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        log(f"perfbench: {e}")
        sys.exit(1)
