"""Tests of the benchmark's own output checks: a perturbed output, a unit
that threw, or a broken whole-run invariant must be counted as failed.

Run from the repository root:  python3 -m unittest discover -s perfbench/tests
"""

import copy
import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
import checks  # noqa: E402

REFS = HERE.parent / "refs"


def load_refs(workload):
    return json.loads((REFS / f"{workload}-2022.json").read_text())


def raw_from_refs(workload, refs, passes=1):
    """A clean run document whose every unit reproduces its reference."""
    units = []
    keys = sorted(refs["units"], key=int)
    for p in range(passes):
        for key in keys:
            out = dict(refs["units"][key])
            units.append({"unit": len(units), "key": int(key), "kind": "k",
                          "pass": p, "traced": 0, "cpu_ns": 1e6,
                          "wall_ns": 1e6, "sim_s": 1.0, "out": out})
    summary = {"pool_size": len(keys), "peak_rss_mb": 4.0, "setup_s.0": 0.01}
    if workload == "fleet_mix":
        n = len(units)
        for name in ("events", "slots"):
            total = sum(u["out"][name] for u in units)
            summary[f"counter.fleet_{name}_total"] = total
            summary[f"sum.{name}"] = total
        summary["counter.fleet_sessions_total"] = n
        summary["sum.sessions"] = n
    return {"units": units, "summary": summary}


class CheckTest(unittest.TestCase):
    def assert_clean(self, workload, raw, refs):
        failed, reasons = checks.check(workload, raw, refs)
        self.assertEqual(failed, set(), reasons)

    def test_references_reproduce_cleanly(self):
        for workload in ("trace_study", "fleet_mix", "calibrate"):
            refs = load_refs(workload)
            self.assert_clean(workload, raw_from_refs(workload, refs, passes=2), refs)

    def test_trace_study_pooled_reference(self):
        self.assertEqual(load_refs("trace_study")["pooled_operational_pct"], "99.06")

    def test_perturbed_trace_is_failed(self):
        refs = load_refs("trace_study")
        raw = raw_from_refs("trace_study", refs)
        raw["units"][3]["out"]["off_slots"] += 1
        failed, _ = checks.check("trace_study", raw, refs)
        self.assertIn(3, failed)

    def test_perturbed_session_is_failed(self):
        refs = load_refs("fleet_mix")
        for field, delta in (("events", 1), ("served_fraction", 1e-6),
                             ("avg_rate_gbps", 1e-3)):
            raw = raw_from_refs("fleet_mix", refs)
            raw["units"][5]["out"][field] += delta
            failed, _ = checks.check("fleet_mix", raw, refs)
            self.assertIn(5, failed, field)

    def test_unreconciled_fleet_fails_every_unit(self):
        refs = load_refs("fleet_mix")
        raw = raw_from_refs("fleet_mix", refs)
        raw["summary"]["counter.fleet_events_total"] += 1
        failed, _ = checks.check("fleet_mix", raw, refs)
        self.assertEqual(len(failed), len(raw["units"]))

    def test_stream_arena_copy_is_failed(self):
        refs = load_refs("fleet_mix")
        raw = raw_from_refs("fleet_mix", refs)
        raw["summary"]["counter.stream_arena_copies_total"] = 1
        failed, _ = checks.check("fleet_mix", raw, refs)
        self.assertEqual(len(failed), len(raw["units"]))

    def test_calibration_tolerance(self):
        refs = load_refs("calibrate")
        raw = raw_from_refs("calibrate", refs)
        raw["units"][0]["out"]["lemma1_mm"] += 0.004  # Within 0.01 mm.
        self.assert_clean("calibrate", raw, refs)
        raw["units"][1]["out"]["rx_combined_avg_mm"] += 0.02
        failed, _ = checks.check("calibrate", raw, refs)
        self.assertEqual(failed, {1})

    def test_thrown_unit_is_failed(self):
        refs = load_refs("calibrate")
        raw = raw_from_refs("calibrate", refs)
        raw["units"][2] = {**raw["units"][2], "out": {}, "error": "boom"}
        failed, reasons = checks.check("calibrate", raw, refs)
        self.assertEqual(failed, {2})
        self.assertEqual(reasons[2], "boom")

    def test_unknown_key_is_failed(self):
        refs = copy.deepcopy(load_refs("calibrate"))
        raw = raw_from_refs("calibrate", refs)
        del refs["units"]["0"]
        failed, _ = checks.check("calibrate", raw, refs)
        self.assertEqual(failed, {0})


class StatisticsTest(unittest.TestCase):
    def test_tail_needs_ten_samples_beyond(self):
        self.assertEqual(checks.tail(list(range(1, 1001)))[0], "p99")
        self.assertEqual(checks.tail(list(range(1, 1000)))[0], "p95")
        self.assertEqual(checks.tail(list(range(1, 17))), ("max", 16))
        label, value = checks.tail(list(range(1, 1001)))
        self.assertEqual(value, 990)

    def test_end_to_end_metrics(self):
        # Two kinds; key k costs k+1 ms on pass 0 and 3(k+1) ms on pass 1,
        # so each pool entry's median is 2(k+1) ms.
        units = [{"unit": 20 * p + k, "key": k, "kind": "ab"[k % 2], "pass": p,
                  "traced": 0, "cpu_ns": (1 + 2 * p) * (k + 1) * 1e6,
                  "wall_ns": 1e6, "sim_s": 0.5, "out": {}}
                 for p in range(2) for k in range(20)]
        summary = {"peak_rss_mb": 4.0, "setup_s.0": 0.3, "setup_s.1": 0.1,
                   "setup_s.2": 0.2}
        metrics, context = checks.end_to_end({"units": units, "summary": summary})
        self.assertEqual(metrics["setup_s"][0], 0.2)
        self.assertEqual(context["tail_percentile"], "p50")
        self.assertEqual(metrics["unit_ms_tail"][0], 20.0)
        self.assertEqual(metrics["units_per_s"][0], 40 / (4 * 210e-3))
        self.assertEqual(context["unit_ms_p50"], 15.5)
        self.assertEqual(context["kind_ms_p50"], {"a": 15.0, "b": 17.0})
        self.assertEqual(context["sim_s_per_wall_s"], 0.5 / 1e-3)

    def test_self_time_subtracts_children(self):
        spans = [
            {"name": "u.unit", "dur": 10.0, "args": {"parent": -1}},
            {"name": "a", "dur": 4.0, "args": {"parent": 0}},
            {"name": "b", "dur": 1.0, "args": {"parent": 1}},
        ]
        self.assertEqual(checks.self_times(spans), [6000.0, 3000.0, 1000.0])


if __name__ == "__main__":
    unittest.main()
