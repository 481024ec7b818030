"""Output checks and metric arithmetic for the simulator benchmark.

Pure functions over the raw document perfbench writes (``units`` and
``summary``), so they can be tested without building anything.
"""

import math
import statistics

# Percentiles tried for a tail, highest first; the tail is the highest one
# with at least TAIL_BEYOND samples above it (else the maximum).
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10

# Table-2 quantities are compared at the precision the table prints.
CAL_FIELDS = ("tx1_avg_mm", "tx1_max_mm", "rx1_avg_mm", "rx1_max_mm",
              "lemma1_mm", "tx_combined_avg_mm", "rx_combined_avg_mm")
CAL_TOLERANCE_MM = 0.01
FLEET_EXACT = ("events", "slots", "switches")
FLEET_REAL = ("served_fraction", "avg_rate_gbps")
FLEET_RELATIVE = 1e-9

VARIANTS = ("link", "channel", "hetero", "multi_tx", "arena", "stream",
            "online_recal")
CAL_PHASES = ("stage1_collect", "stage1_fit", "stage2_collect", "stage2_fit",
              "stage2_blind", "stage2_retry")
CAL_KINDS = ("10g_guided", "10g_blind", "25g_guided", "25g_blind")


# ----------------------------------------------------------------- references

def reference_entry(workload, out):
    """The part of a unit's output a reference file keeps."""
    if workload == "trace_study":
        keys = ("off_slots", "total_slots", "samples")
    elif workload == "fleet_mix":
        keys = FLEET_EXACT + FLEET_REAL
    else:
        keys = CAL_FIELDS
    return {k: out[k] for k in keys}


def make_references(workload, raw):
    """Reference document from one clean pass over the whole pool."""
    first = [u for u in raw["units"] if u["pass"] == 0]
    bad = [u for u in first if "error" in u]
    if bad or len(first) != raw["summary"]["pool_size"]:
        raise ValueError("reference pass incomplete or failed")
    refs = {"units": {str(u["key"]): reference_entry(workload, u["out"])
                      for u in first}}
    if workload == "trace_study":
        refs["pooled_operational_pct"] = pooled_operational_pct(first)
    return refs


def pooled_operational_pct(units):
    off = sum(u["out"]["off_slots"] for u in units)
    total = sum(u["out"]["total_slots"] for u in units)
    return f"{100.0 * (1.0 - off / total):.2f}"


def _off_pct(entry):
    return f"{100.0 * entry['off_slots'] / entry['total_slots']:.3f}"


def unit_mismatch(workload, out, ref):
    """Why `out` does not match reference entry `ref`, or None."""
    if workload == "trace_study":
        for k in ("total_slots", "samples"):
            if out.get(k) != ref[k]:
                return f"{k} {out.get(k)} != {ref[k]}"
        if _off_pct(out) != _off_pct(ref):
            return f"off {_off_pct(out)} % != {_off_pct(ref)} %"
        return None
    if workload == "fleet_mix":
        if not out.get("events", 0) > 0:
            return "session dispatched no events"
        for k in FLEET_EXACT:
            if out.get(k) != ref[k]:
                return f"{k} {out.get(k)} != {ref[k]}"
        for k in FLEET_REAL:
            v = out.get(k)
            if v is None or abs(v - ref[k]) > FLEET_RELATIVE * max(1.0, abs(ref[k])):
                return f"{k} {v} != {ref[k]}"
        return None
    for k in CAL_FIELDS:
        v = out.get(k)
        if v is None or not abs(v - ref[k]) < CAL_TOLERANCE_MM:
            return f"{k} {v} != {ref[k]} (±{CAL_TOLERANCE_MM} mm)"
    return None


def run_mismatches(workload, raw, refs):
    """Whole-run checks; each failure marks the units it covers as failed.

    Returns a list of (unit ids, reason)."""
    units = raw["units"]
    summary = raw["summary"]
    found = []
    if workload == "trace_study":
        by_pass = {}
        for u in units:
            by_pass.setdefault(u["pass"], []).append(u)
        for p, members in sorted(by_pass.items()):
            if any("error" in u for u in members):
                continue  # Already failed unit by unit.
            pct = pooled_operational_pct(members)
            if pct != refs["pooled_operational_pct"]:
                found.append(([u["unit"] for u in members],
                              f"pass {p} pooled operational {pct} % != "
                              f"{refs['pooled_operational_pct']} %"))
    elif workload == "fleet_mix":
        everyone = [u["unit"] for u in units]
        for name in ("sessions", "events", "slots"):
            rolled = summary.get(f"counter.fleet_{name}_total")
            summed = summary.get(f"sum.{name}")
            if rolled != summed:
                found.append((everyone, f"fleet_{name}_total {rolled} does not "
                                        f"reconcile with the per-session sum {summed}"))
        copies = summary.get("counter.stream_arena_copies_total", 0)
        if copies != 0:
            found.append((everyone, f"stream arena copies {copies} != 0"))
    return found


def check(workload, raw, refs):
    """Returns (failed unit ids, {unit id: reason})."""
    reasons = {}
    for u in raw["units"]:
        if "error" in u:
            reasons[u["unit"]] = u["error"]
            continue
        ref = refs["units"].get(str(u["key"]))
        why = ("no reference for key" if ref is None
               else unit_mismatch(workload, u["out"], ref))
        if why:
            reasons[u["unit"]] = why
    for ids, why in run_mismatches(workload, raw, refs):
        for i in ids:
            reasons.setdefault(i, why)
    return set(reasons), reasons


# ---------------------------------------------------------------- statistics

def tail(values):
    """(percentile label, value): the highest TAIL_LADDER percentile with at
    least TAIL_BEYOND samples beyond it, else ("max", max)."""
    n = len(values)
    ordered = sorted(values)
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= TAIL_BEYOND:
            # Nearest-rank percentile.
            rank = max(1, math.ceil(p / 100.0 * n))
            return f"p{p:g}", ordered[rank - 1]
    return "max", ordered[-1]


def kind_medians(units):
    by_kind = {}
    for u in units:
        by_kind.setdefault(u["kind"], []).append(u["cpu_ns"] * 1e-6)
    return {k: statistics.median(v) for k, v in sorted(by_kind.items())}


def end_to_end(raw):
    """End-to-end metrics (tracing off) plus the context that goes with them.

    Unit times are process CPU time.  The tail is taken over pool entries,
    each entry's time being its median over the run's passes: it is the
    cost of the most expensive inputs, and the per-entry median keeps a
    transient slowdown of the host out of it.  Medians (overall and per
    unit kind) go to the context, not the bounded metrics: on fleet_mix the
    overall median is the stream variant's, whose speed follows the shared
    host's load by more than the bound allows."""
    summary = raw["summary"]
    units = [u for u in raw["units"] if not u["traced"]]
    ms = [u["cpu_ns"] * 1e-6 for u in units]
    setups = [v for k, v in summary.items() if k.startswith("setup_s.")]
    by_key = {}
    for u in units:
        by_key.setdefault(u["key"], []).append(u["cpu_ns"] * 1e-6)
    key_ms = [statistics.median(v) for v in by_key.values()]
    label, tail_ms = tail(key_ms)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "unit_ms_tail": (tail_ms, "ms"),
        "units_per_s": (len(units) / (sum(ms) * 1e-3), "1/s"),
        "peak_rss_mb": (summary["peak_rss_mb"], "MB"),
    }
    context = {
        "units": len(units),
        "pool_entries": len(key_ms),
        "tail_percentile": label,
        "tail_entries_beyond": sum(1 for v in key_ms if v > tail_ms),
        "unit_ms_p50": statistics.median(ms),
        "kind_ms_p50": kind_medians(units),
        "wall_ms_p50": statistics.median(u["wall_ns"] * 1e-6 for u in units),
        "sim_s_per_wall_s": (sum(u["sim_s"] for u in units)
                             / (sum(u["wall_ns"] for u in units) * 1e-9)),
        "setup_s_all": setups,
    }
    return metrics, context


def named_metrics(workload, context, fail_fraction):
    """The end-to-end figures the workloads are usually quoted by that the
    bounded metrics do not already carry (the run prints them and the
    result file keeps them under "named").  The quoted tails
    (trace_ms_tail, session_ms_tail) are unit_ms_tail itself."""
    named = {"fail_fraction": (fail_fraction, "failed/attempted")}
    p50 = context["unit_ms_p50"]
    if workload == "calibrate":
        named["calibration_s_p50"] = (p50 * 1e-3, "s")
        return named
    named["sim_s_per_wall_s"] = (context["sim_s_per_wall_s"], "sim_s/s")
    if workload == "trace_study":
        named["trace_ms_p50"] = (p50, "ms")
    else:
        for kind, ms in context["kind_ms_p50"].items():
            named[f"{kind}_ms_p50"] = (ms, "ms")
    return named


# ----------------------------------------------------------------- per layer

def self_times(spans):
    """Self time (ns) of every span: its duration minus its children's."""
    own = [s["dur"] * 1e3 for s in spans]
    for s in spans:
        parent = s["args"]["parent"]
        if parent >= 0:
            own[parent] -= s["dur"] * 1e3
    return own


def _ratio(a, b):
    return a / b if b else 0.0


def per_layer(raw, spans):
    """Every per-layer metric: self times from the traced passes' spans,
    counts from the program's own counters (per unit of the workload)."""
    summary = raw["summary"]
    units = raw["units"]
    n = len(units)
    traced = {u["unit"]: u for u in units if u["traced"]}
    nt = len(traced)
    counter = lambda name: summary.get(f"counter.{name}_total", 0)
    per_unit = lambda name: _ratio(counter(name), n)

    own = self_times(spans)
    by_name = {}      # name -> total self ns
    steps = {}        # cal phase -> step count
    phase_ns = {}     # cal phase -> self ns
    unit_ns = 0.0
    unit_self_ns = 0.0
    variant_ns = {}   # (span name, variant) -> [total ns, sessions]
    for s, self_ns in zip(spans, own):
        name = s["name"]
        by_name[name] = by_name.get(name, 0.0) + self_ns
        if name.endswith(".unit"):
            unit_ns += s["dur"] * 1e3
            unit_self_ns += self_ns
        if name == "cal.step":
            tag = s["args"]["tag"]
            steps[tag] = steps.get(tag, 0) + 1
            phase_ns[tag] = phase_ns.get(tag, 0.0) + self_ns
        if name in ("session.prepare", "session.run"):
            kind = traced[s["args"]["unit"]]["kind"]
            slot = variant_ns.setdefault((name, kind), [0.0, 0])
            slot[0] += self_ns
            slot[1] += 1
    ms_per_traced = lambda name: _ratio(by_name.get(name, 0.0) * 1e-6, nt)

    m = {}
    m["motion.gen_ms"] = ms_per_traced("motion.generate_viewing_trace")
    m["motion.gen_share"] = _ratio(by_name.get("motion.generate_viewing_trace", 0.0), unit_ns)
    m["motion.samples"] = _ratio(sum(u["out"].get("samples", 0) for u in units), n)
    m["link.eval_ms"] = ms_per_traced("link.evaluate_trace")
    m["link.eval_share"] = _ratio(by_name.get("link.evaluate_trace", 0.0), unit_ns)
    m["link.eval_intervals"] = per_unit("eval_intervals")
    m["link.eval_bisect_iters"] = per_unit("eval_bisect_iters")
    m["link.eval_slots"] = per_unit("eval_slots")

    events = {v: [0, 0] for v in VARIANTS}  # variant -> [events, sessions]
    for u in units:
        if u["kind"] in events and "events" in u["out"]:
            events[u["kind"]][0] += u["out"]["events"]
            events[u["kind"]][1] += 1
    traced_events = {v: 0 for v in VARIANTS}
    for u in traced.values():
        if u["kind"] in traced_events:
            traced_events[u["kind"]] += u["out"].get("events", 0)
    for v in VARIANTS:
        m[f"event.dispatched.{v}"] = _ratio(events[v][0], events[v][1])
    m["event.eval_dispatched"] = per_unit("eval_events_dispatched")
    for v in VARIANTS:
        run_ns = variant_ns.get(("session.run", v), [0.0, 0])[0]
        m[f"event.ns_per_event.{v}"] = _ratio(run_ns, traced_events[v])

    m["core.gprime_solves"] = per_unit("gprime_solves")
    m["core.gprime_converged_ratio"] = _ratio(counter("gprime_converged"), counter("gprime_solves"))
    m["core.realignments"] = per_unit("session_realignments")
    m["core.tp_failures"] = per_unit("session_tp_failures")

    installs = sum(1 for u in units if u["kind"] in CAL_KINDS)
    traced_installs = sum(1 for u in traced.values() if u["kind"] in CAL_KINDS)
    stepped_lm = sum(steps.get(p, 0) for p in ("stage1_fit", "stage2_fit", "stage2_retry"))
    m["opt.lm_solves"] = per_unit("lm_solves")
    m["opt.lm_iterations"] = (_ratio(stepped_lm, traced_installs)
                              + per_unit("cal_refit_iterations"))
    m["opt.lm_converged_ratio"] = _ratio(counter("lm_converged"), counter("lm_solves"))
    m["opt.stage1_iter_ms"] = _ratio(phase_ns.get("stage1_fit", 0.0) * 1e-6,
                                     steps.get("stage1_fit", 0))
    m["opt.stage1_converged_ratio"] = _ratio(
        sum(u["out"].get("stage1_converged", 0) for u in units), 2 * installs)
    for p in CAL_PHASES:
        m[f"cal.{p}_ms"] = _ratio(phase_ns.get(p, 0.0) * 1e-6, traced_installs)
        m[f"cal.{p}_steps"] = _ratio(steps.get(p, 0), traced_installs)
    m["cal.refits"] = per_unit("cal_refits")
    m["cal.refit_iterations"] = per_unit("cal_refit_iterations")

    for name, label in (("session.prepare", "prepare_ms"), ("session.run", "run_ms")):
        for v in VARIANTS:
            total, count = variant_ns.get((name, v), [0.0, 0])
            m[f"session.{label}.{v}"] = _ratio(total * 1e-6, count)
    m["session.ctx_ms"] = ms_per_traced("session.ctx")

    m["stream.frames_offered"] = per_unit("stream_frames_offered")
    m["stream.delivered_ratio"] = _ratio(counter("stream_frames_delivered"),
                                         counter("stream_frames_offered"))
    m["stream.packets_lost_ratio"] = _ratio(counter("stream_packets_lost"),
                                            counter("stream_packets_sent"))
    m["stream.arena_copies"] = per_unit("stream_arena_copies")
    m["arena.slots"] = per_unit("arena_slots")
    m["arena.migrations"] = per_unit("arena_migrations")
    m["arena.rejections"] = per_unit("arena_rejections")
    m["phy.mmwave_retrains"] = per_unit("mmwave_retrains")

    m["obs.export_ms"] = ms_per_traced("obs.export")
    m["obs.merge_ms"] = ms_per_traced("obs.merge")
    m["obs.series"] = _ratio(sum(u["out"].get("series", 0) for u in traced.values()), nt)
    m["sim.make_prototype_ms"] = ms_per_traced("sim.make_prototype")
    m["trace.overhead"] = trace_overhead(units)
    m["trace.unattributed_share"] = _ratio(unit_self_ns, unit_ns)
    return m


def trace_overhead(units):
    """Median over pool keys of (mean traced time / mean untraced time) - 1."""
    sums = {}
    for u in units:
        slot = sums.setdefault(u["key"], [0.0, 0, 0.0, 0])
        i = 0 if u["traced"] else 2
        slot[i] += u["cpu_ns"]
        slot[i + 1] += 1
    ratios = [(t / tn) / (p / pn) - 1.0
              for t, tn, p, pn in sums.values() if tn and pn]
    return statistics.median(ratios) if ratios else 0.0
