"""The closed loop, output checks and metrics of one workload process.

Imported by ``client.py`` after its timed import.  Requests are issued
in-process, one after the other, until the run's time is up.  Each request is
timed around ``cli.main(argv)`` alone; its output is checked after the timer
stops.  The first unit is a warm-up: it is checked but not timed, because
the steady state is what later changes move.

With tracing on, units alternate in pairs between untraced and traced
(``Tracer`` installed), so the tracing overhead is measured on the same
stretch of the run.  The traced pass then sweeps ``contrast_matrix`` over K.
"""

import json
import os
import resource
import statistics
import time

import factorial2k.cli as cli
from factorial2k.regression import IDENTITY_RTOL

from client import CALIBRATION_REF_S, loop_time
from tracing import TARGETS, Tracer, layer_stats

# The warm-up plus at least one untraced and one traced unit, however short
# the run.
MIN_UNITS = 4


def tail(samples):
    """Value at the highest percentile with at least ten samples beyond it.

    Returns (value, percentile).  With ten samples or fewer no percentile
    qualifies and the maximum is returned at percentile 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def rel_err(actual, expected):
    scale = max(abs(v) for v in expected) or 1.0
    return max(abs(a - e) for a, e in zip(actual, expected)) / scale


def check(req, refs):
    """Correctness checks on one request's output: (failure or None, payload)."""
    if req["rc"] != 0:
        return f"exit code {req['rc']}", None
    with open(req["out"]) as fh:
        payload = json.load(fh)
    if "ref" in req["check"]:
        if not payload["verification"]["pass"]:
            return "verification.pass is false", payload
        ref = refs[req["check"]["ref"]]
        effects = payload["moment"]["effects"]
        if set(effects) != set(ref):
            return "effect labels differ from the reference", payload
        labels = sorted(ref)
        for i, stat in enumerate(("estimate", "se")):
            err = rel_err([effects[lb][stat] for lb in labels], [ref[lb][i] for lb in labels])
            if not err <= IDENTITY_RTOL:
                return f"moment {stat} off the reference by {err:.3g}", payload
    if req["check"].get("exact") and not payload["report"]["unbiasedness"]["pass"]:
        return "unbiasedness.pass is false", payload
    return None, payload


def call(argv):
    start = time.perf_counter()
    try:
        rc = cli.main(argv)
    except (Exception, SystemExit) as exc:  # counted as a failed request
        rc = f"{type(exc).__name__}: {exc}"
    return rc, time.perf_counter() - start


def run(plan, seconds, tracer):
    """Issue units until ``seconds`` have passed; returns per-call records.

    With a tracer, units 1 and 2 of every four are traced.
    """
    units = plan["units"]
    calls, failures = [], []
    deadline = time.perf_counter() + seconds
    before = loop_time()
    i = 0
    while True:
        unit = [dict(req) for req in units[i % len(units)]]
        traced = tracer is not None and ((i + 1) // 2) % 2 == 1
        if traced:
            tracer.install()
        for req in unit:
            if traced:
                tracer.request = len(calls)
            req["rc"], req["elapsed"] = call(req["argv"])
            calls.append(req)
        if traced:
            tracer.uninstall()
        after = loop_time()
        payloads = []
        for req in unit:
            req["scaled"] = req["elapsed"] * CALIBRATION_REF_S * 2 / (before + after)
            req["error"], payload = check(req, plan["refs"])
            payloads.append(payload)
            req["out_bytes"] = os.path.getsize(req["out"]) if payload else 0
            req["traced"], req["warmup"] = traced, i == 0
        before = after
        if len(unit) == 2 and all(payloads) and payloads[0]["report"] != payloads[1]["report"]:
            unit[1]["error"] = "report differs between --workers 2 and --workers 1"
        for req in unit:
            if req["error"]:
                failures.append(f"{req['argv'][0]} unit {i}: {req['error']}")
        i += 1
        if i >= MIN_UNITS and time.perf_counter() >= deadline:
            return calls, failures


def end_to_end(calls):
    """Request-time metrics in reference seconds, and in raw wall seconds."""
    timed = [c for c in calls if not c["warmup"] and not c["traced"]]
    measured = [c for c in timed if c["measured"]]
    out = {"samples": len(measured)}
    for prefix, key in (("", "scaled"), ("wall.", "elapsed")):
        times = [c[key] for c in measured]
        out[prefix + "call_s.p50"] = statistics.median(times)
        out[prefix + "call_s.tail"], out["tail_percentile"] = tail(times)
        out[prefix + "work_per_s"] = sum(c["work"] for c in measured) / sum(times)
    single = [c["scaled"] for c in timed if not c["measured"]]
    if single:
        out["scaling_eff"] = statistics.median(single) / (2 * out["call_s.p50"])
    return out


def per_layer(calls, tracer, untraced):
    traced = [c for c in calls if c["traced"]]
    n = len(traced)
    stats, self_sum = layer_stats(tracer.spans, n)
    zero = {"calls": 0.0, "self_s": 0.0, "p50_s": 0.0}
    layers = {}
    for _, _, name in TARGETS:
        st = stats.get(name, zero)
        layers[name + ".calls"] = st["calls"]
        if not name.startswith("weighting."):
            layers[name + ".self_s"] = st["self_s"]
            layers[name + ".p50_s"] = st["p50_s"]

    def spans(name):
        return [s for s in tracer.spans if s[1] == name and s[7] is not None]

    layers["core.ingest_csv.rows"] = sum(s[7]["rows"] for s in spans("core.ingest_csv")) / n
    layers["contrasts.contrast_matrix.entries"] = (
        sum(s[7]["entries"] for s in spans("contrasts.contrast_matrix")) / n
    )
    design = [s[7]["design_bytes"] for s in spans("regression.ols_fit")]
    layers["regression.ols_fit.design_mb"] = statistics.median(design) / 1e6 if design else 0.0

    mc = spans("simulate.monte_carlo")
    busy = {}
    for s in tracer.spans:
        busy[s[4]] = busy.get(s[4], 0.0) + (s[3] - s[2])
    pooled = [s for s in mc if s[7]["workers"] > 1]
    layers["simulate.monte_carlo.busy_ratio"] = (
        sum(busy.get(s[0], 0.0) for s in pooled)
        / sum(s[7]["workers"] * (s[3] - s[2]) for s in pooled)
        if pooled else 0.0
    )
    reps = sum(s[7]["reps"] for s in mc)
    layers["simulate.monte_carlo.failed_frac"] = (
        sum(s[7]["failures"] for s in mc) / reps if reps else 0.0
    )
    layers["simulate.monte_carlo.scaling_eff"] = untraced.get("scaling_eff", 0.0)
    layers["cli.main.out_bytes"] = sum(c["out_bytes"] for c in traced) / n

    traced_p50 = statistics.median(c["elapsed"] for c in traced if c["measured"])
    layers["trace.overhead_s"] = traced_p50 - untraced["wall.call_s.p50"]
    layers["trace.self_share"] = self_sum / sum(c["elapsed"] for c in traced)
    layers["trace.requests"] = float(n)
    layers.update(contrast_sweep())
    return layers


def contrast_sweep():
    """One-off contrast_matrix build time for K = 2..10 (equal scheme)."""
    from factorial2k.contrasts import contrast_matrix
    from factorial2k.weighting import equal_scheme

    out = {}
    for K in range(2, 11):
        repeats = 5 if K <= 7 else 3 if K == 8 else 1
        times = []
        for _ in range(repeats):
            scheme = equal_scheme(K)
            start = time.perf_counter()
            contrast_matrix(scheme, K)
            times.append(time.perf_counter() - start)
        out[f"contrasts.contrast_matrix.s_K{K}"] = statistics.median(times)
    return out


def main(argv, setup):
    if argv == ["--probe"]:
        print(json.dumps(setup))
        return 0
    plan_path, seconds, trace, result_path, *spans_path = argv
    with open(plan_path) as fh:
        plan = json.load(fh)
    tracer = Tracer() if trace == "1" else None
    calls, failures = run(plan, float(seconds), tracer)
    result = {
        "setup": setup,
        "attempted": len(calls),
        "failed": sum(1 for c in calls if c["error"]),
        "failures": failures[:10],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "end_to_end": end_to_end(calls),
    }
    if tracer is not None:
        result["per_layer"] = per_layer(calls, tracer, result["end_to_end"])
        if spans_path:
            tracer.dump(spans_path[0])
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0
