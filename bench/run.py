"""factorial2k benchmark: one workload, end to end or traced.

Usage, from the root of a checkout::

    python3 bench/run.py --workload analyze-wide --seed 1 --seconds 25 --trace 0
    python3 bench/run.py        # every workload, untraced then traced

The workloads and metrics are declared in ``BENCHMARK.json`` at the root and
described in ``bench/README.md``.  This script generates the workload's
inputs from ``--seed`` (untimed), times ``import factorial2k.cli`` in fresh
interpreters, runs the workload process ``bench/client.py`` for ``--seconds``
against the package in ``src/`` and prints every metric by name and unit.
The last line of its output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``, the
per-layer ones with ``--trace 1``).  A copy of the results, with the
environment, goes to ``bench/out/``; with ``--trace 1`` the spans do too.

The BLAS thread variables are passed through as inherited, never set.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

from workloads import WORK_UNITS, build_plan

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CLIENT = os.path.join(HERE, "client.py")
# Fresh interpreters that only time the import, on top of the workload's own.
SETUP_PROBES = 2
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {v: os.environ.get(v, "unset") for v in THREAD_VARS},
    }


def python(args, timeout):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True,
        text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(args[:2])} exited {proc.returncode}:\n{proc.stderr}")
    return proc


def estimation_import_s():
    """Cumulative import time of factorial2k.estimation from -X importtime."""
    proc = python(["-X", "importtime", "-c", "import factorial2k.cli"], timeout=120)
    for line in proc.stderr.splitlines():
        fields = line.split("|")
        if len(fields) == 3 and fields[2].strip() == "factorial2k.estimation":
            return int(fields[1]) / 1e6
    raise RuntimeError("factorial2k.estimation missing from -X importtime")


def parse_args(argv, declared):
    workloads = [w["name"] for w in declared["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads + ["all"], default="all",
                        help="one workload, or all of them untraced then traced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=declared["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure(workload, seed, seconds, trace, out_dir):
    """Generate inputs, run the workload process and collect its results."""
    os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=workload + "-", dir=os.path.join(HERE, ".work"))
    try:
        plan_path = os.path.join(workdir, "plan.json")
        with open(plan_path, "w") as fh:
            json.dump(build_plan(workload, seed, workdir), fh)
        setups = [] if trace else [
            json.loads(python([CLIENT, "--probe"], timeout=120).stdout)
            for _ in range(SETUP_PROBES)
        ]
        result_path = os.path.join(workdir, "result.json")
        client_args = [CLIENT, plan_path, str(seconds), str(trace), result_path]
        if trace:
            client_args.append(os.path.join(out_dir, f"spans-{workload}-seed{seed}.jsonl.gz"))
        python(client_args, timeout=seconds + 120)
        with open(result_path) as fh:
            result = json.load(fh)
    finally:
        shutil.rmtree(workdir)
    setups.append(result["setup"])
    result["setup_samples"] = setups
    if trace:
        result["per_layer"]["setup.import_s.factorial2k_estimation"] = estimation_import_s()
    else:
        e2e = result["end_to_end"]
        for key in ("setup_s", "wall.setup_s"):
            e2e[key] = statistics.median(s[key] for s in setups)
        e2e["peak_rss_mb"] = result["peak_rss_mb"]
    return result


def report(declared, workload, seed, seconds, trace, out_dir):
    """Run one workload, print its metrics and return its JSON summary."""
    why = {w["name"]: w["why"] for w in declared["workloads"]}[workload]
    result = measure(workload, seed, seconds, trace, out_dir)
    kind = "per_layer" if trace else "end_to_end"
    values = result[kind]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared[kind]}
    e2e = result["end_to_end"]
    record = {
        "workload": workload,
        "why": why,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(),
        "work_unit": WORK_UNITS[workload],
        "fail_frac": result["failed"] / result["attempted"],
        "tail": {"percentile": e2e["tail_percentile"], "samples": e2e["samples"]},
        "wall": {k[5:]: v for k, v in e2e.items() if k.startswith("wall.")},
        "setup_samples": result["setup_samples"],
        "failures": result["failures"],
        "metrics": metrics,
    }
    if "scaling_eff" in e2e:
        record["scaling_eff"] = e2e["scaling_eff"]
    with open(os.path.join(out_dir, f"{workload}-seed{seed}-trace{trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload {workload} seed {seed} trace {trace}: {why}")
    print("environment " + json.dumps(record["environment"]))
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(f"fail_frac = {record['fail_frac']:.6g}"
          f" ({result['failed']} of {result['attempted']} requests failed)")
    print(f"call_s.tail is p{e2e['tail_percentile']:.1f} of {e2e['samples']} timed requests;"
          f" work_per_s counts {WORK_UNITS[workload]}")
    if not trace:
        print("raw wall times: " + ", ".join(
            f"{k[5:]} = {v:.6g}" for k, v in e2e.items() if k.startswith("wall.")))
    if "scaling_eff" in record:
        print(f"scaling_eff = {record['scaling_eff']:.6g}"
              " (median --workers 1 time / 2 x median --workers 2 time)")
    for failure in result["failures"]:
        print("failed: " + failure)
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    args = parse_args(argv, declared)
    if not os.path.isfile(os.path.join(SRC, "factorial2k", "cli.py")):
        print(f"error: no factorial2k package under {SRC}", file=sys.stderr)
        return 2
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    if args.workload != "all":
        summary = report(declared, args.workload, args.seed, args.seconds, args.trace, out_dir)
        print(json.dumps(summary))
        return 0
    summaries = {}
    for trace in (0, 1):
        for w in declared["workloads"]:
            summaries[w["name"], trace] = report(
                declared, w["name"], args.seed, args.seconds, trace, out_dir)
            print()
    print(json.dumps({
        "correct": all(s["correct"] for s in summaries.values()),
        "attempted": sum(s["attempted"] for s in summaries.values()),
        "failed": sum(s["failed"] for s in summaries.values()),
        "metrics": {f"{w}/{name}": m for (w, _), s in summaries.items()
                    for name, m in s["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
