"""Seeded inputs, request plans and reference answers for each workload.

Runs in the benchmark's parent process, before the workload process starts,
so none of it is timed.  The same seed gives byte-identical input files and
the same plan.  The package never sees anything but the files written here
and the CLI arguments in the plan.

A plan is a cycle of units; the workload process issues them in order, as a
closed loop, until its time is up.  A unit is one request, or for
``simulate-mc`` a ``--workers 2`` / ``--workers 1`` pair at one seed.  Each
request carries the work it does (the unit behind ``work_per_s``) and what
the workload process checks in its output.
"""

import os

import numpy as np

LETTERS = "ABCDEFGHIJ"

WIDE_K, WIDE_FILES, WIDE_CELL = 8, 4, (4, 12)
TALL_K, TALL_FILES, TALL_CELL = 3, 2, (24000, 26000)
MC_SIZES, MC_REPS = (16,) * 8, 300
EXACT_SIZES, EXACT_ASSIGNMENTS = (2, 2, 2, 2), 2520
# Enough distinct request seeds for any run the 180 s limit allows.
SIM_UNITS = 1024
# What one request's "work" counts, behind work_per_s.
WORK_UNITS = {
    "analyze-wide": "input rows",
    "analyze-tall": "input rows",
    "simulate-mc": "replicates",
    "simulate-exact": "enumerated assignments",
}


def write_csv(path, K, cells, y):
    """One 0/1 column per factor plus Y; repr() keeps every float exact."""
    prefix = [
        "".join(f"{(c >> (K - 1 - k)) & 1}," for k in range(K)) for c in range(2 ** K)
    ]
    with open(path, "w") as fh:
        fh.write(",".join(LETTERS[:K]) + ",Y\n")
        fh.write("".join([prefix[c] + repr(v) + "\n" for c, v in zip(cells, y)]))


def experiment(rng, K, cell_range):
    """Unbalanced completely randomized experiment: cells and outcomes."""
    Q = 2 ** K
    sizes = rng.integers(cell_range[0], cell_range[1] + 1, size=Q)
    cells = rng.permutation(np.repeat(np.arange(Q), sizes))
    surface = rng.normal(0.0, 2.0, size=Q)
    y = surface[cells] + rng.normal(0.0, 1.0, size=cells.size)
    return cells, y


def product_joint(delta):
    joint = np.ones(1)
    for d in delta:
        joint = np.kron(joint, [1.0 - d, d])
    return joint


def reference_effects(cells, y, K, joint):
    """Moment estimates and SEs computed without the package.

    Cell means and variances come from ``np.bincount``; the contrast matrix
    from the closed-form sign formula
    ``G[S, z] = (-1)^(|S| - |z_S|) * pi_{-S}(z_{-S})``, where ``pi_{-S}`` is the
    scheme's marginal law of the factors outside S.  Cell index bit
    ``K - 1 - k`` holds factor k.  Returns {label: [estimate, se]}.
    """
    Q = 2 ** K
    counts = np.bincount(cells, minlength=Q)
    means = np.bincount(cells, weights=y, minlength=Q) / counts
    resid2 = (y - means[cells]) ** 2
    v_hat = np.bincount(cells, weights=resid2, minlength=Q) / (counts - 1) / counts
    z = np.arange(Q)
    ones = np.array([bin(i).count("1") for i in range(Q)])
    out = {}
    for mask in range(1, Q):
        rest = z & ~mask
        marginal = np.bincount(rest, weights=joint, minlength=Q)[rest]
        row = (-1.0) ** (ones[mask] - ones[z & mask]) * marginal
        label = ":".join(LETTERS[k] for k in range(K) if (mask >> (K - 1 - k)) & 1)
        out[label] = [float(row @ means), float(np.sqrt(row ** 2 @ v_hat))]
    return out


def _analyze_plan(workdir, rng, K, n_files, cell_range, forms_for):
    units, refs = [], {}
    labels = ",".join(LETTERS[:K])
    out = os.path.join(workdir, "out.json")
    for f in range(n_files):
        cells, y = experiment(rng, K, cell_range)
        path = os.path.join(workdir, f"data{f}.csv")
        write_csv(path, K, cells.tolist(), y.tolist())
        for scheme, joint, extra in forms_for(rng, cells):
            key = f"{f}:{scheme}"
            if key not in refs:
                refs[key] = reference_effects(cells, y, K, joint)
            argv = ["analyze", "--input", path, "--factors", labels,
                    "--scheme", scheme, *extra, "--out", out]
            units.append([{"argv": argv, "out": out, "work": int(cells.size),
                           "measured": True, "check": {"ref": key}}])
    return units, refs


def _wide_forms(rng, cells):
    Q = 2 ** WIDE_K
    equal = np.full(Q, 1.0 / Q)
    empirical = np.bincount(cells, minlength=Q) / cells.size
    terms = list(LETTERS[:WIDE_K]) + [
        f"{a}:{b}" for i, a in enumerate(LETTERS[:WIDE_K]) for b in LETTERS[i + 1:WIDE_K]
    ]
    return [
        ("equal", equal, []),
        ("empirical", empirical, []),
        ("equal", equal, ["--model", ",".join(terms)]),
    ]


def _tall_forms(rng, cells):
    Q = 2 ** TALL_K
    delta = [f"{d:.3f}" for d in rng.uniform(0.2, 0.8, size=TALL_K)]
    return [
        ("equal", np.full(Q, 1.0 / Q), []),
        ("product:" + ",".join(delta), product_joint([float(d) for d in delta]), []),
    ]


def _request_seeds(rng):
    return list(dict.fromkeys(int(s) for s in rng.integers(1, 2 ** 31, size=SIM_UNITS)))


def _mc_plan(workdir, rng):
    sizes = ",".join(map(str, MC_SIZES))
    units = []
    for seed in _request_seeds(rng):
        pair = []
        for workers in (2, 1):
            out = os.path.join(workdir, f"out_w{workers}.json")
            argv = ["simulate", "--population", "constant", "--sizes", sizes,
                    "--reps", str(MC_REPS), "--seed", str(seed),
                    "--workers", str(workers), "--out", out]
            pair.append({"argv": argv, "out": out, "work": MC_REPS,
                         "measured": workers == 2, "check": {}})
        units.append(pair)
    return units


def _exact_plan(workdir, rng):
    sizes = ",".join(map(str, EXACT_SIZES))
    out = os.path.join(workdir, "out.json")
    units = []
    for seed in _request_seeds(rng):
        argv = ["simulate", "--population", "heterogeneous", "--sizes", sizes,
                "--exact", "--seed", str(seed), "--out", out]
        units.append([{"argv": argv, "out": out, "work": EXACT_ASSIGNMENTS,
                       "measured": True, "check": {"exact": True}}])
    return units


def build_plan(workload, seed, workdir):
    """Write the workload's inputs under ``workdir`` and return its plan."""
    rng = np.random.default_rng(seed)
    refs = {}
    if workload == "analyze-wide":
        units, refs = _analyze_plan(workdir, rng, WIDE_K, WIDE_FILES, WIDE_CELL, _wide_forms)
    elif workload == "analyze-tall":
        units, refs = _analyze_plan(workdir, rng, TALL_K, TALL_FILES, TALL_CELL, _tall_forms)
    elif workload == "simulate-mc":
        units = _mc_plan(workdir, rng)
    elif workload == "simulate-exact":
        units = _exact_plan(workdir, rng)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return {"workload": workload, "seed": seed, "units": units, "refs": refs}
