"""Command-line front end: analyze, simulate, verify.

Output is JSON-first; every run embeds its configuration, seed, and the
package version for reproducibility.  ``analyze`` reports per-effect
estimates, SEs, CIs and z, and regression coefficients with robust SEs; the
two full covariance matrices are written only with ``--covariance``.  Exit
codes: 0 ok, 1 validation error (including an unreadable input or
unwritable output file), 2 numerical failure, 3 identity/verification
failure, 4 internal error (an unexpected exception, reported in one line).
"""

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import __version__
from .contrasts import contrast_matrix
from .core import cell_summary, ingest_csv, parse_subset_label, FactorSpec
from .errors import (
    Factorial2kError,
    IdentityViolationError,
    ParseError,
    RankDeficientError,
    TooManyAssignmentsError,
)
from .estimation import effect_estimates
from .regression import IDENTITY_RTOL, ModelSpec, saturated_fit, verify_omitted_relation
from .simulate import (
    DesignSizes,
    PotentialOutcomeTable,
    exact_expectations,
    make_constant_effects_population,
    make_no_three_way_population,
    monte_carlo,
    replicate_rng,
)
from .verify import run_identity_suite, suite_passed
from .weighting import ShiftVector, empirical_scheme, equal_scheme, product_scheme

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2
EXIT_IDENTITY = 3
EXIT_INTERNAL = 4


def _parse_floats(text, K, what):
    values = np.array([float(x) for x in text.split(",")])
    if values.size != K:
        raise ParseError(f"{what} needs {K} values")
    return values


def resolve_scheme(name, summary, K):
    """Scheme from a CLI descriptor: equal, empirical, or product:d1,...,dK."""
    if name == "equal":
        return equal_scheme(K)
    if name == "empirical":
        if summary is None:
            raise ParseError("empirical scheme needs observed data")
        return empirical_scheme(summary)
    if name.startswith("product:"):
        return product_scheme(_parse_floats(name.split(":", 1)[1], K, "product scheme"))
    raise ParseError(f"unknown scheme {name!r}")


def _emit(payload, out):
    # strict JSON: a non-finite number raises ValueError rather than writing NaN
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _run_config(args):
    return {
        "version": __version__,
        "command": args.command,
        "args": {k: v for k, v in vars(args).items() if k != "func"},
    }


def cmd_analyze(args):
    if not args.factors:
        raise ParseError("--factors is required for analyze")
    spec = FactorSpec(tuple(args.factors.split(",")))
    data = ingest_csv(args.input, spec, outcome_col=args.outcome_col)
    summary = cell_summary(data, variances=True)
    scheme = resolve_scheme(args.scheme, summary, spec.K)

    if args.delta:
        delta = _parse_floats(args.delta, spec.K, "--delta")
    else:
        # default: pair the shifts with the scheme's marginal one-probabilities
        delta = scheme.factor_one_probs()
    shifts = ShiftVector(delta)
    # the saturated fit checks itself with the product scheme of the shifts, built
    # once per ShiftVector; a scheme with the same joint has the same G, so use it
    if np.array_equal(product_scheme(shifts).joint, scheme.joint):
        scheme = product_scheme(shifts)

    report = effect_estimates(data, scheme, alpha=args.alpha)
    payload = {
        "config": _run_config(args),
        "moment": report.to_dict(covariance=args.covariance),
        "delta": delta.tolist(),
    }

    model = None
    if args.model:
        terms = tuple(parse_subset_label(t, spec) for t in args.model.split(","))
        model = ModelSpec(shifts, terms)
    if model is None or model.saturated:
        fit, verification = saturated_fit(data, shifts)
        max_rel_err = max(verification["coef_rel_err"], verification["cov_rel_err"] or 0.0)
        payload["regression"] = fit.to_dict(spec, covariance=args.covariance)
        payload["verification"] = {
            "identity": "saturated vs moment",
            "max_rel_err": max_rel_err,
            "pass": max_rel_err <= IDENTITY_RTOL,
        }
    else:
        rel = verify_omitted_relation(data, model)
        payload["regression"] = rel["fit"].to_dict(spec, covariance=args.covariance)
        payload["verification"] = {
            "identity": "unsaturated = saturated + correction",
            "max_rel_err": rel["relation_rel_err"],
            "correction_magnitude": float(np.abs(rel["correction"]).max()),
            "pass": bool(rel["pass"]),
        }

    _emit(payload, args.out)
    return EXIT_OK if payload["verification"]["pass"] else EXIT_IDENTITY


def _load_population(args, sizes):
    rng = replicate_rng(args.seed, 0)
    if args.population == "constant":
        u = rng.normal(0.0, 1.0, size=sizes.N)
        m = rng.normal(0.0, 2.0, size=sizes.Q)
        return make_constant_effects_population(sizes.N, u, m)
    if args.population == "no-three-way":
        K = int(round(np.log2(sizes.Q)))
        return make_no_three_way_population(sizes.N, K, args.seed)
    if args.population == "heterogeneous":
        return PotentialOutcomeTable(rng.normal(0.0, 1.0, size=(sizes.N, sizes.Q)))
    if os.path.exists(args.population):
        return PotentialOutcomeTable.from_csv(args.population)
    raise ParseError(f"unknown population {args.population!r}")


def cmd_simulate(args):
    for name in ("reps", "workers"):
        if getattr(args, name) < 1:
            raise ParseError(f"{name} must be >= 1")
    sizes = DesignSizes(np.array([int(s) for s in args.sizes.split(",")]))
    table = _load_population(args, sizes)
    if (table.N, table.Q) != (sizes.N, sizes.Q):
        raise ParseError(
            f"population has {table.N} units and {table.Q} cells, "
            f"--sizes gives {sizes.N} units in {sizes.Q} cells"
        )
    K = table.K
    if args.delta:
        scheme = product_scheme(_parse_floats(args.delta, K, "--delta"))
    else:
        scheme = equal_scheme(K)
    ybar = table.means
    # the moment estimator G Yhat, evaluated on blocks of assignments
    G = contrast_matrix(scheme, K).matrix
    truth = G @ ybar

    payload = {"config": _run_config(args), "truth": truth.tolist()}
    if args.exact:
        mean, cov = exact_expectations(table, sizes, G)
        bias = float(np.abs(mean - truth).max())
        # rounding in the estimates grows with the outcome scale, not the effects
        tol = IDENTITY_RTOL * float(np.abs(ybar).max())
        payload["report"] = {
            "mode": "exact",
            # past the enumeration guard, so the count is small
            "assignments": sizes.assignment_count(),
            "est_mean": mean.tolist(),
            "est_cov": cov.tolist(),
            "unbiasedness": {"max_abs_bias": bias, "pass": bias <= tol},
        }
        _emit(payload, args.out)
        return EXIT_OK if payload["report"]["unbiasedness"]["pass"] else EXIT_IDENTITY
    report = monte_carlo(
        table,
        sizes,
        G,
        reps=args.reps,
        seed=args.seed,
        truth=truth,
        alpha=args.alpha,
        workers=args.workers,
    )
    payload["report"] = report.to_dict()
    _emit(payload, args.out)
    return EXIT_OK


def cmd_verify(args):
    delta = _parse_floats(args.delta, args.K, "--delta") if args.delta else None
    records = run_identity_suite(
        K=args.K,
        seed=args.seed,
        balanced=args.balanced,
        delta=delta,
    )
    payload = {"config": _run_config(args), "identities": records}
    payload["pass"] = suite_passed(records)
    _emit(payload, args.out)
    return EXIT_OK if payload["pass"] else EXIT_IDENTITY


@functools.cache
def _main_parser():
    # built once per process; main reads the default seed on every call
    return _build_parser()


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="factorial2k",
        description="Design-based inference for 2^K factorial experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="estimate effects from a CSV dataset")
    pa.add_argument("--input", required=True)
    pa.add_argument("--factors", help="comma-separated factor column labels")
    pa.add_argument("--outcome-col", default="Y")
    pa.add_argument("--scheme", default="equal")
    pa.add_argument("--delta", help="comma-separated shifts; default: scheme marginals")
    pa.add_argument("--model", help="comma-separated terms, e.g. A,B,A:B; default saturated")
    pa.add_argument("--alpha", type=float, default=0.05)
    pa.add_argument(
        "--covariance",
        action="store_true",
        help="also write the effect covariance and the robust coefficient covariance",
    )
    pa.add_argument("--out")
    pa.set_defaults(func=cmd_analyze)

    ps = sub.add_parser("simulate", help="design-based simulation of an estimator")
    ps.add_argument("--population", required=True, help="constant | no-three-way | heterogeneous | CSV path")
    ps.add_argument("--sizes", required=True, help="comma-separated cell sizes")
    ps.add_argument("--delta", help="shifts defining the product-scheme estimand")
    ps.add_argument("--alpha", type=float, default=0.05)
    ps.add_argument("--reps", type=int, default=10000)
    ps.add_argument("--seed", type=int)
    ps.add_argument("--workers", type=int, default=1, help="accepted, >= 1; does not change the run")
    ps.add_argument("--exact", action="store_true", help="enumerate all assignments")
    ps.add_argument("--out")
    ps.set_defaults(func=cmd_simulate)

    pv = sub.add_parser("verify", help="run the exact-identity suite on random data")
    pv.add_argument("--K", type=int, default=3)
    pv.add_argument("--seed", type=int)
    pv.add_argument("--balanced", action="store_true")
    pv.add_argument("--delta")
    pv.add_argument("--out")
    pv.set_defaults(func=cmd_verify)
    return parser


def main(argv=None):
    args = _main_parser().parse_args(argv)
    try:
        if vars(args).get("seed", 0) is None:
            args.seed = int(os.environ.get("FACTORIAL2K_SEED", "0"))
        if "alpha" in vars(args) and not 0.0 < args.alpha < 1.0:
            raise ParseError(f"--alpha must lie strictly between 0 and 1, got {args.alpha}")
        return args.func(args)
    except (ParseError, ValueError, TooManyAssignmentsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except IdentityViolationError as exc:
        print(f"identity failure: {exc}", file=sys.stderr)
        return EXIT_IDENTITY
    except (RankDeficientError, Factorial2kError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except Exception as exc:
        # a bug, not bad input: one line instead of a traceback
        message = str(exc).replace("\n", " ")
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
