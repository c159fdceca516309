"""Command-line driver.

Subcommands: ``basis build``, ``basis verify``, ``shadow run``, ``oracle``,
``bench scaling``. Progress goes to stderr; data goes to files (JSON/CSV with
a schema_version field). Exit codes: 0 all checks pass, 1 check failure,
2 usage or config error, 3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import os
import sys
import time
from statistics import NormalDist

import numpy as np

from . import basis as basis_mod
from . import moments as moments_mod
from .observables import GENERATOR_FAMILIES, make_observable
from .protocol import (
    MixedState,
    baseline_single_copy_shadow,
    mixed_state_shadow,
    predict,
    sample_population_input,
    segment_count,
    shadow_from_population,
)
from .qudit import CapExceededError, RngStream, haar_unitary, hermiticity_deviation
from .young import Partition

logger = logging.getLogger("schur_shadows")

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_CAP = 3

RECORD_COLUMNS = [
    "trial",
    "segment_lambdas",
    "estimate",
    "truth",
    "abs_error",
    "accepted_samples",
    "wall_ms",
]


class ConfigError(ValueError):
    pass


def _write_json(path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _parse_partition(text: str) -> Partition:
    try:
        return Partition(tuple(int(p) for p in text.split(",")))
    except ValueError as exc:
        raise ConfigError(f"bad partition {text!r}: {exc}") from exc


def _observable(spec: str, d: int, rng: RngStream, bound: float | None = None):
    try:
        return make_observable(spec, d, rng, bound)
    except (ValueError, OSError, KeyError) as exc:
        raise ConfigError(f"bad observable spec: {exc}") from exc


# ---------------------------------------------------------------------------
# basis build / verify
# ---------------------------------------------------------------------------


def cmd_basis_build(args) -> int:
    if args.d < 1 or args.n < 1:
        raise ConfigError("d and n must be >= 1")
    out = args.out
    folder = os.path.dirname(os.path.abspath(out))
    if not os.path.isdir(folder):
        raise ConfigError(f"no such directory for --out: {folder}")
    built = basis_mod.build_basis(args.d, args.n)
    basis_mod.save_basis(built, out)
    for lam, block in built.blocks.items():
        print(f"lambda {lam}: dim_Q = {block.dim_q}, dim_P = {block.dim_p}")
    print(f"total vectors: {built.dim}")
    print(f"wrote {out}")
    return EXIT_OK


def cmd_basis_verify(args) -> int:
    if not os.path.exists(args.path):
        raise ConfigError(f"no such file: {args.path}")
    loaded = basis_mod.load_basis(args.path)
    report = basis_mod.verify_nice_basis(loaded)
    for key in basis_mod.VERIFY_LIMITS:
        print(f"{key}: {report[key]:.3e}")
    print(f"vector_count_ok: {report['vector_count_ok']}")
    ok = report["vector_count_ok"] and all(report[key] < limit for key, limit in basis_mod.VERIFY_LIMITS.items())
    return EXIT_OK if ok else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# shadow run
# ---------------------------------------------------------------------------


def _population_run(args):
    """The set-up that ``shadow run`` and ``bench scaling`` share: check d,
    the rank and the trials, then draw chi from ``child(-2)`` and the
    observable from ``child(-3)`` of the master stream. Returns (master
    stream, chi, observable, tr(O chi))."""
    if args.d < 2:
        raise ConfigError("d must be >= 2")
    if not 1 <= args.rank <= args.d:
        raise ConfigError(f"rank must be in 1..{args.d}")
    if args.trials < 1:
        raise ConfigError("trials must be >= 1")
    rng = RngStream(args.seed)
    chi = MixedState.random(args.d, args.rank, rng.child(-2))
    observable = _observable(args.observable, args.d, rng.child(-3), getattr(args, "bound", None))
    return rng, chi, observable, float(np.trace(observable.matrix @ chi.density()).real)


def cmd_shadow_run(args) -> int:
    if not (math.isfinite(args.epsilon) and args.epsilon > 0):
        raise ConfigError(f"epsilon must be finite and positive, got {args.epsilon}")
    t_pop = segment_count(args.epsilon / 2.0)
    if args.n < t_pop:
        raise ConfigError(f"n must be >= T = {t_pop} for the epsilon/2 population run")
    rng, chi, observable, truth = _population_run(args)
    seg_size = args.n // t_pop

    records = []
    successes = 0
    total_proposals = 0
    for trial in range(args.trials):
        start = time.perf_counter()
        estimate = mixed_state_shadow(chi, args.n, args.epsilon, rng.child(trial))
        value = predict(estimate, observable)
        wall_ms = (time.perf_counter() - start) * 1000.0
        error = abs(value - truth)
        successes += error <= args.epsilon
        total_proposals += estimate.povm_proposals
        records.append(
            {
                "trial": trial,
                "segment_lambdas": ";".join(
                    ",".join(map(str, parts)) for parts in estimate.segment_partitions
                ),
                "estimate": value,
                "truth": truth,
                "abs_error": error,
                "accepted_samples": estimate.t_segments,
                "wall_ms": round(wall_ms, 3),
            }
        )
        logger.info("trial %d: |error| = %.4f", trial, error)

    fraction = successes / args.trials
    summary = {
        "schema_version": SCHEMA_VERSION,
        "config": {
            "d": args.d,
            "n": args.n,
            "rank": args.rank,
            "epsilon": args.epsilon,
            "bound": args.bound,
            "observable": args.observable,
            "trials": args.trials,
            "master_seed": args.seed,
            "segment_size": seg_size,
            "t_segments": t_pop,
        },
        "truth": truth,
        "success_fraction": fraction,
        "success_bar": 2.0 / 3.0,
        "passed": fraction > 2.0 / 3.0,
        "mean_abs_error": float(np.mean([r["abs_error"] for r in records])),
        "max_abs_error": float(np.max([r["abs_error"] for r in records])),
        # One proposal is one row draw of the POVM, so a segment takes at least k.
        "mean_povm_proposals_per_accept": total_proposals / (args.trials * t_pop),
    }

    if args.format == "csv":
        with open(args.out, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=RECORD_COLUMNS)
            writer.writeheader()
            writer.writerows(records)
    else:
        _write_json(args.out, {"schema_version": SCHEMA_VERSION, "records": records})
    _write_json(args.out + ".summary.json", summary)
    print(
        f"success fraction {fraction:.3f} "
        f"({'>' if summary['passed'] else '<='} 2/3 bar) over {args.trials} trials"
    )
    return EXIT_OK if summary["passed"] else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


def _family_z(num_stats: int, sigma: float) -> float:
    """Per-statistic |z| gate whose union bound over ``num_stats`` statistics
    keeps the two-sided tail mass of one sigma-level test."""
    dist = NormalDist()
    tail = 2 * (1 - dist.cdf(sigma))
    return dist.inv_cdf(1 - tail / (2 * num_stats))


def cmd_oracle(args) -> int:
    if args.d < 2:
        raise ConfigError("d must be >= 2")
    if args.closed_form:
        if args.p is None or args.q is None:
            raise ConfigError("--closed-form needs --p and --q")
        observable = _observable(args.obs, args.d, RngStream(args.seed))
        try:
            value = float(moments_mod.single_row_variance_closed_form(observable.matrix, args.p, args.q, args.d))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        print(f"closed-form variance at p={args.p}, q={args.q}, d={args.d}: {value!r}")
        if args.out:
            _write_json(
                args.out,
                {
                    "schema_version": SCHEMA_VERSION,
                    "mode": "closed-form",
                    "p": args.p,
                    "q": args.q,
                    "d": args.d,
                    "observable": args.obs,
                    "variance": value,
                },
            )
        return EXIT_OK

    if args.lam is None:
        raise ConfigError("--lambda is required unless --closed-form is given")
    lam = _parse_partition(args.lam)
    if lam.k > args.d:
        raise ConfigError(f"partition {lam} has more than d={args.d} parts")
    least = 0 if args.povm else 1
    if args.samples < least:
        raise ConfigError(f"samples must be >= {least}")

    if args.povm:
        residual = moments_mod.povm_completeness_residual(lam, args.d)
        print(f"povm completeness residual for {lam}, d={args.d}: {residual:.3e}")
        payload = {
            "schema_version": SCHEMA_VERSION,
            "mode": "povm",
            "partition": list(lam.parts),
            "d": args.d,
            "residual": residual,
        }
        ok = residual < 1e-9
        if args.samples:
            mc = moments_mod.mc_povm_completeness(lam, args.d, args.samples, RngStream(args.seed))
            gate = _family_z(mc["entries"], 3.0)
            payload["mc"] = mc
            payload["z_threshold"] = gate
            print(f"monte carlo max |z| over {args.samples} samples: {mc['max_abs_z']:.2f} (gate {gate:.2f})")
            ok = ok and mc["max_abs_z"] <= gate
        if args.out:
            _write_json(args.out, payload)
        return EXIT_OK if ok else EXIT_CHECK_FAILED

    # Refuse by size before the basis build and the first-moment checks.
    moments_mod.check_oracle_cap(args.d, lam.n)
    rng = RngStream(args.seed)
    observable = _observable(args.obs, args.d, rng.child(2))
    images = basis_mod.build_q_bases(args.d, lam.n)[lam]
    tau, weight = moments_mod.random_protocol_state(lam, images, args.d, rng.child(0).gen)
    unitary = haar_unitary(args.d, rng.child(1))

    # The Monte Carlo check computes each exact moment once; the report reads them there.
    mc = moments_mod.mc_shadow_moments(
        lam, tau, unitary, args.samples, rng.child(3), second=True, observable=observable.matrix
    )
    first, second = mc["first_moment_exact"], mc["second_moment_exact"]
    formula = moments_mod.expected_shadow_formula(lam, weight, unitary, args.d)
    first_gap = float(np.max(np.abs(first - formula)))
    print(f"first moment vs closed form: max gap {first_gap:.3e}")
    print(
        f"monte carlo z: first {mc['first_moment_max_z']:.2f}, "
        f"second {mc['second_moment_max_z']:.2f}, variance {mc['variance_z']:.2f}"
    )
    payload = {
        "schema_version": SCHEMA_VERSION,
        "partition": list(lam.parts),
        "d": args.d,
        "first_moment_re": first.real.tolist(),
        "first_moment_im": first.imag.tolist(),
        "second_moment_re": second.real.tolist(),
        "second_moment_im": second.imag.tolist(),
        "hermiticity_deviation": max(hermiticity_deviation(first), hermiticity_deviation(second)),
        "variance": mc["variance_exact"],
        "mc": {k: v for k, v in mc.items() if not isinstance(v, np.ndarray)},
        "first_moment_formula_gap": first_gap,
        "weight": list(weight),
        # Each max |z| is gated over its 2 d^2 or 2 d^4 Re/Im statistics, the
        # variance z on its own.
        "first_moment_z_threshold": _family_z(2 * args.d**2, 4.0),
        "second_moment_z_threshold": _family_z(2 * args.d**4, 4.0),
        "variance_z_threshold": _family_z(1, 4.0),
    }
    if args.out:
        _write_json(args.out, payload)
    ok = (
        first_gap < 1e-9
        and payload["hermiticity_deviation"] < 1e-10
        and mc["first_moment_max_z"] <= payload["first_moment_z_threshold"]
        and mc["second_moment_max_z"] <= payload["second_moment_z_threshold"]
        and mc["variance_z"] <= payload["variance_z_threshold"]
    )
    return EXIT_OK if ok else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# bench scaling
# ---------------------------------------------------------------------------


def cmd_bench_scaling(args) -> int:
    try:
        t_values = [int(t) for t in args.t_grid.split(",") if t.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad T grid {args.t_grid!r}: {exc}") from exc
    if not t_values:
        raise ConfigError("empty T grid")
    if min(t_values) < 1:
        raise ConfigError("every T must be >= 1")
    if args.segment_size < 1:
        raise ConfigError("segment size must be >= 1")
    rng, chi, observable, truth = _population_run(args)

    rows = []
    joint_errors = []
    for t_idx, t_segments in enumerate(t_values):
        n_copies = t_segments * args.segment_size
        errs_joint = []
        errs_base = []
        for trial in range(args.trials):
            sub = rng.child(1000 * t_idx + trial)
            unitary, digits = sample_population_input(chi, n_copies, sub.child(-1))
            est = shadow_from_population(unitary, digits, t_segments, args.segment_size, sub)
            errs_joint.append(abs(predict(est, observable) - truth))
            base = baseline_single_copy_shadow(chi, n_copies, sub.child(-4))
            errs_base.append(abs(predict(base, observable) - truth))
        rows.append((t_segments, n_copies, "joint", float(np.mean(errs_joint)), args.trials))
        rows.append((t_segments, n_copies, "baseline", float(np.mean(errs_base)), args.trials))
        joint_errors.append(float(np.mean(errs_joint)))
        print(
            f"T = {t_segments:4d}: joint mean |error| = {joint_errors[-1]:.4f}, "
            f"baseline = {float(np.mean(errs_base)):.4f}"
        )

    for a, b in zip(joint_errors, joint_errors[1:]):
        if b > a:
            logger.warning("joint error not monotone decreasing in T: %.4f -> %.4f", a, b)

    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t_segments", "n_copies", "protocol", "mean_abs_error", "trials"])
        writer.writerows(rows)
    print(f"wrote {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="schur-shadows", description=__doc__)
    parser.add_argument("--verbose", action="store_true", help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p_basis = sub.add_parser("basis", help="build or verify nice Schur bases")
    basis_sub = p_basis.add_subparsers(dest="basis_command", required=True)

    p_build = basis_sub.add_parser("build")
    p_build.add_argument("--d", type=int, required=True)
    p_build.add_argument("--n", type=int, required=True)
    p_build.add_argument("--out", required=True, help="output path")
    p_build.set_defaults(func=cmd_basis_build)

    p_verify = basis_sub.add_parser("verify")
    p_verify.add_argument("--path", required=True)
    p_verify.set_defaults(func=cmd_basis_verify)

    p_shadow = sub.add_parser("shadow", help="run the end-to-end shadow task")
    shadow_sub = p_shadow.add_subparsers(dest="shadow_command", required=True)
    p_run = shadow_sub.add_parser("run")
    p_run.add_argument("--d", type=int, required=True)
    p_run.add_argument("--n", type=int, required=True)
    p_run.add_argument("--rank", type=int, required=True)
    p_run.add_argument("--epsilon", type=float, required=True)
    p_run.add_argument("--bound", type=float, default=None, help="declared B >= tr(O^2)")
    p_run.add_argument(
        "--observable", default="pauli-z", help=f"one of {GENERATOR_FAMILIES} or @file.json"
    )
    p_run.add_argument("--trials", type=int, default=10)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--format", choices=("json", "csv"), default="csv")
    p_run.set_defaults(func=cmd_shadow_run)

    p_oracle = sub.add_parser("oracle", help="exact moments vs Monte Carlo")
    p_oracle.add_argument("--d", type=int, default=2)
    p_oracle.add_argument("--lambda", dest="lam", default=None, help="partition, e.g. 3,1")
    p_oracle.add_argument("--samples", type=int, default=10_000)
    p_oracle.add_argument("--obs", default="pauli-z")
    p_oracle.add_argument("--seed", type=int, default=0)
    p_oracle.add_argument("--out", default=None)
    p_oracle.add_argument("--closed-form", action="store_true")
    p_oracle.add_argument("--p", type=int, default=None)
    p_oracle.add_argument("--q", type=int, default=None)
    p_oracle.add_argument("--povm", action="store_true")
    p_oracle.set_defaults(func=cmd_oracle)

    p_bench = sub.add_parser("bench", help="scaling sweeps")
    bench_sub = p_bench.add_subparsers(dest="bench_command", required=True)
    p_scaling = bench_sub.add_parser("scaling")
    p_scaling.add_argument("--t-grid", required=True, help="comma list, e.g. 4,16,64")
    p_scaling.add_argument("--d", type=int, default=2)
    p_scaling.add_argument("--rank", type=int, default=2)
    p_scaling.add_argument("--segment-size", type=int, default=3)
    p_scaling.add_argument("--observable", default="off-diagonal")
    p_scaling.add_argument("--trials", type=int, default=50)
    p_scaling.add_argument("--seed", type=int, default=0)
    p_scaling.add_argument("--out", required=True)
    p_scaling.set_defaults(func=cmd_bench_scaling)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        # Every subcommand with a --seed refuses a negative one before any work.
        if getattr(args, "seed", 0) < 0:
            raise ConfigError(f"--seed must be a non-negative integer, got {args.seed}")
        return args.func(args)
    except (ConfigError, OSError) as exc:
        # An unreadable or unwritable path is a configuration error too.
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CapExceededError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (basis_mod.BasisCacheError, basis_mod.SpanExtractionError, ValueError) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
