"""Command line front end: chain files in, JSON summaries and CSV series out.

A chain file is a JSON object with keys ``mode`` ("discrete" or
"continuous"), ``matrix`` (row-major), and optional ``initial``, ``target``
and ``labels``.  When ``target`` is not the last index the states are
relabeled so that it is, preserving the relative order of the others.

Loading a file builds the chain's one ``Analysis``; every command reads the
classification, spectrum, link, duals, stationary law and laws from it, and
``verify`` and ``simulate`` hand it to ``coupling.verify``, so the law they
print is the one the coupling tested.  ``coupling.verify`` infers the absent
``--mode``; it and ``Analysis.sst_law`` reject a chain they do not fit.

Exit codes: 0 success, 2 invalid input, 3 failed mathematical precondition,
4 structural hypothesis rejected, 5 verification gates failed, 6 numerical
breakdown (an in-scope chain that double precision cannot resolve).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .chains import (
    RateGenerator,
    TransitionKernel,
    ctmc_cdf_oracle,
    mean_absorption_ctmc_oracle,
    mean_absorption_oracle,
    power_cdf_oracle,
)
from .config import _VERIFY_GATES, tol_alg
from .coupling import verify
from .duality import check_intertwining, mixture_weights
from .errors import (
    HypothesisFailed,
    NumericalBreakdown,
    SSDualError,
    TargetNotAccessible,
    ValidationError,
)
from .laws import Analysis, ContinuousAbsorptionLaw
from .spectral import polynomial_residuals

__all__ = ["LoadedChain", "load_chain", "load_chain_text", "dump_chain", "main"]

_EIGEN_ORDER = "nondecreasing (real, imag); unit eigenvalue last"
_SERIES_HEADER = ("t", "exact_cdf", "oracle_cdf", "empirical_cdf", "separation")
_MAX_SERIES_ROWS = 20000


# -- chain files -------------------------------------------------------


@dataclass(frozen=True, slots=True)
class LoadedChain:
    """A chain file after validation and the optional target relabeling.

    Every command reads its stages from ``analysis``, the chain's one Analysis.
    """

    mode: str
    chain: TransitionKernel | RateGenerator
    analysis: Analysis
    initial: np.ndarray | None
    labels: tuple[str, ...] | None
    state_order: tuple[int, ...]
    source: str


def load_chain_text(text: str, source: str = "<memory>") -> LoadedChain:
    """Parse and validate a chain spec from JSON text."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{source}: not valid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ValidationError(f"{source}: chain spec must be a JSON object")
    unknown = set(raw) - {"mode", "matrix", "initial", "target", "labels"}
    if unknown:
        raise ValidationError(f"{source}: unknown keys {sorted(unknown)}")
    mode = raw.get("mode", "discrete")
    if mode not in ("discrete", "continuous"):
        raise ValidationError(f"{source}: mode must be 'discrete' or 'continuous'")
    if "matrix" not in raw:
        raise ValidationError(f"{source}: missing 'matrix'")
    try:
        matrix = np.asarray(raw["matrix"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{source}: matrix is not numeric ({exc})") from exc
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValidationError(f"{source}: matrix must be square, got shape {matrix.shape}")
    n = matrix.shape[0]

    target = raw.get("target", n - 1)
    if isinstance(target, bool) or not isinstance(target, int) or not 0 <= target < n:
        raise ValidationError(f"{source}: target must be a state index in 0..{n - 1}")

    initial = raw.get("initial")
    if initial is not None:
        initial = np.asarray(initial, dtype=float)
        if initial.shape != (n,):
            raise ValidationError(f"{source}: initial must have length {n}")

    labels = raw.get("labels")
    if labels is not None:
        if not isinstance(labels, list) or len(labels) != n \
                or not all(isinstance(s, str) for s in labels):
            raise ValidationError(f"{source}: labels must be {n} strings")
        labels = tuple(labels)

    order = tuple(i for i in range(n) if i != target) + (target,)
    if order != tuple(range(n)):
        perm = np.array(order)
        matrix = matrix[np.ix_(perm, perm)]
        if initial is not None:
            initial = initial[perm]
        if labels is not None:
            labels = tuple(labels[i] for i in perm)

    # accessibility is left to the analysis ops: for skip-free chains a zero
    # superdiagonal must be diagnosed as ZeroSuperdiagonal, not as plain
    # inaccessibility; cmd_validate re-checks and reports it as exit 2
    chain = TransitionKernel(matrix) if mode == "discrete" else RateGenerator(matrix)
    analysis = Analysis(chain, initial)
    return LoadedChain(
        mode=mode,
        chain=chain,
        analysis=analysis,
        initial=None if initial is None else analysis.m0,
        labels=labels,
        state_order=order,
        source=source,
    )


def load_chain(path: str) -> LoadedChain:
    """Load a chain spec from a file path, or stdin when the path is '-'."""
    if path == "-":
        return load_chain_text(sys.stdin.read(), source="<stdin>")
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    return load_chain_text(text, source=path)


def dump_chain(loaded: LoadedChain) -> str:
    """Serialize a loaded chain back to spec JSON (post-relabeling form)."""
    spec: dict = {"mode": loaded.mode, "matrix": loaded.chain.matrix.tolist()}
    if loaded.initial is not None:
        spec["initial"] = loaded.initial.tolist()
    if loaded.labels is not None:
        spec["labels"] = list(loaded.labels)
    return json.dumps(spec, indent=2, sort_keys=True) + "\n"


# -- serialization helpers ---------------------------------------------


def _pyify(obj):
    """Recursively convert numpy containers/scalars to JSON-ready values.

    Complex numbers become [real, imag] pairs; json.dumps then renders every
    float with its shortest round-trip representation.
    """
    if isinstance(obj, dict):
        return {str(k): _pyify(v) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        return _pyify(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return [_pyify(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return [float(obj.real), float(obj.imag)]
    return obj


def _json_text(summary: dict) -> str:
    return json.dumps(_pyify(summary), indent=2, sort_keys=True) + "\n"


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _csv_text(header: tuple, rows: list) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _emit(args, summary: dict, csv_header: tuple, csv_rows: list) -> None:
    """Write the report: both files under --out, else the selected format."""
    json_text = _json_text(summary)
    csv_text = _csv_text(csv_header, csv_rows)
    if args.out:
        base = Path(args.out)
        base.with_suffix(".json").write_text(json_text, encoding="utf-8")
        base.with_suffix(".csv").write_text(csv_text, encoding="utf-8")
    elif args.format == "csv":
        sys.stdout.write(csv_text)
    else:
        sys.stdout.write(json_text)


def _versions() -> dict:
    import scipy  # here, so that ``validate``, which prints no versions, loads no scipy

    return {"ssdual": __version__, "numpy": np.__version__, "scipy": scipy.__version__}


def _base_summary(command: str, loaded: LoadedChain) -> dict:
    out = {
        "command": command,
        "source": loaded.source,
        "mode": loaded.mode,
        "n": loaded.chain.n,
        "target": loaded.chain.d,
        "classification": asdict(loaded.analysis.chain_class),
        "eigenvalue_order": _EIGEN_ORDER,
        "versions": _versions(),
    }
    if loaded.labels is not None:
        out["labels"] = list(loaded.labels)
    if loaded.state_order != tuple(range(loaded.chain.n)):
        out["state_order"] = list(loaded.state_order)
    if loaded.initial is not None:
        out["initial"] = loaded.initial
    return out


def _int_grid(t_top: int) -> list[int]:
    # keep CSV series bounded; always include 0 and the top point
    step = max(1, -(-int(t_top) // _MAX_SERIES_ROWS))
    ts = list(range(0, int(t_top) + 1, step))
    if ts[-1] != int(t_top):
        ts.append(int(t_top))
    return ts


def _round_up(t: float) -> float:
    """``t`` rounded up to three significant digits: a quantile deep in the tail,
    where F is nearly flat, moves with the last bit of F; its rounded top does not."""
    mantissa, exponent = f"{t:.2e}".split("e")
    top = float(f"{mantissa}e{exponent}")
    if top < t:  # rounded to nearest, and down: one unit in the last digit up
        top = float(f"{float(mantissa) + 0.01:.2f}e{exponent}")
    return top


# -- subcommands -------------------------------------------------------


def cmd_validate(args) -> int:
    loaded = load_chain(args.chain)
    cls = loaded.analysis.chain_class
    if not cls.target_accessible:
        raise TargetNotAccessible("target state is not accessible from every state")
    if args.echo:
        sys.stdout.write(dump_chain(loaded))
        return 0
    if cls.birth_death:
        shape = "skip-free birth-death"
    elif cls.skip_free_up:
        shape = "skip-free upward"
    else:
        shape = "general"
    parts = [shape]
    if cls.target_absorbing:
        parts.append("absorbing target")
    if cls.ergodic:
        parts.append("ergodic")
    if cls.superdiag_positive:
        parts.append("superdiagonal positive")
    kind = "kernel" if loaded.mode == "discrete" else "generator"
    print(f"{loaded.source}: {loaded.mode} {kind}, {loaded.chain.n} states, "
          f"target {loaded.chain.d}")
    print(", ".join(parts))
    return 0


def cmd_spectrum(args) -> int:
    loaded = load_chain(args.chain)
    analysis = loaded.analysis
    spectrum, rate = analysis.spectrum, analysis.rate
    polys = polynomial_residuals(analysis.kernel, spectrum)
    if spectrum.all_nonneg_real and polys.nonneg:
        diagnosis = "real nonnegative spectrum with nonnegative spectral polynomials"
    elif not spectrum.all_real:
        diagnosis = "complex eigenvalue pairs present; numeric-CDF route"
    elif not spectrum.all_nonneg_real:
        diagnosis = "negative real eigenvalues present; numeric-CDF route"
    else:
        diagnosis = "spectral polynomials have negative entries; numeric-CDF route"
    summary = _base_summary("spectrum", loaded)
    summary.update(
        eigenvalues=[[v.real, v.imag] for v in np.atleast_1d(spectrum.values)],
        all_real=spectrum.all_real,
        all_nonneg_real=spectrum.all_nonneg_real,
        clamped=spectrum.clamped,
        method=spectrum.method,
        spectrum_class={
            "real_nonneg": spectrum.all_nonneg_real,
            "polys_nonneg": polys.nonneg,
            "diagnosis": diagnosis,
        },
        polynomial_residuals={
            "cayley": polys.cayley_residual,
            "rowsum": polys.rowsum_residual,
        },
    )
    if rate is not None:
        summary["uniformization_rate"] = rate
        summary["exponential_rates"] = analysis.rates
    vals = np.atleast_1d(spectrum.values)
    rows = [(k, float(v.real), float(v.imag)) for k, v in enumerate(vals)]
    _emit(args, summary, ("index", "real", "imag"), rows)
    return 0


def cmd_dual(args) -> int:
    loaded = load_chain(args.chain)
    analysis = loaded.analysis
    kernel, rate, spectrum = analysis.kernel, analysis.rate, analysis.spectrum
    link, dual = analysis.link, analysis.dual
    inter = check_intertwining(link, kernel, dual, powers=(2, 3))

    cls = analysis.chain_class
    normalizer = 1.0
    summary = _base_summary("dual", loaded)
    if cls.ergodic and loaded.mode == "discrete":
        pi = analysis.stationary
        normalizer = float(pi[-1])
        summary["stationary"] = pi
    weights = mixture_weights(link, normalizer)

    summary.update(
        thetas=[[v.real, v.imag] for v in np.atleast_1d(spectrum.values)],
        link={
            "rows": link.rows,
            "stochastic": link.stochastic,
            "lower_triangular": link.lower_triangular,
            "rowsum_residual": link.rowsum_residual,
            "clamped": link.clamped,
        },
        dual_matrix=dual.matrix,
        intertwining={
            "residual": inter.residual,
            "power_residuals": inter.power_residuals,
            "tol": inter.tol,
            "passed": inter.passed,
        },
        mixture_weights={
            "weights": weights.weights,
            "stochastic": weights.stochastic,
            "sum_residual": weights.sum_residual,
        },
    )
    if rate is not None:
        summary["uniformization_rate"] = rate
        summary["exponential_rates"] = analysis.rates

    modified = None
    if cls.target_absorbing:
        modified = analysis.modified
        summary["modified_dual"] = {
            "kernel": modified.kernel,
            "initial": modified.initial,
            "absorbing_start": modified.absorbing_start,
            "stochastic": modified.stochastic,
            "intertwining_residual": modified.intertwining_residual,
            "initial_residual": modified.initial_residual,
        }

    rows = []
    n = kernel.n
    for i in range(n):
        for j in range(n):
            lam = complex(link.rows[i, j])
            du = complex(dual.matrix[i, j])
            row = [i, j, lam.real, lam.imag, du.real, du.imag]
            if modified is not None:
                mo = complex(modified.kernel[i, j])
                row += [mo.real, mo.imag]
            else:
                row += [None, None]
            rows.append(tuple(row))
    header = ("i", "j", "link_re", "link_im", "dual_re", "dual_im",
              "modified_re", "modified_im")
    _emit(args, summary, header, rows)
    return 0


def _law_dict(law) -> dict:
    """Common law description shared by the absorption and sst summaries."""
    continuous = isinstance(law, ContinuousAbsorptionLaw)
    discrete = law.discrete if continuous else law
    out = {
        "kind": law.kind,
        "thetas": [[v.real, v.imag] for v in np.atleast_1d(discrete.thetas)],
        "weights": discrete.weights,
        "level_weights": discrete.level_weights,
        "mean": law.mean(),
    }
    if law.kind == "geometric_convolution":
        out["geometric_success_probabilities"] = 1.0 - np.real(discrete.thetas)
    if continuous and law.rates is not None:
        out["exponential_rates"] = law.rates
        out["uniformization_rate"] = law.rate
    return out


def _dbar(level_weights: np.ndarray, n: int) -> int:
    # first level whose target-column mass has already reached 1
    close = np.abs(level_weights - 1.0) <= tol_alg(n)
    return int(np.nonzero(close)[0][0])


def cmd_absorption(args) -> int:
    loaded = load_chain(args.chain)
    summary = _base_summary("absorption", loaded)

    law = loaded.analysis.absorption_law()
    oracle = None
    if loaded.mode == "continuous":
        t_top = _round_up(law.quantile(1.0 - 1e-6)) if args.t_max is None else float(args.t_max)
        ts = np.linspace(0.0, t_top, 201)
        exact = np.atleast_1d(law.cdf(ts))
        if args.oracle:
            oracle = ctmc_cdf_oracle(loaded.chain, loaded.initial, ts)
            summary["oracle_mean"] = mean_absorption_ctmc_oracle(loaded.chain, loaded.initial)
    else:
        t_top = int(args.t_max) if args.t_max is not None else law.quantile(1.0 - 1e-6)
        ts = np.array(_int_grid(t_top))
        exact = np.real(np.atleast_1d(law.cdf(ts)))
        if args.oracle:
            oracle = power_cdf_oracle(loaded.chain, loaded.initial, int(t_top))[ts]
            summary["oracle_mean"] = mean_absorption_oracle(loaded.chain, loaded.initial)

    summary["law"] = _law_dict(law)
    discrete = law.discrete if loaded.mode == "continuous" else law
    summary["absorbing_start"] = _dbar(np.real(discrete.level_weights), loaded.chain.n)
    if oracle is not None:
        dev = float(np.abs(exact - oracle).max())
        summary["oracle_max_deviation"] = dev
        if args.tol is not None:
            summary["tolerance"] = args.tol
            summary["tolerance_passed"] = dev <= args.tol

    discrete_file = loaded.mode == "discrete"
    rows = [
        (int(t) if discrete_file else float(t), float(e),
         None if oracle is None else float(o), None, None)
        for t, e, o in zip(ts, exact, oracle if oracle is not None else exact)
    ]
    _emit(args, summary, _SERIES_HEADER, rows)
    if args.oracle and args.tol is not None and not summary["tolerance_passed"]:
        print(f"oracle deviation {summary['oracle_max_deviation']!r} exceeds "
              f"tolerance {args.tol!r}", file=sys.stderr)
        return 5
    return 0


def cmd_sst(args) -> int:
    loaded = load_chain(args.chain)
    analysis = loaded.analysis
    law = analysis.sst_law()
    t_top = int(args.t_max) if args.t_max is not None else law.quantile(1.0 - 1e-6)
    ts = np.array(_int_grid(t_top))
    exact = np.real(np.atleast_1d(law.cdf(ts)))
    profile = analysis.separation(int(t_top))
    sep = profile.s[ts]

    summary = _base_summary("sst", loaded)
    summary["law"] = _law_dict(law)
    summary["stationary"] = analysis.stationary
    summary["certification"] = analysis.certification
    summary["separation_minimized_at_target"] = profile.minimized_at_target
    dev = float(np.abs(exact - (1.0 - sep)).max())
    summary["separation_max_deviation"] = dev
    if args.tol is not None:
        summary["tolerance"] = args.tol
        summary["tolerance_passed"] = dev <= args.tol

    rows = [
        (int(t), float(e), float(1.0 - s) if args.oracle else None, None, float(s))
        for t, e, s in zip(ts, exact, sep)
    ]
    _emit(args, summary, _SERIES_HEADER, rows)
    if args.tol is not None and not summary["tolerance_passed"]:
        print(f"separation deviation {dev!r} exceeds tolerance {args.tol!r}",
              file=sys.stderr)
        return 5
    return 0


def _run_verification(args, command: str) -> tuple[int, bool]:
    loaded = load_chain(args.chain)
    analysis = loaded.analysis

    seed = args.seed
    if seed is None:
        seed = int(os.environ.get("SSD_SEED", "0"))

    law = analysis.absorption_law()
    extra = {}
    if args.horizon is not None:
        extra["horizon"] = args.horizon
    report = verify(
        analysis,
        mode=args.mode,
        samples=args.samples,
        seed=seed,
        law=law,
        jobs=args.jobs,
        **extra,
    )

    summary = _base_summary(command, loaded)
    summary["report"] = report.to_dict()
    summary["law"] = _law_dict(law)
    summary["thresholds"] = dict(_VERIFY_GATES)
    summary["eigenvalues"] = [[v.real, v.imag] for v in np.atleast_1d(analysis.spectrum.values)]

    times = np.sort(np.asarray(report.absorption_times, dtype=float))
    n_times = len(times)
    continuous = report.mode == "continuous"
    if continuous:
        t_top = float(times[-1]) if n_times else 1.0
        ts = np.linspace(0.0, t_top, 201)
        exact = np.atleast_1d(law.cdf(ts))
    else:
        ts = np.array(_int_grid(int(times[-1]) if n_times else 1))
        exact = np.real(np.atleast_1d(law.cdf(ts)))
    ecdf = np.searchsorted(times, ts, side="right") / max(n_times, 1)
    rows = [
        (float(t) if continuous else int(t), float(e), None, float(f), None)
        for t, e, f in zip(ts, exact, ecdf)
    ]
    _emit(args, summary, _SERIES_HEADER, rows)
    return 0, report.passed


def cmd_simulate(args) -> int:
    code, _ = _run_verification(args, "simulate")
    return code


def cmd_verify(args) -> int:
    code, passed = _run_verification(args, "verify")
    if code == 0 and not passed:
        print("verification gates FAILED; see report", file=sys.stderr)
        return 5
    return code


# -- argument parsing --------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ssdual",
        description="Exact absorption and strong-stationary-time laws of finite "
                    "Markov chains via intertwined pure-birth duals.",
    )
    parser.add_argument("--version", action="version", version=f"ssdual {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    out_flags = argparse.ArgumentParser(add_help=False)
    out_flags.add_argument("--format", choices=("json", "csv"), default="json",
                           help="stdout payload (default json)")
    out_flags.add_argument("--out", metavar="BASE",
                           help="write BASE.json and BASE.csv instead of stdout")

    series_flags = argparse.ArgumentParser(add_help=False)
    series_flags.add_argument("--oracle", action="store_true",
                              help="add the independent oracle column and deviation")
    series_flags.add_argument("--t-max", type=float, default=None,
                              help="series horizon (default: 1 - 1e-6 quantile)")
    series_flags.add_argument("--tol", type=float, default=None,
                              help="fail (exit 5) when the reported deviation exceeds this")

    sim_flags = argparse.ArgumentParser(add_help=False)
    sim_flags.add_argument("--samples", type=int, default=10000)
    sim_flags.add_argument("--seed", type=int, default=None,
                           help="base seed (default: SSD_SEED or 0)")
    sim_flags.add_argument("--mode", choices=("skipfree", "general", "continuous"),
                           default=None, help="coupling construction (default: inferred)")
    sim_flags.add_argument("--jobs", type=int, default=1,
                           help="worker processes for the Monte Carlo loop")
    sim_flags.add_argument("--horizon", type=int, default=None,
                           help="truncate sample paths after this many steps")

    p = sub.add_parser("validate", help="classify a chain file")
    p.add_argument("chain", help="chain JSON file, or - for stdin")
    p.add_argument("--echo", action="store_true",
                   help="re-emit the normalized spec instead of prose")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("spectrum", parents=[out_flags],
                       help="canonically ordered eigenvalues and route classification")
    p.add_argument("chain")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("dual", parents=[out_flags],
                       help="link, pure-birth dual, and intertwining residuals")
    p.add_argument("chain")
    p.set_defaults(func=cmd_dual)

    p = sub.add_parser("absorption", parents=[out_flags, series_flags],
                       help="exact law of the hitting time of the target")
    p.add_argument("chain")
    p.set_defaults(func=cmd_absorption)

    p = sub.add_parser("sst", parents=[out_flags, series_flags],
                       help="fastest strong stationary time of an ergodic chain")
    p.add_argument("chain")
    p.set_defaults(func=cmd_sst)

    p = sub.add_parser("simulate", parents=[out_flags, sim_flags],
                       help="coupled sample paths and empirical law (no gate enforcement)")
    p.add_argument("chain")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", parents=[out_flags, sim_flags],
                       help="statistical verification of the exact law (exit 5 on failure)")
    p.add_argument("chain")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if getattr(args, "t_max", None) is not None and not 0.0 <= args.t_max < np.inf:
        print("error: --t-max must be a finite nonnegative number", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except HypothesisFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except NumericalBreakdown as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 6
    except SSDualError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
