"""Batch driver: solver runs, dissociation scans, residual trajectories.

Everything emitted is plain data (JSON or CSV) with a fixed field order and
no timestamps, so identical inputs and seeds reproduce byte-identical
files.  Exit codes: 0 for success, 1 for unusable input or a solver or
oracle failure (say, a probe exponential too large for the Taylor kernel),
with no output file.  ``run`` alone exits 2, for a run that terminated
without meeting its residual tolerance (stalled or out of budget); ``scan``
and ``residual-study`` exit 0 whatever their runs' status.  ``main`` is the
one error boundary: every ``ValueError`` or ``RuntimeError`` a command
raises, from these helpers or from the library's own checks, becomes
``error: <message>`` on stderr and exit 1.  ``--fcidump``, ``--fixture``
and ``--fixtures`` take a fixture name with or without ``.fcidump``.
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import math
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .evolution import RESET_MODES, DilationPolicy, EstimatorConfig
from .fock import SparseOperator, StateVector
from .hamiltonian import build_hamiltonian, list_fixtures, load_fixture, parse_fcidump
from .models import (
    PairingModel,
    SpherePoint,
    build_pairing_hamiltonian,
    equator_state,
    sphere_state,
)
from .oracle import fci_solve
from .residuals import RESIDUAL_VARIANTS, energy
from .solver import (
    EXECUTION_MODES,
    CqeConfig,
    LineSearch,
    cqe_run,
    hf_state,
)

__all__ = ["main", "build_parser"]

SCAN_COLUMNS = (
    "geometry_label",
    "E_hf",
    "E_fci",
    "E_cqe",
    "iterations",
    "final_residual_norm",
    "final_variance",
)
STUDY_COLUMNS = ("variant", "n", "norm2", "variance")


# ---------------------------------------------------------------------------
# flag parsing helpers
# ---------------------------------------------------------------------------


def _parse_line_search(text: str) -> LineSearch:
    kind, _, rest = text.partition(":")
    try:
        return LineSearch(kind, float(rest)) if rest else LineSearch(kind)
    except ValueError as exc:
        raise ValueError(f"bad line search spec {text!r}: {exc}") from exc


def _parse_pairing(text: str) -> PairingModel:
    parts = text.split(",")
    if len(parts) != 4:
        raise ValueError("pairing constants must be four comma-separated numbers e0,e1,e3,t")
    try:
        return PairingModel(*(float(p) for p in parts))
    except ValueError as exc:
        raise ValueError(f"bad pairing constants {text!r}: {exc}") from exc


def _initial_state(spec: str, ham: SparseOperator, model: PairingModel | None) -> StateVector | None:
    kind, _, rest = spec.partition(":")
    if spec == "hf":
        return None  # cqe_run falls back to the mean-field seed
    if spec == "fci":
        _, (ground,) = fci_solve(ham)
        return ground
    if kind in ("equator", "sphere"):
        if model is None:
            raise ValueError(f"init {spec!r} needs --model pairing")
        try:
            coords = [float(p) for p in rest.split(",")]
            if not all(math.isfinite(c) for c in coords):
                raise ValueError("coordinates must be finite")
            if kind == "equator":
                (theta,) = coords
                return equator_state(model, theta)
            g, m, x = coords
            norm = float(np.sqrt(g * g + m * m + x * x))
            if norm == 0.0:
                raise ValueError("zero vector")
            return sphere_state(model, SpherePoint(g / norm, m / norm, x / norm))
        except ValueError as exc:
            raise ValueError(f"bad init spec {spec!r}: {exc}") from exc
    raise ValueError(f"unknown init {spec!r}; expected hf, fci, equator:THETA or sphere:G,M,X")


def _load_hamiltonian(token: str):
    """(Hamiltonian, label) of a token: a readable FCIDUMP path or a packaged fixture stem."""
    path = Path(token)
    try:
        integrals = parse_fcidump(path.read_text()) if path.is_file() else load_fixture(token)
        return build_hamiltonian(integrals), path.name.removesuffix(".fcidump")
    except FileNotFoundError as exc:
        raise ValueError(str(exc)) from exc
    except ValueError as exc:  # a malformed record or an impossible sector
        raise ValueError(f"{token}: {exc}") from exc


def _build_source(args):
    """Returns (hamiltonian, model-or-None, label)."""
    if args.model is not None:
        if args.model != "pairing":
            raise ValueError(f"unknown model {args.model!r}; only 'pairing' is built in")
        model = _parse_pairing(args.pairing_constants)
        return build_pairing_hamiltonian(model), model, "pairing"
    if args.fcidump is None:
        raise ValueError("pick an input: --fcidump PATH/NAME or --model pairing")
    ham, label = _load_hamiltonian(args.fcidump)
    return ham, None, label


def _solver_config(args, **fields) -> CqeConfig:
    """The ``CqeConfig`` of the solver flags that every command takes, plus ``fields``."""
    return CqeConfig(
        max_iterations=args.max_iterations,
        residual_tolerance=args.tolerance,
        line_search=_parse_line_search(args.line_search),
        **fields,
    )


def _build_config(args) -> CqeConfig:
    estimator = None
    if args.execution == "sampled":
        estimator = EstimatorConfig(delta=args.delta, shots=args.shots, seed=args.seed)
    dilation = DilationPolicy(
        epsilon=args.epsilon,
        reset_mode=args.reset_mode,
        max_steps_between_resets=args.reset_cap,
    )
    return _solver_config(
        args, variant=args.variant, execution=args.execution, estimator=estimator, dilation=dilation
    )


def _check_output(path: str | None):
    """Refuse an ``--output`` that could not be written, before any solve; creates nothing."""
    if path is None:
        return
    target = Path(path)
    if target.is_dir():
        raise ValueError(f"output {path!r} is a directory")
    if not target.parent.is_dir():
        raise ValueError(f"output directory {str(target.parent)!r} does not exist")
    if not os.access(target if target.exists() else target.parent, os.W_OK):
        raise ValueError(f"output {path!r} is not writable")


def _write_text(path: str | None, text: str):
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _csv(columns, rows) -> str:
    return "".join(",".join(map(str, row)) + "\n" for row in [columns, *rows])


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_run(args) -> int:
    if args.init is None:
        args.init = "equator:0.3" if args.model == "pairing" else "hf"
    ham, model, label = _build_source(args)
    config = _build_config(args)
    initial = _initial_state(args.init, ham, model)
    result = cqe_run(ham, config, initial=initial)
    (fci_energy,), _ = fci_solve(ham)
    document = {
        "source": label,
        "config": {**asdict(config), "init": args.init, "seed": args.seed},
        "iterations": [asdict(rec) for rec in result.iterations],
        "final_energy": result.energy,
        "final_residual_norm": result.residual_norm,
        "final_variance": result.variance,
        "final_success_prob": result.success_prob,
        "fci_energy": fci_energy,
        "status": result.status,
    }
    _write_text(args.output, json.dumps(document, indent=2) + "\n")
    return 0 if result.status == "converged" else 2


def _scan_points(patterns) -> list[str]:
    known = list_fixtures()
    points: list[str] = []
    for pattern in patterns:
        if Path(pattern).is_file():
            points.append(pattern)
            continue
        stem = pattern.removesuffix(".fcidump")
        hits = [name for name in known if fnmatch.fnmatch(name, stem)]
        if not hits and stem in known:
            hits = [stem]
        points.extend(hits)
    if not points:
        raise ValueError(f"no scan points match {list(patterns)!r}; known fixtures: {known}")
    return list(dict.fromkeys(points))


def cmd_scan(args) -> int:
    points = _scan_points(args.fixtures)
    config = _build_config(args)
    rows = []
    for token in points:
        ham, label = _load_hamiltonian(token)
        try:
            (e_fci,), _ = fci_solve(ham)
            e_hf = energy(ham, hf_state(ham))
            result = cqe_run(ham, config)
        except (ValueError, RuntimeError) as exc:
            raise ValueError(f"scan point {token!r} failed: {exc}") from exc
        rows.append(
            (label, e_hf, e_fci, result.energy, len(result.iterations),
             result.residual_norm, result.variance)
        )
    _write_text(args.output, _csv(SCAN_COLUMNS, rows))
    return 0


def cmd_residual_study(args) -> int:
    ham, label = _load_hamiltonian(args.fixture)
    variants = [v.strip() for v in args.variants.split(",") if v.strip()]
    if not variants:
        raise ValueError("need at least one variant")
    configs = [_solver_config(args, variant=variant) for variant in variants]
    norm_field = {"cse": "norm_r", "hcse": "norm_s", "acse": "norm_a"}
    initial = _initial_state(args.init, ham, None)
    rows = []
    for config in configs:
        try:
            result = cqe_run(ham, config, initial=initial)
        except (ValueError, RuntimeError) as exc:
            raise ValueError(f"variant {config.variant!r} failed: {exc}") from exc
        for rec in result.iterations:
            norm2 = getattr(rec, norm_field[config.variant]) ** 2
            rows.append((config.variant, rec.n, norm2, rec.variance))
    _write_text(args.output, _csv(STUDY_COLUMNS, rows))
    return 0


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------


def _add_solver_flags(p: argparse.ArgumentParser):
    p.add_argument("--tolerance", type=float, default=CqeConfig.residual_tolerance,
                   help="residual Frobenius-norm target")
    p.add_argument("--max-iterations", type=int, default=CqeConfig.max_iterations)
    p.add_argument("--line-search", default=LineSearch.kind,
                   help=f"fixed[:ETA] | backtracking[:ETA0], eta {LineSearch.eta0} unless given; "
                        "backtracking halves eta until the Armijo test passes; outside sampled "
                        "execution it then moves the accepted step to the minimum of the quadratic "
                        "fitted to the initial slope and the best trial, and every kind steps along "
                        "Polak-Ribiere+ conjugate directions")
    p.add_argument("--output", default=None, help="write here instead of stdout")


def _add_execution_flags(p: argparse.ArgumentParser):
    p.add_argument("--variant", choices=RESIDUAL_VARIANTS, default=CqeConfig.variant)
    p.add_argument("--execution", choices=EXECUTION_MODES, default=CqeConfig.execution)
    p.add_argument("--shots", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--delta", type=float, default=None, help="probe step for the estimator")
    p.add_argument("--epsilon", type=float, default=DilationPolicy.epsilon, help="dilated V-step cap")
    p.add_argument("--reset-mode", choices=RESET_MODES, default=DilationPolicy.reset_mode)
    p.add_argument("--reset-cap", type=int, default=DilationPolicy.max_steps_between_resets,
                   help="V-steps between forced resets")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cqesim",
        description="contracted-equation eigensolver runs over FCIDUMP fixtures and models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="one solver run, JSON report")
    run.add_argument("--fcidump", default=None, help="FCIDUMP file path or packaged fixture name")
    run.add_argument("--model", default=None, help="built-in model name (pairing)")
    run.add_argument("--pairing-constants", default="0,1,2,0.5", help="e0,e1,e3,t")
    run.add_argument("--init", default=None,
                     help="hf | fci | equator:THETA | sphere:G,M,X (default hf; equator:0.3 for --model pairing)")
    _add_execution_flags(run)
    _add_solver_flags(run)
    run.set_defaults(func=cmd_run)

    scan = sub.add_parser("scan", help="per-fixture summary CSV across a geometry family")
    scan.add_argument("--fixtures", nargs="+", required=True,
                      help="fixture name globs (h2_*) or FCIDUMP paths")
    _add_execution_flags(scan)
    _add_solver_flags(scan)
    scan.set_defaults(func=cmd_scan)

    study = sub.add_parser("residual-study", help="per-iteration residual norms and variances CSV")
    study.add_argument("--fixture", required=True, help="FCIDUMP path or packaged fixture name")
    study.add_argument("--variants", default="cse,hcse,acse", help="comma list of channels")
    study.add_argument("--init", default="hf")
    _add_solver_flags(study)
    study.set_defaults(func=cmd_residual_study)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on bad flags; report input error
        return 0 if exc.code in (0, None) else 1
    try:
        _check_output(args.output)
        return args.func(args)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
