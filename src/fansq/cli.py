"""Command-line front end: every computation as a subcommand with
CSV/JSON output carrying a full parameter manifest.

Output is written only after the computation succeeds, so a failing run
never leaves a partial file.  Exit codes: 0 success, 2 invalid
parameters, 3 a computation that could not finish.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import sys
from typing import Callable, Optional

from . import __version__
from .atlas import (
    AxisRange,
    GridSpec,
    find_intersections,
    max_squeeze_curve,
    polar_profile,
    scan,
    trace_boundary,
)
from .errors import DomainError, FansqError
from .fanstate import (
    DriveParams,
    FanConfig,
    Identity,
    SeriesControl,
    TrappedIon,
    moment,
    xi_from_drive,
)
from .fockoracle import moment_oracle, oracle_vector, quadrature_moment
from .squeeze import (
    classify_directions,
    coefficients,
    min_order,
    squeeze_approx,
    squeeze_parameter,
    vacuum_benchmark,
)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _axis_range(text: str) -> AxisRange:
    """Parse min:max[:count] into an axis; count defaults to 81."""
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise argparse.ArgumentTypeError(f"expected min:max[:count], got {text!r}")
    try:
        lo = float(parts[0])
        hi = float(parts[1])
        count = int(parts[2]) if len(parts) == 3 else 81
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad range {text!r}: {exc}") from None
    try:
        return AxisRange(min=lo, max=hi, count=count)
    except DomainError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _timestamp() -> Optional[str]:
    """Reproducible timestamp: honors SOURCE_DATE_EPOCH, else omitted.

    A wall-clock stamp would break byte-identical re-runs, which the
    output contract requires.
    """
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if epoch is None:
        return None
    return datetime.datetime.fromtimestamp(
        int(epoch), tz=datetime.timezone.utc
    ).isoformat()


def _manifest(subcommand: str, params: dict, ctl: SeriesControl, **extras) -> dict:
    man = {
        "tool": "fansq",
        "version": __version__,
        "subcommand": subcommand,
        "parameters": params,
        "series_control": {
            "rel_tol": ctl.rel_tol,
            "consecutive_small": ctl.consecutive_small,
            "n_max": ctl.n_max,
            "laguerre_floor": ctl.laguerre_floor,
        },
        "timestamp": _timestamp(),
    }
    if extras:
        man["extras"] = extras
    return man


def _to_json(manifest: dict, data) -> str:
    return json.dumps({"manifest": manifest, "data": data}, sort_keys=True, indent=2) + "\n"


def _to_csv(manifest: dict, header: list[str], rows: list[list[str]]) -> str:
    lines = ["# manifest: " + json.dumps(manifest, sort_keys=True)]
    lines.append(",".join(header))
    lines.extend(",".join(r) for r in rows)
    return "\n".join(lines) + "\n"


def _control_from(args: argparse.Namespace) -> SeriesControl:
    return SeriesControl(
        rel_tol=args.rel_tol,
        consecutive_small=args.consecutive_small,
        n_max=args.n_max,
        laguerre_floor=args.laguerre_floor,
    )


def _scalar_model(args: argparse.Namespace, k: int, parser: argparse.ArgumentParser):
    """Model for single-point commands; eta-sq presence implies trapped-ion."""
    kind = args.model
    if kind is None:
        kind = "trapped-ion" if args.eta_sq is not None else "identity"
    if kind == "trapped-ion":
        if args.eta_sq is None:
            parser.error("--eta-sq is required with --model trapped-ion")
        return TrappedIon(eta_sq=args.eta_sq, quantum_order=2 * k)
    if args.eta_sq is not None:
        parser.error("--eta-sq conflicts with --model identity")
    return Identity()


def _model_name(model) -> str:
    return "identity" if isinstance(model, Identity) else "trapped-ion"


def _threads() -> Optional[int]:
    raw = os.environ.get("FANSQ_THREADS")
    if raw is None:
        return None
    try:
        n = int(raw)
    except ValueError:
        raise DomainError(f"FANSQ_THREADS must be an integer, got {raw!r}") from None
    if n < 1:
        raise DomainError(f"FANSQ_THREADS must be >= 1, got {n}")
    return n


# ---------------------------------------------------------------------------
# subcommand implementations; each returns the full output text


def _cmd_squeeze(args, parser) -> str:
    ctl = _control_from(args)
    model = _scalar_model(args, args.k, parser)
    cfg = FanConfig.from_xi_sq(args.k, args.xi_sq, model)
    coeffs = coefficients(cfg, args.N, ctl)
    bench = vacuum_benchmark(args.N)
    if args.phi is not None:
        phis = [args.phi]
    else:
        period = math.pi / (2 * args.k)
        phis = [period * i / (args.samples - 1) for i in range(args.samples)]
    evaluations = []
    for phi in phis:
        s = squeeze_parameter(coeffs, phi)
        evaluations.append({"phi": phi, "squeeze": s, "raw_moment": s + bench})
    lowest = min_order(args.k)
    data = {
        "k": args.k,
        "N": args.N,
        "xi_sq": args.xi_sq,
        "eta_sq": args.eta_sq,
        "model": _model_name(model),
        "constant": coeffs.constant,
        "harmonics": list(coeffs.harmonics),
        "benchmark": bench,
        "min_order": lowest,
        "below_min_order": args.N < lowest,
        "evaluations": evaluations,
    }
    if args.N < lowest:
        data["note"] = f"below minimum order {lowest}"
    params = {
        "k": args.k,
        "N": args.N,
        "xi_sq": args.xi_sq,
        "eta_sq": args.eta_sq,
        "model": _model_name(model),
        "phi": args.phi,
        "samples": args.samples,
    }
    man = _manifest("squeeze", params, ctl)
    if args.format == "json":
        return _to_json(man, data)
    rows = [[_fmt(e["phi"]), _fmt(e["squeeze"]), _fmt(e["raw_moment"])] for e in evaluations]
    return _to_csv(man, ["phi", "squeeze", "raw_moment"], rows)


def _grid_from(args) -> GridSpec:
    return GridSpec(
        xi_sq=args.xi_sq, eta_sq=args.eta_sq, k=args.k, N=args.N, phi=args.phi
    )


def _cmd_scan(args, parser) -> str:
    ctl = _control_from(args)
    grid = _grid_from(args)
    diagram = scan(grid, args.model, ctl, threads=_threads())
    params = {
        "k": args.k,
        "N": args.N,
        "phi": args.phi,
        "model": args.model,
        "xi_sq": vars(args.xi_sq),
        "eta_sq": vars(args.eta_sq),
    }
    man = _manifest("scan", params, ctl)
    xi_vals = grid.xi_sq.values()
    eta_vals = grid.eta_sq.values()
    if args.format == "json":
        nodes = []
        for i, e in enumerate(eta_vals):
            for j, x in enumerate(xi_vals):
                ok = diagram.status[i][j] == "OK"
                nodes.append(
                    {
                        "xi_sq": x,
                        "eta_sq": e,
                        "squeeze": float(diagram.values[i, j]) if ok else None,
                        "status": diagram.status[i][j],
                    }
                )
        return _to_json(man, {"nodes": nodes})
    rows = []
    for i, e in enumerate(eta_vals):
        for j, x in enumerate(xi_vals):
            rows.append(
                [_fmt(x), _fmt(e), _fmt(float(diagram.values[i, j])), diagram.status[i][j]]
            )
    return _to_csv(man, ["xi_sq", "eta_sq", "squeeze", "status"], rows)


def _cmd_boundary(args, parser) -> str:
    ctl = _control_from(args)
    grid = _grid_from(args)
    points = trace_boundary(grid, args.model, ctl, threads=_threads())
    params = {
        "k": args.k,
        "N": args.N,
        "phi": args.phi,
        "model": args.model,
        "xi_sq": vars(args.xi_sq),
        "eta_sq": vars(args.eta_sq),
    }
    man = _manifest("boundary", params, ctl)
    if args.format == "json":
        return _to_json(
            man, {"points": [{"xi_sq": p[0], "eta_sq": p[1]} for p in points]}
        )
    rows = [[_fmt(p[0]), _fmt(p[1])] for p in points]
    return _to_csv(man, ["xi_sq", "eta_sq"], rows)


def _cmd_intersect(args, parser) -> str:
    ctl = _control_from(args)
    result = find_intersections(args.xi_sq, args.k, args.N, args.eta_sq, ctl)
    params = {
        "k": args.k,
        "N": args.N,
        "xi_sq": args.xi_sq,
        "eta_sq": vars(args.eta_sq),
    }
    man = _manifest("intersect", params, ctl)
    data = {
        "roots": list(result.roots),
        "kinds": list(result.kinds),
        "signs": list(result.signs),
        "skipped": [{"eta_sq": e, "status": st} for e, st in result.skipped],
    }
    if args.format == "json":
        return _to_json(man, data)
    rows = [[_fmt(r), kind] for r, kind in zip(result.roots, result.kinds)]
    return _to_csv(man, ["eta_sq_root", "kind"], rows)


def _cmd_polar(args, parser) -> str:
    ctl = _control_from(args)
    model = _scalar_model(args, args.k, parser)
    cfg = FanConfig.from_xi_sq(args.k, args.xi_sq, model)
    profile = polar_profile(cfg, args.N, args.samples, ctl)
    params = {
        "k": args.k,
        "N": args.N,
        "xi_sq": args.xi_sq,
        "eta_sq": args.eta_sq,
        "model": _model_name(model),
        "samples": args.samples,
    }
    man = _manifest("polar", params, ctl, benchmark=profile.benchmark)
    if args.format == "json":
        data = {
            "benchmark": profile.benchmark,
            "points": [
                {"phi": p, "squeeze": s, "raw_moment": r} for p, s, r in profile.points
            ],
        }
        return _to_json(man, data)
    rows = [[_fmt(p), _fmt(s), _fmt(r)] for p, s, r in profile.points]
    return _to_csv(man, ["phi", "squeeze", "raw_moment"], rows)


def _cmd_directions(args, parser) -> str:
    ctl = _control_from(args)
    model = _scalar_model(args, args.k, parser)
    cfg = FanConfig.from_xi_sq(args.k, args.xi_sq, model)
    coeffs = coefficients(cfg, args.N, ctl)
    report = classify_directions(coeffs)
    approx = squeeze_approx(coeffs, 0.0)
    params = {
        "k": args.k,
        "N": args.N,
        "xi_sq": args.xi_sq,
        "eta_sq": args.eta_sq,
        "model": _model_name(model),
    }
    man = _manifest("directions", params, ctl)
    data = {
        "regime": report.regime.value,
        "squeeze_angles": list(report.squeeze_angles),
        "stretch_angles": list(report.stretch_angles),
        "s_min": report.s_min,
        "s_max": report.s_max,
        "harmonic_dominance": approx.dominance,
    }
    if args.format == "json":
        return _to_json(man, data)
    rows = [[_fmt(a), "squeeze"] for a in report.squeeze_angles]
    rows += [[_fmt(a), "stretch"] for a in report.stretch_angles]
    return _to_csv(man, ["angle", "kind"], rows)


def _cmd_oracle_check(args, parser) -> str:
    ctl = _control_from(args)
    model = _scalar_model(args, args.k, parser)
    cfg = FanConfig.from_xi_sq(args.k, args.xi_sq, model)
    guard = max(args.N, 2 * args.max_power) + 2
    vec = oracle_vector(cfg, guard, ctl)
    bench = vacuum_benchmark(args.N)
    coeffs = coefficients(cfg, args.N, ctl)

    moment_rows = []
    max_rel = 0.0
    max_abs_zero = 0.0
    for l in range(0, args.max_power + 1):
        for m in range(0, l + 1):
            series = moment(cfg, l, m, ctl)
            oracle = moment_oracle(vec, l, m).real
            abs_err = abs(series - oracle)
            if abs(oracle) < 1e-12:
                rel_err = 0.0
                max_abs_zero = max(max_abs_zero, abs_err)
            else:
                rel_err = abs_err / abs(oracle)
                max_rel = max(max_rel, rel_err)
            moment_rows.append(
                {
                    "l": l,
                    "m": m,
                    "series": series,
                    "oracle": oracle,
                    "abs_err": abs_err,
                    "rel_err": rel_err,
                }
            )

    quad_rows = []
    for phi in (0.0, math.pi / 8, math.pi / (4 * args.k)):
        series = squeeze_parameter(coeffs, phi) + bench
        oracle = quadrature_moment(vec, phi, args.N)
        rel_err = abs(series - oracle) / abs(oracle)
        max_rel = max(max_rel, rel_err)
        quad_rows.append(
            {"phi": phi, "series_plus_benchmark": series, "oracle": oracle, "rel_err": rel_err}
        )

    params = {
        "k": args.k,
        "N": args.N,
        "xi_sq": args.xi_sq,
        "eta_sq": args.eta_sq,
        "model": _model_name(model),
        "max_power": args.max_power,
    }
    man = _manifest("oracle-check", params, ctl, oracle_dim=vec.dim)
    data = {
        "moments": moment_rows,
        "quadrature": quad_rows,
        "max_relative_discrepancy": max_rel,
        "max_absolute_discrepancy_at_zeros": max_abs_zero,
    }
    if args.format == "json":
        return _to_json(man, data)
    rows = [
        ["moment", str(r["l"]), str(r["m"]), "", _fmt(r["series"]), _fmt(r["oracle"]),
         _fmt(r["abs_err"]), _fmt(r["rel_err"])]
        for r in moment_rows
    ]
    rows += [
        ["quadrature", "", "", _fmt(r["phi"]), _fmt(r["series_plus_benchmark"]),
         _fmt(r["oracle"]), _fmt(abs(r["series_plus_benchmark"] - r["oracle"])), _fmt(r["rel_err"])]
        for r in quad_rows
    ]
    return _to_csv(
        man, ["kind", "l", "m", "phi", "series", "oracle", "abs_err", "rel_err"], rows
    )


def _cmd_xi_from_drive(args, parser) -> str:
    ctl = _control_from(args)
    drive = DriveParams(
        omega0=args.omega0,
        omega1=args.omega1,
        eta=args.eta,
        phase=args.phase,
        quantum_order=args.quantum_order,
    )
    xi = xi_from_drive(drive)
    params = {
        "omega0": args.omega0,
        "omega1": args.omega1,
        "eta": args.eta,
        "phase": args.phase,
        "quantum_order": args.quantum_order,
    }
    man = _manifest("xi-from-drive", params, ctl)
    data = {"xi": xi, "xi_sq": xi * xi}
    if args.format == "json":
        return _to_json(man, data)
    return _to_csv(man, ["xi", "xi_sq"], [[_fmt(xi), _fmt(xi * xi)]])


# ---------------------------------------------------------------------------
# parser assembly


def _add_series_flags(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("series control")
    g.add_argument("--rel-tol", type=float, default=1e-16)
    g.add_argument("--consecutive-small", type=int, default=3)
    g.add_argument("--n-max", type=int, default=5000)
    g.add_argument("--laguerre-floor", type=float, default=1e-12)


def _add_output_flags(p: argparse.ArgumentParser, default_format: str) -> None:
    p.add_argument("--format", choices=("csv", "json"), default=default_format)
    p.add_argument("--output", help="write to this file instead of stdout")


def _add_scalar_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--eta-sq", type=float, default=None,
                   help="squared Lamb-Dicke parameter (implies trapped-ion model)")
    p.add_argument("--model", choices=("identity", "trapped-ion"), default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fansq",
        description="Higher-order amplitude squeezing of fan states",
    )
    parser.add_argument("--version", action="version", version=f"fansq {__version__}")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("squeeze", help="decomposition and squeeze parameter at a point")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--xi-sq", type=float, required=True)
    _add_scalar_model_flags(p)
    p.add_argument("--phi", type=float, default=None,
                   help="quadrature angle; omitted means sample one period")
    p.add_argument("--samples", type=int, default=17)
    _add_series_flags(p)
    _add_output_flags(p, "json")
    p.set_defaults(func=_cmd_squeeze)

    p = sub.add_parser("scan", help="squeeze parameter over a (xi_sq, eta_sq) grid")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--phi", type=float, required=True)
    p.add_argument("--xi-sq", type=_axis_range, required=True, metavar="MIN:MAX[:COUNT]")
    p.add_argument("--eta-sq", type=_axis_range, required=True, metavar="MIN:MAX[:COUNT]")
    p.add_argument("--model", choices=("identity", "trapped-ion"), default="trapped-ion")
    _add_series_flags(p)
    _add_output_flags(p, "csv")
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("boundary", help="trace the S = 0 boundary on a grid")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--phi", type=float, required=True)
    p.add_argument("--xi-sq", type=_axis_range, required=True, metavar="MIN:MAX[:COUNT]")
    p.add_argument("--eta-sq", type=_axis_range, required=True, metavar="MIN:MAX[:COUNT]")
    p.add_argument("--model", choices=("identity", "trapped-ion"), default="trapped-ion")
    _add_series_flags(p)
    _add_output_flags(p, "csv")
    p.set_defaults(func=_cmd_boundary)

    p = sub.add_parser(
        "intersect",
        help="eta_sq where the isotropic term equals the leading harmonic size",
    )
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--xi-sq", type=float, required=True)
    p.add_argument("--eta-sq", type=_axis_range, default=AxisRange(0.05, 0.45, 81),
                   metavar="MIN:MAX[:COUNT]")
    _add_series_flags(p)
    _add_output_flags(p, "json")
    p.set_defaults(func=_cmd_intersect)

    p = sub.add_parser("polar", help="moment profile over the full quadrature circle")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--xi-sq", type=float, required=True)
    _add_scalar_model_flags(p)
    p.add_argument("--samples", type=int, default=96)
    _add_series_flags(p)
    _add_output_flags(p, "csv")
    p.set_defaults(func=_cmd_polar)

    p = sub.add_parser("directions", help="squeeze/stretch angle classification")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--xi-sq", type=float, required=True)
    _add_scalar_model_flags(p)
    _add_series_flags(p)
    _add_output_flags(p, "json")
    p.set_defaults(func=_cmd_directions)

    p = sub.add_parser("oracle-check", help="series vs truncated-Fock-space oracle")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--xi-sq", type=float, required=True)
    _add_scalar_model_flags(p)
    p.add_argument("--max-power", type=int, default=8)
    _add_series_flags(p)
    _add_output_flags(p, "json")
    p.set_defaults(func=_cmd_oracle_check)

    p = sub.add_parser("xi-from-drive", help="eigenvalue magnitude from drive settings")
    p.add_argument("--omega0", type=float, required=True, help="carrier Rabi frequency")
    p.add_argument("--omega1", type=float, required=True, help="sideband Rabi frequency")
    p.add_argument("--eta", type=float, required=True, help="Lamb-Dicke parameter")
    p.add_argument("--phase", type=float, default=0.0)
    p.add_argument("--quantum-order", type=int, required=True)
    _add_series_flags(p)
    _add_output_flags(p, "json")
    p.set_defaults(func=_cmd_xi_from_drive)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        text = args.func(args, parser)
    except DomainError as exc:
        print(f"fansq: invalid parameters: {exc}", file=sys.stderr)
        return 2
    except FansqError as exc:
        print(f"fansq: computation failed: {exc}", file=sys.stderr)
        return 3
    if args.output:
        try:
            with open(args.output, "w", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"fansq: cannot write {args.output}: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
