"""Command-line front end: every computation as a subcommand with
CSV/JSON output carrying a full parameter manifest.

Each `_cmd_*` only computes: it returns an `Output` with its JSON data,
its CSV header and rows, and any manifest extras.  `main` does the rest
in one place: it checks SOURCE_DATE_EPOCH, builds the `SeriesControl`
of a subcommand that sums a series, takes the manifest's parameters
from the parsed arguments (every flag of the subcommand but the
series-control and output flags), writes the requested format and maps
errors to exit codes.  Flag blocks that several subcommands share are
declared once, as argparse parent parsers.

Output is written only after the computation succeeds, so a failing run
never leaves a partial file.  Exit codes: 0 success, 2 invalid
parameters, 3 a computation that could not finish.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import json
import math
import os
import sys
from typing import Iterable, NamedTuple, Optional, Sequence

from . import __version__
from .atlas import (
    STATUS_OK,
    AxisRange,
    GridSpec,
    find_intersections,
    polar_profile,
    scan,
    trace_boundary,
)
from .errors import DomainError, FansqError, _check_cells, nonnegative_int
from .fanstate import (
    DEFAULT_CONTROL,
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

# the series-control flags, named as the SeriesControl fields they set
_SERIES_FLAGS = tuple(f.name for f in dataclasses.fields(SeriesControl))
# namespace entries that are not parameters of the computation
_NOT_PARAMETERS = frozenset({"cmd", "func", "format", "output", *_SERIES_FLAGS})


class Output(NamedTuple):
    """What a subcommand computed, before it is written out.

    `data` is the JSON document's data; `rows` hold the CSV cells under
    `header`, floats written with 17 significant digits and strings as
    they are.  Either may hold generators, so that only the requested
    format is built.
    """

    data: dict
    header: Sequence[str]
    rows: Iterable[Sequence]
    extras: Optional[dict] = None


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
    output contract requires.  A set value must be ASCII digits that
    datetime can represent (reproducible-builds.org/specs/source-date-epoch).
    """
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if epoch is None:
        return None
    try:  # int() refuses over 4,300 digits, datetime a year past 9999
        if epoch.isascii() and epoch.isdigit():
            return datetime.datetime.fromtimestamp(int(epoch), tz=datetime.timezone.utc).isoformat()
    except (ValueError, OverflowError, OSError):
        pass
    raise DomainError(
        f"SOURCE_DATE_EPOCH must be ASCII digits of a time datetime holds, got {epoch[:40]!r}"
    )


def _render(
    args: argparse.Namespace, ctl: Optional[SeriesControl], timestamp: Optional[str], out: Output
) -> str:
    """The output text: the manifest, then the data in args.format."""
    parameters = {
        name: vars(value) if isinstance(value, AxisRange) else value
        for name, value in vars(args).items()
        if name not in _NOT_PARAMETERS
    }
    manifest = {
        "tool": "fansq",
        "version": __version__,
        "subcommand": args.cmd,
        "parameters": parameters,
        "timestamp": timestamp,
    }
    if ctl is not None:
        manifest["series_control"] = dataclasses.asdict(ctl)
    if out.extras:
        manifest["extras"] = out.extras
    if args.format == "json":
        # default=list writes a generator as the list it yields
        doc = {"manifest": manifest, "data": out.data}
        return json.dumps(doc, sort_keys=True, indent=2, default=list) + "\n"
    lines = ["# manifest: " + json.dumps(manifest, sort_keys=True), ",".join(out.header)]
    for row in out.rows:
        cells = [x if type(x) is str else f"{x:.17g}" if isinstance(x, float) else str(x)
                 for x in row]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _point_config(args: argparse.Namespace, parser: argparse.ArgumentParser) -> FanConfig:
    """State of a point command; eta-sq presence implies trapped-ion.

    Writes the resolved model name back to args.model, so the manifest
    records the model that was used.
    """
    kind = args.model
    if kind is None:
        kind = "trapped-ion" if args.eta_sq is not None else "identity"
    if kind == "trapped-ion":
        if args.eta_sq is None:
            parser.error("--eta-sq is required with --model trapped-ion")
        model = TrappedIon(eta_sq=args.eta_sq, quantum_order=2 * args.k)
    elif args.eta_sq is not None:
        parser.error("--eta-sq conflicts with --model identity")
    else:
        model = Identity()
    args.model = kind
    return FanConfig.from_xi_sq(args.k, args.xi_sq, model)


def _grid(args: argparse.Namespace) -> GridSpec:
    """Grid of scan and boundary."""
    return GridSpec(xi_sq=args.xi_sq, eta_sq=args.eta_sq, k=args.k, N=args.N, phi=args.phi)


# ---------------------------------------------------------------------------
# subcommand implementations; each returns an Output


def _cmd_squeeze(args, ctl, parser) -> Output:
    cfg = _point_config(args, parser)
    if args.phi is None:  # else the samples are not read
        if args.samples < 2:
            raise DomainError(f"need at least 2 samples to span a period, got {args.samples}")
        _check_cells("samples", args.samples)
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
        "model": args.model,
        "constant": coeffs.constant,
        "harmonics": list(coeffs.harmonics),
        "benchmark": bench,
        "min_order": lowest,
        "below_min_order": args.N < lowest,
        "evaluations": evaluations,
    }
    if args.N < lowest:
        data["note"] = f"below minimum order {lowest}"
    rows = [(e["phi"], e["squeeze"], e["raw_moment"]) for e in evaluations]
    return Output(data, ("phi", "squeeze", "raw_moment"), rows)


def _cmd_scan(args, ctl, parser) -> Output:
    grid = _grid(args)
    diagram = scan(grid, args.model, ctl)
    xi_vals, eta_vals = grid.xi_sq.values(), grid.eta_sq.values()
    values = diagram.values.tolist()
    data = {
        "nodes": (
            {"xi_sq": x, "eta_sq": e, "squeeze": s if status == STATUS_OK else None,
             "status": status}
            for e, row, statuses in zip(eta_vals, values, diagram.status)
            for x, s, status in zip(xi_vals, row, statuses)
        )
    }
    # each axis value is written once, as the CSV writes a float
    xi_text, eta_text = [f"{x:.17g}" for x in xi_vals], [f"{e:.17g}" for e in eta_vals]
    rows = (
        (x, e, s, status)
        for e, row, statuses in zip(eta_text, values, diagram.status)
        for x, s, status in zip(xi_text, row, statuses)
    )
    return Output(data, ("xi_sq", "eta_sq", "squeeze", "status"), rows)


def _cmd_boundary(args, ctl, parser) -> Output:
    points = trace_boundary(_grid(args), args.model, ctl)
    data = {"points": [{"xi_sq": x, "eta_sq": e} for x, e in points]}
    return Output(data, ("xi_sq", "eta_sq"), points)


def _cmd_intersect(args, ctl, parser) -> Output:
    result = find_intersections(args.xi_sq, args.k, args.N, args.eta_sq, ctl)
    data = {
        "roots": list(result.roots),
        "kinds": list(result.kinds),
        "signs": list(result.signs),
        "skipped": [{"eta_sq": e, "status": st} for e, st in result.skipped],
    }
    return Output(data, ("eta_sq_root", "kind"), zip(result.roots, result.kinds))


def _cmd_polar(args, ctl, parser) -> Output:
    profile = polar_profile(_point_config(args, parser), args.N, args.samples, ctl)
    data = {
        "benchmark": profile.benchmark,
        "points": [{"phi": p, "squeeze": s, "raw_moment": r} for p, s, r in profile.points],
    }
    return Output(
        data, ("phi", "squeeze", "raw_moment"), profile.points,
        extras={"benchmark": profile.benchmark},
    )


def _cmd_directions(args, ctl, parser) -> Output:
    coeffs = coefficients(_point_config(args, parser), args.N, ctl)
    report = classify_directions(coeffs)
    data = {
        "regime": report.regime.value,
        "squeeze_angles": list(report.squeeze_angles),
        "stretch_angles": list(report.stretch_angles),
        "s_min": report.s_min,
        "s_max": report.s_max,
        "harmonic_dominance": squeeze_approx(coeffs, 0.0).dominance,
    }
    rows = [(a, "squeeze") for a in report.squeeze_angles]
    rows += [(a, "stretch") for a in report.stretch_angles]
    return Output(data, ("angle", "kind"), rows)


def _cmd_oracle_check(args, ctl, parser) -> Output:
    cfg = _point_config(args, parser)
    nonnegative_int("max-power", args.max_power)
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

    data = {
        "moments": moment_rows,
        "quadrature": quad_rows,
        "max_relative_discrepancy": max_rel,
        "max_absolute_discrepancy_at_zeros": max_abs_zero,
    }
    rows = [
        ("moment", r["l"], r["m"], "", r["series"], r["oracle"], r["abs_err"], r["rel_err"])
        for r in moment_rows
    ]
    rows += [
        ("quadrature", "", "", r["phi"], r["series_plus_benchmark"], r["oracle"],
         abs(r["series_plus_benchmark"] - r["oracle"]), r["rel_err"])
        for r in quad_rows
    ]
    header = ("kind", "l", "m", "phi", "series", "oracle", "abs_err", "rel_err")
    return Output(data, header, rows, extras={"oracle_dim": vec.dim})


def _cmd_xi_from_drive(args, ctl, parser) -> Output:
    drive = DriveParams(
        omega0=args.omega0,
        omega1=args.omega1,
        eta=args.eta,
        quantum_order=args.quantum_order,
    )
    xi = xi_from_drive(drive)
    return Output({"xi": xi, "xi_sq": xi * xi}, ("xi", "xi_sq"), [(xi, xi * xi)])


# ---------------------------------------------------------------------------
# parser assembly

_MODELS = ("identity", "trapped-ion")
_RANGE = "MIN:MAX[:COUNT]"


def _output_flags(default_format: str) -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--format", choices=("csv", "json"), default=default_format)
    p.add_argument("--output", help="write to this file instead of stdout")
    return p


def build_parser() -> argparse.ArgumentParser:
    # flag blocks shared by several subcommands, added to each as parents
    order = argparse.ArgumentParser(add_help=False)
    order.add_argument("--k", type=int, required=True)
    order.add_argument("--N", type=int, required=True)

    point = argparse.ArgumentParser(add_help=False)
    point.add_argument("--xi-sq", type=float, required=True)
    point.add_argument("--eta-sq", type=float, default=None,
                       help="squared Lamb-Dicke parameter (implies trapped-ion model)")
    point.add_argument("--model", choices=_MODELS, default=None)

    grid = argparse.ArgumentParser(add_help=False)
    grid.add_argument("--phi", type=float, required=True)
    grid.add_argument("--xi-sq", type=_axis_range, required=True, metavar=_RANGE)
    grid.add_argument("--eta-sq", type=_axis_range, required=True, metavar=_RANGE)
    grid.add_argument("--model", choices=_MODELS, default="trapped-ion")

    series = argparse.ArgumentParser(add_help=False)
    g = series.add_argument_group("series control")
    g.add_argument("--rel-tol", type=float, default=DEFAULT_CONTROL.rel_tol)
    g.add_argument("--n-max", type=int, default=DEFAULT_CONTROL.n_max)

    # one output block per default format: parents share their argument
    # objects, so set_defaults on one subcommand would change the others
    output = {fmt: _output_flags(fmt) for fmt in ("csv", "json")}

    parser = argparse.ArgumentParser(
        prog="fansq",
        description="Higher-order amplitude squeezing of fan states",
    )
    parser.add_argument("--version", action="version", version=f"fansq {__version__}")
    sub = parser.add_subparsers(dest="cmd", required=True)

    def command(name, func, help, fmt, *blocks) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help, parents=[*blocks, output[fmt]])
        p.set_defaults(func=func)
        return p

    p = command("squeeze", _cmd_squeeze, "decomposition and squeeze parameter at a point",
                "json", order, point, series)
    p.add_argument("--phi", type=float, default=None,
                   help="quadrature angle; omitted means sample one period")
    p.add_argument("--samples", type=int, default=17)

    command("scan", _cmd_scan, "squeeze parameter over a (xi_sq, eta_sq) grid",
            "csv", order, grid, series)
    command("boundary", _cmd_boundary, "trace the S = 0 boundary on a grid",
            "csv", order, grid, series)

    p = command("intersect", _cmd_intersect,
                "eta_sq where the isotropic term equals the leading harmonic size",
                "json", order, series)
    p.add_argument("--xi-sq", type=float, required=True)
    p.add_argument("--eta-sq", type=_axis_range, default=AxisRange(0.05, 0.45, 81),
                   metavar=_RANGE)

    p = command("polar", _cmd_polar, "moment profile over the full quadrature circle",
                "csv", order, point, series)
    p.add_argument("--samples", type=int, default=96)

    command("directions", _cmd_directions, "squeeze/stretch angle classification",
            "json", order, point, series)

    p = command("oracle-check", _cmd_oracle_check, "series vs truncated-Fock-space oracle",
                "json", order, point, series)
    p.add_argument("--max-power", type=int, default=8)

    p = command("xi-from-drive", _cmd_xi_from_drive,
                "eigenvalue magnitude from drive settings", "json")
    p.add_argument("--omega0", type=float, required=True, help="carrier Rabi frequency")
    p.add_argument("--omega1", type=float, required=True, help="sideband Rabi frequency")
    p.add_argument("--eta", type=float, required=True, help="Lamb-Dicke parameter")
    p.add_argument("--quantum-order", type=int, required=True)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        timestamp = _timestamp()
        settings = {name: vars(args)[name] for name in _SERIES_FLAGS if name in vars(args)}
        ctl = SeriesControl(**settings) if settings else None  # None: xi-from-drive sums no series
        text = _render(args, ctl, timestamp, args.func(args, ctl, parser))
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
