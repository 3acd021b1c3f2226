"""Parameter-space exploration: grids, boundaries, intersections, profiles.

Produces plottable survey data: squeeze-parameter scans over
(xi^2, eta^2), squeezing-region boundary tracing, the crossing points
of the isotropic term against the leading harmonic magnitude, and
polar profiles of the moment.  Nodes where the series fails are
marked, never fatal to a whole scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._optimize import refine_brackets
from .errors import (
    DomainError,
    EmptyBoundary,
    FansqError,
    _check_cells,
    finite_float,
    nonnegative_float,
    positive_float,
    positive_int,
)
from .fanstate import DEFAULT_CONTROL, FanConfig, SeriesControl, TrappedIon
from .rows import CAPPED, OVERFLOW, SINGULAR, STOPPED, squeeze_rows
from .squeeze import _check_order, coefficients, squeeze_parameter, vacuum_benchmark

STATUS_OK = "OK"
STATUS_SINGULAR = "Singular"
STATUS_NOT_CONVERGED = "NotConverged"

# the status of a node by the outcome code of its row
_STATUS = {
    STOPPED: STATUS_OK,
    SINGULAR: STATUS_SINGULAR,
    OVERFLOW: STATUS_NOT_CONVERGED,
    CAPPED: STATUS_NOT_CONVERGED,
}


@dataclass(frozen=True)
class AxisRange:
    """Inclusive numeric axis: count evenly spaced values from min to max."""

    min: float
    max: float
    count: int

    def __post_init__(self) -> None:
        finite_float("axis min", self.min)
        finite_float("axis max", self.max)
        if not self.min < self.max:
            raise DomainError(f"axis needs min < max, got [{self.min}, {self.max}]")
        positive_int("axis count", self.count)
        if self.count < 2:
            raise DomainError(f"axis count must be >= 2, got {self.count}")
        _check_cells("axis count", self.count)

    def values(self) -> list[float]:
        step = (self.max - self.min) / (self.count - 1)
        return [self.min + i * step for i in range(self.count)]


@dataclass(frozen=True)
class GridSpec:
    """Two-axis grid plus the squeeze-evaluation parameters."""

    xi_sq: AxisRange
    eta_sq: AxisRange
    k: int
    N: int
    phi: float

    def __post_init__(self) -> None:
        positive_int("fan order k", self.k)
        _check_order(self.N)
        nonnegative_float("xi_sq axis min", self.xi_sq.min)
        rows, cols = self.eta_sq.count, self.xi_sq.count
        _check_cells(f"a grid of {rows} x {cols}", rows * cols)
        # checked here too: a grid whose nodes all fail never evaluates S
        finite_float("phase", self.phi)


@dataclass
class PhaseDiagram:
    """Grid of squeeze-parameter values; rows index eta_sq, columns xi_sq."""

    grid: GridSpec
    values: np.ndarray
    status: list[list[str]]


def _eta_sq_of(kind: str, eta_sq: list[float]) -> np.ndarray:
    """The row engine's eta_sq of each value: checked for a trapped ion, 0.0 for the identity."""
    if kind == "identity":
        return np.zeros(len(eta_sq))
    if kind == "trapped-ion":
        for value in eta_sq:
            positive_float("eta_sq", value)
        return np.array(eta_sq, dtype=float)
    raise DomainError(f"unknown model kind {kind!r}")


def scan(
    grid: GridSpec,
    model_kind: str = "trapped-ion",
    ctl: SeriesControl = DEFAULT_CONTROL,
) -> PhaseDiagram:
    """Evaluate the squeeze parameter at every grid node.

    The whole grid is one `squeeze_rows` call: the xi_sq axis, and
    one eta_sq per node, each eta_sq row repeated along the axis.  The
    engine groups contiguous rows of like depth into runs itself; a
    node's value does not depend on its run.  Rows run in order (eta_sq
    outer, xi_sq inner), so outputs are reproducible byte for byte, and
    the first node below the positivity bound raises first.
    """
    xi_vals = grid.xi_sq.values()
    eta_sq = _eta_sq_of(model_kind, grid.eta_sq.values())
    row = squeeze_rows(grid.k, xi_vals, grid.N, np.repeat(eta_sq, len(xi_vals)), ctl)
    shape = (eta_sq.size, len(xi_vals))
    values = row.squeeze_parameter(grid.phi).reshape(shape)
    status = [[_STATUS[c] for c in codes] for codes in row.outcome.reshape(shape).tolist()]
    return PhaseDiagram(grid=grid, values=values, status=status)


_XTOL = 1e-12  # absolute width at which a crossing counts as refined


def _crossings(diagram: PhaseDiagram) -> tuple[np.ndarray, ...]:
    """Sign changes along every eta_sq row, then along every xi_sq column.

    S changes sign between neighbouring OK nodes of opposite signs, and
    through an OK node where S is exactly 0.0 whose OK neighbours have
    opposite signs; that crossing is the zero node and its right
    neighbour, so it refines to the node.  A zero that S only touches,
    or a zero with a zero or failed neighbour, is no crossing.  Returns
    the arrays (fixed, lo, hi, s_lo, s_hi, along_xi) over the crossings:
    the grid value of the other coordinate, the bracket and S at its
    ends, and True where xi_sq varies and eta_sq is fixed.
    """
    grid = diagram.grid
    xi_vals, eta_vals = np.array(grid.xi_sq.values()), np.array(grid.eta_sq.values())
    sign = np.sign(diagram.values)  # NaN at a failed node, and NaN compares False
    parts = []
    for along_xi, fixed_vals, line_vals in ((True, eta_vals, xi_vals), (False, xi_vals, eta_vals)):
        lines, vals = (sign, diagram.values) if along_xi else (sign.T, diagram.values.T)
        change = lines[:, :-1] * lines[:, 1:] < 0
        change[:, 1:] |= (lines[:, 1:-1] == 0) & (lines[:, :-2] * lines[:, 2:] < 0)
        i, j = np.nonzero(change)
        ends = (line_vals[j], line_vals[j + 1], vals[i, j], vals[i, j + 1])
        parts.append((fixed_vals[i], *ends, np.full(i.size, along_xi)))
    return tuple(np.concatenate(c) for c in zip(*parts))


def _refine_crossings(
    grid: GridSpec, kind: str, ctl: SeriesControl, crossings: tuple[np.ndarray, ...]
) -> list[Optional[tuple[float, float]]]:
    """Refine every crossing by `refine_brackets` to 1e-12: one engine call per step.

    Each crossing keeps its own bracket and end values, seeded by the
    scan, and each step evaluates S at the probe of every open crossing
    in one `squeeze_rows` call, with the probes' eta_sq as an array
    (zeros for the identity).  A probe lies inside a bracket of checked
    grid values.  S is then evaluated once more at every root.  A
    crossing whose series fail at any of its points is dropped (None).
    Returns the (xi_sq, eta_sq) points in the order of `_crossings`.
    """
    fixed, a, b, fa, fb, along_xi = crossings
    if not fixed.size:
        return []

    def s_at(x: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """S at position x along the lines of `rows`, and where it failed."""
        along = along_xi[rows]
        xi_sq, eta_sq = np.where(along, x, fixed[rows]), np.where(along, fixed[rows], x)
        if kind == "identity":
            eta_sq = np.zeros_like(eta_sq)
        row = squeeze_rows(grid.k, xi_sq, grid.N, eta_sq, ctl)
        return row.squeeze_parameter(grid.phi), ~row.ok

    root, dropped = refine_brackets(a, b, fa, fb, s_at, _XTOL)
    kept = np.flatnonzero(~dropped)
    if kept.size:
        _, fail = s_at(root[kept], kept)
        dropped[kept[fail]] = True
    return [
        None if dropped[c] else ((x, f) if along else (f, x))
        for c, (x, f, along) in enumerate(zip(root.tolist(), fixed.tolist(), along_xi.tolist()))
    ]


def trace_boundary(
    grid: GridSpec,
    model_kind: str = "trapped-ion",
    ctl: SeriesControl = DEFAULT_CONTROL,
) -> list[tuple[float, float]]:
    """Points where S = 0, refined along every grid row and column.

    Every sign change of S between neighbouring OK nodes of the scan is
    refined by ITP to 1e-12 along its grid line, all of them in lockstep
    (one engine call per step, never more steps than bisection).
    Crossings whose series fail on the way, such as sign changes across
    a Laguerre pole, are dropped.
    Returns the crossing points ordered by angle around their centroid,
    approximating the closed boundary curve of the squeezing region.
    Raises EmptyBoundary when no crossing survives.
    """
    diagram = scan(grid, model_kind, ctl)
    points = [p for p in _refine_crossings(grid, model_kind, ctl, _crossings(diagram)) if p]
    if not points:
        raise EmptyBoundary("no sign change of the squeeze parameter on the grid")

    cx = sum(p[0] for p in points) / len(points)
    cy = sum(p[1] for p in points) / len(points)
    points.sort(key=lambda p: math.atan2(p[1] - cy, p[0] - cx))
    return points


@dataclass(frozen=True)
class IntersectionSet:
    """Crossings of the isotropic term with the leading harmonic size.

    roots: eta_sq values where constant = |harmonics[0]|, ascending.
    signs: sign of the leading harmonic on each inter-root interval.
    kinds: "crossing" for a sign change of constant - |harmonic|,
           "tangent" for a harmonic sign flip where both terms vanish
           together (the state degenerates toward vacuum there).
    skipped: (eta_sq, status) for grid nodes that failed to evaluate.
    """

    xi_sq: float
    k: int
    N: int
    roots: tuple[float, ...]
    signs: tuple[int, ...]
    kinds: tuple[str, ...]
    skipped: tuple[tuple[float, str], ...]


_ROOT_XTOL = 1e-9  # absolute width to which an intersection is refined
_TOUCH_TOL = 1e-8  # |gap| at a harmonic sign flip that makes it a tangent root


def find_intersections(
    xi_sq: float,
    k: int,
    N: int,
    eta_range: AxisRange,
    ctl: SeriesControl = DEFAULT_CONTROL,
) -> IntersectionSet:
    """Locate where the isotropic term equals the leading harmonic of a trapped-ion state.

    Transversal roots are sign changes of gap = constant - |harmonic|.
    A tangential root hides where the harmonic flips sign without the
    gap changing sign: there the nonlinearity has a pole, the state
    collapses toward vacuum, and both terms reach zero together.  Such
    a root is pinned at the flip and accepted only if the gap there is
    within `_TOUCH_TOL` of zero.  `refine_brackets` refines all brackets
    together; a flip bracket carries only the harmonic's signs, so its
    probes are bisection's midpoints and do not chase the pole there,
    as ITP would.  One `squeeze_rows` call evaluates the grid nodes
    (their eta_sq checked), each step's probes, the tangent checks, or
    the midpoints between roots that give `signs`; a check or midpoint
    whose series fail counts as no touch or as sign 0, and a failed
    probe raises what scalar `coefficients` raises at the first one.
    """
    positive_int("fan order k", k)
    _check_order(N)
    positive_float("xi_sq", xi_sq)  # at xi = 0 the state is the vacuum and the gap is 0 everywhere
    if N < 4 * k:
        raise DomainError(f"need N >= 4k for a harmonic term, got N={N}, k={k}")

    def at(eta_sq: np.ndarray):
        """The engine's `SqueezeRow` at each eta_sq."""
        return squeeze_rows(k, np.full(eta_sq.size, xi_sq), N, eta_sq, ctl)

    def gap(row) -> np.ndarray:
        return row.constant - np.abs(row.harmonics[0])

    nodes = eta_range.values()
    row = at(_eta_sq_of("trapped-ion", nodes))
    codes = row.outcome.tolist()
    ok = [code == STOPPED for code in codes]
    skipped = [(e, _STATUS[code]) for e, code in zip(nodes, codes) if code != STOPPED]
    gaps = gap(row).tolist()
    harms = row.harmonics[0].tolist()

    # a node where the gap is exactly 0.0 is a root; sign changes are
    # refined only between nonzero gaps, so no root is found twice
    found = [(e, "crossing") for e, g, node_ok in zip(nodes, gaps, ok) if node_ok and g == 0.0]
    brackets = []  # (lo, hi, f(lo), f(hi), on the gap)
    for i in range(len(nodes) - 1):
        if not (ok[i] and ok[i + 1]):
            continue
        g0, g1, h0, h1 = gaps[i], gaps[i + 1], harms[i], harms[i + 1]
        if g0 != 0.0 and g1 != 0.0 and (g0 > 0) != (g1 > 0):
            brackets.append((nodes[i], nodes[i + 1], g0, g1, True))
        elif h0 != 0.0 and (h0 > 0) != (h1 > 0):
            brackets.append((nodes[i], nodes[i + 1], np.sign(h0), np.sign(h1), False))
    if brackets:
        lo, hi, f_lo, f_hi, on_gap = (np.array(c) for c in zip(*brackets))

        def at_probes(x: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            """The gap, or the harmonic's sign, at each probe; a failed probe raises."""
            probe = at(x)
            if not probe.ok.all():
                e = float(x[probe.ok.argmin()])
                coefficients(FanConfig.from_xi_sq(k, xi_sq, TrappedIon(e, 2 * k)), N, ctl)
                raise FansqError(f"the row engine failed at the probe eta_sq={e!r}")
            flip = np.sign(probe.harmonics[0])
            return np.where(on_gap[rows], gap(probe), flip), np.zeros(x.size, dtype=bool)

        roots, _ = refine_brackets(lo, hi, f_lo, f_hi, at_probes, _ROOT_XTOL)
        flips = roots[~on_gap]
        touch = at(flips)
        found += [(r, "crossing") for r in roots[on_gap].tolist()]
        tangent = flips[touch.ok & (np.abs(gap(touch)) <= _TOUCH_TOL)]
        found += [(r, "tangent") for r in tangent.tolist()]

    found.sort(key=lambda t: t[0])
    roots = tuple(r for r, _ in found)
    kinds = tuple(kind for _, kind in found)
    ends = np.array(roots)
    between = at(0.5 * (ends[:-1] + ends[1:]))
    signs = np.where(between.ok, np.sign(between.harmonics[0]), 0).astype(int)
    return IntersectionSet(
        xi_sq=xi_sq,
        k=k,
        N=N,
        roots=roots,
        signs=tuple(signs.tolist()),
        kinds=kinds,
        skipped=tuple(skipped),
    )


@dataclass(frozen=True)
class PolarProfile:
    """Uniformly sampled moment profile around the full circle."""

    points: tuple[tuple[float, float, float], ...]  # (phi, squeeze, raw moment)
    benchmark: float


def polar_profile(
    cfg: FanConfig,
    N: int,
    samples: int,
    ctl: SeriesControl = DEFAULT_CONTROL,
) -> PolarProfile:
    """Sample (phi, S, S + benchmark) on a uniform phi grid over [0, 2 pi)."""
    positive_int("samples", samples)
    _check_cells("samples", samples)
    if samples < 8 * cfg.k:
        raise DomainError(f"need at least {8 * cfg.k} samples for k={cfg.k}, got {samples}")
    coeffs = coefficients(cfg, N, ctl)
    bench = vacuum_benchmark(N)
    pts = []
    for i in range(samples):
        phi = 2 * math.pi * i / samples
        s = squeeze_parameter(coeffs, phi)
        pts.append((phi, s, s + bench))
    return PolarProfile(points=tuple(pts), benchmark=bench)

