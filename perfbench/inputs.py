"""Seeded inputs of the three workloads and the checks of their outputs.

Everything random comes from one `random.Random(seed)`, so a seed fixes
the oracle query sequence; `scan` and `boundary` run the fixed grid of
gate c08.  The program under test only ever receives the generated
inputs.  The checks use the library's own oracle and the tolerances of
acceptance gates c04, c07 and c08; no stored output is compared against.
"""

from __future__ import annotations

import csv
import math
import random
from typing import NamedTuple

WORKLOADS = ("scan", "boundary", "oracle")

# the 101 x 101 k=1 N=4 grid of gate c08, trapped-ion model
GRID_K = 1
GRID_N = 4
GRID_PHI = math.pi / 4
GRID_AXIS = (0.01, 1.0, 101)
GRID_ARGS = [
    "--k", str(GRID_K), "--N", str(GRID_N), "--phi", repr(GRID_PHI),
    "--xi-sq", "%r:%r:%d" % GRID_AXIS, "--eta-sq", "%r:%r:%d" % GRID_AXIS,
]

# oracle workload: per k, QUERIES_PER_CELL identity states stratified
# over xi_sq and the trapped-ion states at the centres of a CELL_GRID
# lattice over (xi_sq, eta_sq); then the centres of a SLOW_GRID lattice in
# the slowly converging band, and the DEFECT_PROBES; all in seeded order.
# The identity states are seeded draws.  The trapped-ion states are fixed:
# the oracle's truncation fails at scattered trapped-ion states all over
# the domain (the support walk stops early, or the tail sits in rounding
# noise; about one state in 9,000 away from the corner, one in 75 near it),
# so seeded trapped-ion states would make the failure count depend on the
# seed.  The probes keep each known failure in every sequence instead.
QUERY_KS = (1, 2, 3)
CELL_GRID = (6, 11)
QUERIES_PER_CELL = CELL_GRID[0] * CELL_GRID[1]
SLOW_GRID = (2, 2)
XI_SQ_RANGE = (0.05, 1.0)
ETA_SQ_RANGE = (0.05, 0.99)
SLOW_XI_SQ_RANGE = (0.96, 1.0)
SLOW_ETA_SQ_RANGE = (0.95, 0.99)
# (k, xi_sq, eta_sq) of trapped-ion states that fail at the seed state
DEFECT_PROBES = (
    (1, 0.995, 0.97575),  # oracle_vector: tail mass 6.1e-14 >= 1e-14
    (2, 0.995, 0.9805),  # l, m <= 8 moments miss the oracle by 3.7e-6
    (2, 0.91, 0.91875),  # quadrature_moment: support walk stops at dim 371
)
QUERY_COUNT = (
    len(QUERY_KS) * 2 * QUERIES_PER_CELL + SLOW_GRID[0] * SLOW_GRID[1] + len(DEFECT_PROBES)
)
MAX_POWER = 8

# acceptance-gate tolerances
C04_REL = 1e-8  # series vs oracle, relative to the oracle value
C04_ABS_AT_ZERO = 1e-12  # absolute, where the oracle moment is below 1e-12
C07_RESIDUAL = 1e-10  # eigenvector relation
C08_ABS_S = 1e-5  # |S| at a returned boundary point


def _centres(shape: tuple[int, int], xs, ys) -> list[tuple[float, float]]:
    """The centre of each box of a shape[0] x shape[1] lattice."""
    nx, ny = shape
    wx = (xs[1] - xs[0]) / nx
    wy = (ys[1] - ys[0]) / ny
    return [(xs[0] + (i + 0.5) * wx, ys[0] + (j + 0.5) * wy) for i in range(nx) for j in range(ny)]


def oracle_queries(seed: int) -> list[dict]:
    """The seeded state sequence of the oracle workload.

    Stratified draws keep the mix of cheap and expensive states nearly
    the same from seed to seed, so seeds change inputs but not the load.
    """
    rng = random.Random(seed)
    queries = []
    n = QUERIES_PER_CELL
    for k in QUERY_KS:
        for i in range(n):
            xi_sq = XI_SQ_RANGE[0] + (i + rng.random()) * (XI_SQ_RANGE[1] - XI_SQ_RANGE[0]) / n
            queries.append({"k": k, "xi_sq": xi_sq, "eta_sq": None})
        for xi_sq, eta_sq in _centres(CELL_GRID, XI_SQ_RANGE, ETA_SQ_RANGE):
            queries.append({"k": k, "xi_sq": xi_sq, "eta_sq": eta_sq})
    for xi_sq, eta_sq in _centres(SLOW_GRID, SLOW_XI_SQ_RANGE, SLOW_ETA_SQ_RANGE):
        queries.append({"k": 1, "xi_sq": xi_sq, "eta_sq": eta_sq})
    for k, xi_sq, eta_sq in DEFECT_PROBES:
        queries.append({"k": k, "xi_sq": xi_sq, "eta_sq": eta_sq})
    rng.shuffle(queries)
    return queries


def grid_values() -> list[float]:
    """Axis values exactly as `fansq.atlas.AxisRange.values` computes them."""
    lo, hi, count = GRID_AXIS
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


# ---------------------------------------------------------------------------
# checks of one repetition's output


class Verdict(NamedTuple):
    """The operations of one repetition and those that failed.

    `operations` names every operation judged and `failures` maps each
    failed one to the reason.  A workload's names are the same in every
    repetition, so a run counts an operation once, however many
    repetitions it fits, and a failure in any repetition counts.
    `readable` is false when output is missing, incomplete or malformed,
    so that nothing in it can be judged and every operation fails.
    """

    operations: frozenset
    failures: dict
    readable: bool


def failing_all(operations, why: str) -> Verdict:
    """Every operation failed for one reason; nothing could be judged."""
    operations = frozenset(operations)
    return Verdict(operations, dict.fromkeys(operations, why), False)


def _read_csv(path: str) -> list[list[str]]:
    with open(path, newline="") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return list(csv.reader(lines))[1:]


def _config(k: int, xi_sq: float, eta_sq):
    from fansq.fanstate import FanConfig, Identity, TrappedIon

    model = Identity() if eta_sq is None else TrappedIon(eta_sq=eta_sq, quantum_order=2 * k)
    return FanConfig.from_xi_sq(k, xi_sq, model)


def oracle_rel_error(k: int, N: int, xi_sq: float, eta_sq, phi: float, s: float) -> float:
    """|S + benchmark - oracle| / |oracle|, the c04 quadrature comparison."""
    from fansq.fockoracle import oracle_vector, quadrature_moment
    from fansq.squeeze import vacuum_benchmark

    vec = oracle_vector(_config(k, xi_sq, eta_sq), 2 * MAX_POWER + 2)
    oracle = quadrature_moment(vec, phi, N)
    return abs(s + vacuum_benchmark(N) - oracle) / abs(oracle)


def check_scan(path: str) -> Verdict:
    """Every node is an operation: non-OK nodes fail, and so do OK nodes
    whose S misses the oracle by more than the c04 tolerance, or where the
    oracle raises.  All nodes are checked; that takes a few seconds."""
    from fansq.errors import FansqError

    values = grid_values()
    expected = [(x, e) for e in values for x in values]
    names = [f"node xi_sq={x!r} eta_sq={e!r}" for x, e in expected]
    try:
        rows = _read_csv(path)
        readable = len(rows) == len(expected) and all(
            len(row) == 4 and float(row[0]) == x and float(row[1]) == e
            for row, (x, e) in zip(rows, expected)
        )
    except (OSError, ValueError):
        readable = False
    if not readable:
        return failing_all(names, "scan output missing or malformed")
    failures = {}
    for name, (xi_sq, eta_sq), row in zip(names, expected, rows):
        if row[3] != "OK":
            failures[name] = f"status {row[3]}"
            continue
        try:
            err = oracle_rel_error(GRID_K, GRID_N, xi_sq, eta_sq, GRID_PHI, float(row[2]))
            why = f"misses the oracle by {err:.3e} relative"
        except (FansqError, ValueError) as exc:
            err = math.inf
            why = f"oracle check raised {type(exc).__name__}: {exc}"
        if not err <= C04_REL:
            failures[name] = why
    return Verdict(frozenset(names), failures, True)


def check_boundary(path: str) -> Verdict:
    """Every returned point must have |S| <= 1e-5 when evaluated again (c08)."""
    from fansq.errors import FansqError
    from fansq.squeeze import coefficients, squeeze_parameter

    try:
        points = [(float(row[0]), float(row[1])) for row in _read_csv(path)]
    except (OSError, ValueError, IndexError):
        points = []
    if not points:
        return failing_all(["boundary output"], "no boundary points could be read")
    failures = {}
    for xi_sq, eta_sq in points:
        name = f"point ({xi_sq!r}, {eta_sq!r})"
        try:
            s = squeeze_parameter(coefficients(_config(GRID_K, xi_sq, eta_sq), GRID_N), GRID_PHI)
        except FansqError as exc:
            failures[name] = f"raised {type(exc).__name__}"
            continue
        if not abs(s) <= C08_ABS_S:
            failures[name] = f"has S={s:.3e}"
    return Verdict(frozenset(f"point ({x!r}, {e!r})" for x, e in points), failures, True)


def check_queries(queries: list[dict], results: list[dict]) -> Verdict:
    """A query fails if it raised FansqError or missed a c04 or c07 tolerance."""
    names = [
        f"query {i} k={q['k']} xi_sq={q['xi_sq']!r} eta_sq={q['eta_sq']!r}"
        for i, q in enumerate(queries)
    ]
    if len(results) != len(queries):
        return failing_all(names, f"{len(results)} results for {len(queries)} queries")
    failures = {}
    for name, r in zip(names, results):
        if "error" in r:
            why = r["error"]
        elif not r["moment_rel"] <= C04_REL:
            why = f"moment misses the oracle by {r['moment_rel']:.3e} relative"
        elif not r["moment_abs_at_zero"] <= C04_ABS_AT_ZERO:
            why = f"zero moment misses the oracle by {r['moment_abs_at_zero']:.3e}"
        elif not r["quadrature_rel"] <= C04_REL:
            why = f"quadrature moment misses the oracle by {r['quadrature_rel']:.3e} relative"
        elif not r["residual"] <= C07_RESIDUAL:
            why = f"eigen residual {r['residual']:.3e}"
        else:
            continue
        failures[name] = why
    return Verdict(frozenset(names), failures, True)
