"""The row engine against the scalar path, and the guards that keep both honest.

`squeeze_rows` sums every series of a row of points, each with its
own eta_sq, in numpy term blocks; `coefficients` sums one point at a
time.  The two must give the same status at every node and the same
squeeze parameter up to rounding.  Where the scalar path raises, the
row engine gives the outcome code of that error (`_code`).
"""

import dataclasses
import json
import math
import os
import subprocess
import sys
import types
import warnings
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fansq
import fansq.atlas
import fansq.cli
import fansq.fanstate as fanstate
import fansq.rows as rows
import fansq.squeeze as squeeze
from fansq.atlas import (
    STATUS_NOT_CONVERGED,
    STATUS_OK,
    STATUS_SINGULAR,
    AxisRange,
    GridSpec,
    scan,
    trace_boundary,
)
from fansq.errors import DomainError, FansqError, SeriesNotConverged, SingularNonlinearity
from fansq.fanstate import (
    DEFAULT_CONTROL,
    FanConfig,
    Identity,
    SeriesControl,
    TrappedIon,
    moment,
)
from fansq.rows import (
    CAPPED,
    OVERFLOW,
    SINGULAR,
    STOPPED,
    SqueezeRow,
    squeeze_rows,
)
from fansq.squeeze import (
    SqueezeCoeffs,
    coefficients,
    squeeze_parameter,
    vacuum_benchmark,
)
import row_engine_ref
from laguerre_ref import laguerre
from row_engine_ref import moment_rows

XI_SQ = [0.0, 0.02, 0.15, 0.4, 0.7, 1.0, 1.6]


def _eta_sq(models):
    """The eta_sq the row engine takes for each model: 0.0 for the identity."""
    return [getattr(model, "eta_sq", 0.0) for model in models]


class _Moments(NamedTuple):
    values: dict
    outcome: np.ndarray


def moment_row(k, xi, models, pairs, ctl=DEFAULT_CONTROL):
    return _Moments(*moment_rows(k, xi, pairs, _eta_sq(models), ctl))


def coefficients_row(k, xi_sq, models, N, ctl=DEFAULT_CONTROL):
    return squeeze_rows(k, xi_sq, N, _eta_sq(models), ctl)


def predicted_depth(k, xi, eta_sq, ctl=DEFAULT_CONTROL):
    """`rows._depth` of xi and eta_sq as float arrays: rho and the predicted stop of each point."""
    return rows._depth(k, np.array(xi, dtype=float), np.array(eta_sq, dtype=float), ctl)


def _code(want):
    """The outcome code the row engine gives for a scalar result or error."""
    if isinstance(want, SingularNonlinearity):
        return SINGULAR
    if isinstance(want, SeriesNotConverged):
        if "exceeds float range" in str(want):
            return OVERFLOW
        # the term cap, or rho >= 1 where the series diverges
        assert "tail criterion not met" in str(want) or "diverges at rho" in str(want), want
        return CAPPED
    return STOPPED


def _nodes(row):
    """The arrays of a row result as one `SqueezeCoeffs`, or outcome code, per node."""
    const, harmonics = row.constant.tolist(), [h.tolist() for h in row.harmonics]
    return [
        SqueezeCoeffs(row.k, row.N, const[j], tuple(h[j] for h in harmonics))
        if code == STOPPED
        else code
        for j, code in enumerate(row.outcome.tolist())
    ]


def _scalar_node(k, xi_sq, model, N, ctl):
    try:
        return coefficients(FanConfig.from_xi_sq(k, xi_sq, model), N, ctl)
    except (SingularNonlinearity, SeriesNotConverged) as exc:
        return exc


def assert_row_matches(k, xi_sq, models, N, ctl=DEFAULT_CONTROL):
    """Compare every node of one row; return the status names.

    models is one model per node, or one model for the whole row.
    """
    if not isinstance(models, list):
        models = [models] * len(xi_sq)
    arrays = coefficients_row(k, xi_sq, models, N, ctl)
    row = _nodes(arrays)
    assert len(row) == len(xi_sq)
    phis = (0.0, math.pi / (8 * k), math.pi / (4 * k), 0.3)
    # S of the whole row carries the bits of S of each node
    s_row = [arrays.squeeze_parameter(phi).tolist() for phi in phis]
    bench = vacuum_benchmark(N)
    names = []
    for j, (x, model, got) in enumerate(zip(xi_sq, models, row)):
        want = _scalar_node(k, x, model, N, ctl)
        if not isinstance(want, SqueezeCoeffs):
            assert got == _code(want), (x, got, want)
            assert all(math.isnan(s[j]) for s in s_row)
        else:
            assert isinstance(got, SqueezeCoeffs), (x, got)
            assert len(got.harmonics) == len(want.harmonics)
            for phi, s in zip(phis, s_row):
                s_want = squeeze_parameter(want, phi)
                s_got = squeeze_parameter(got, phi)
                assert s[j].hex() == s_got.hex(), (x, phi)
                assert abs(s_got - s_want) <= 1e-12 * max(abs(s_want), bench), (x, phi)
        names.append(type(want).__name__)
    return names


def _model(kind, k, eta_sq):
    return Identity() if kind == "identity" else TrappedIon(eta_sq=eta_sq, quantum_order=2 * k)


@pytest.mark.parametrize("kind", ["identity", "trapped-ion"])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("extra", [0, 4])
def test_row_matches_scalar_path(kind, k, extra):
    N = 4 * k + extra
    for eta_sq in (0.12, 0.45, 0.9):
        names = assert_row_matches(k, XI_SQ, _model(kind, k, eta_sq), N)
        assert names[0] == "SqueezeCoeffs"  # xi = 0 is the vacuum


def test_xi_zero_column_is_the_vacuum():
    for model in (Identity(), TrappedIon(eta_sq=0.3, quantum_order=2)):
        (c,) = _nodes(coefficients_row(1, [0.0], [model], 8))
        assert c == coefficients(FanConfig(1, 0.0, model), 8)
        assert c.constant == 0.0 and all(b == 0.0 for b in c.harmonics)
    row = moment_row(2, [0.0, 0.5], [Identity()] * 2, [(0, 0), (1, 1), (8, 0)])
    assert [v[0] for v in row.values.values()] == [1.0, 0.0, 0.0]


def _smallest_root(j):
    """Smallest zero of L_j^0 to float resolution, by bisection."""
    lo, hi = 1e-3, 1e-3
    while (laguerre(j, 0, hi) > 0) == (laguerre(j, 0, lo) > 0):
        hi += 1e-3
    f_lo = laguerre(j, 0, lo)
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return lo
        if (laguerre(j, 0, mid) > 0) == (f_lo > 0):
            lo = mid
        else:
            hi = mid


def test_a_point_past_float_range_fails_as_on_the_scalar_path():
    # xi^4 itself overflows at xi_sq = 1e300; the series fail first
    for kind in ("identity", "trapped-ion"):
        names = assert_row_matches(1, [0.5, 1e300], _model(kind, 1, 0.5), 4)
        assert names == ["SqueezeCoeffs", "SeriesNotConverged"]


@dataclasses.dataclass(frozen=True)
class _Listed(AxisRange):
    """An axis of the listed values, for a row that no even spacing gives."""

    listed: tuple = ()

    def values(self):
        return list(self.listed)


def test_a_scan_row_of_all_four_outcomes_has_the_scalar_statuses():
    # the L_16^0 pole sits at product index 9 for k = 1: (8, 0) reads it
    # from index 6 on, (1, 1) from index 10, past the cap of 8 indices;
    # xi_sq = 1e300 is at rho >= 1 there, and fails unsummed.  At
    # eta_sq = 1e-301 it is at rho = 0.1, and its first term past n0
    # exceeds float range
    root, tiny = _smallest_root(16), 1e-301
    ctl = SeriesControl(n_max=8)
    xi_sq = [0.0, 0.03, 0.04, 0.05, 0.1, 10.0, 1e300]
    grid = GridSpec(
        xi_sq=_Listed(0.0, 1e300, len(xi_sq), tuple(xi_sq)),
        eta_sq=_Listed(tiny, 1.0, 2, (root, tiny)),
        k=1,
        N=8,
        phi=0.0,
    )
    outcomes = [
        coefficients_row(1, xi_sq, [TrappedIon(eta_sq, 2)] * len(xi_sq), 8, ctl).outcome.tolist()
        for eta_sq in (root, tiny)
    ]
    assert outcomes[0] == [STOPPED] * 2 + [SINGULAR] * 2 + [CAPPED] * 3
    assert outcomes[1][-1] == OVERFLOW
    status = {
        SqueezeCoeffs: STATUS_OK,
        SingularNonlinearity: STATUS_SINGULAR,
        SeriesNotConverged: STATUS_NOT_CONVERGED,
    }
    want = [
        [status[type(_scalar_node(1, x, TrappedIon(eta_sq, 2), 8, ctl))] for x in xi_sq]
        for eta_sq in (root, tiny)
    ]
    assert scan(grid, "trapped-ion", ctl).status == want


def test_row_crossing_a_laguerre_pole():
    # for k = 1 the product at Fock argument 22 divides by L_20^0(eta_sq):
    # small xi stop before they need it, large xi run into the pole
    eta_sq = _smallest_root(20)
    assert abs(laguerre(20, 0, eta_sq)) < fanstate._LAGUERRE_FLOOR
    names = assert_row_matches(1, XI_SQ + [2.0, 4.0], _model("trapped-ion", 1, eta_sq), 4)
    assert "SqueezeCoeffs" in names[1:] and "SingularNonlinearity" in names


def test_pole_in_the_first_products_fails_every_positive_xi():
    names = assert_row_matches(1, XI_SQ, _model("trapped-ion", 1, 2 - math.sqrt(2)), 4)
    assert names == ["SqueezeCoeffs"] + ["SingularNonlinearity"] * (len(XI_SQ) - 1)


@pytest.mark.parametrize("kind", ["identity", "trapped-ion"])
def test_term_cap_gives_not_converged(kind):
    ctl = SeriesControl(n_max=10)
    names = assert_row_matches(1, XI_SQ, _model(kind, 1, 0.3), 4, ctl)
    assert "SqueezeCoeffs" in names[1:] and "SeriesNotConverged" in names


def test_row_matches_scalar_path_for_each_order():
    for kind, k in (("trapped-ion", 1), ("trapped-ion", 2), ("identity", 3)):
        assert_row_matches(k, XI_SQ, _model(kind, k, 0.6), 4 * k + 4)


def _same_node(a, b):
    return a == b  # exact: every float bit for bit, or the same outcome code


def test_node_value_does_not_depend_on_its_row():
    model = _model("trapped-ion", 1, 0.95)
    xi_sq = [0.05 * i for i in range(21)] + [1.7]
    full = _nodes(coefficients_row(1, xi_sq, [model] * len(xi_sq), 8))
    for j, x in enumerate(xi_sq):
        (alone,) = _nodes(coefficients_row(1, [x], [model], 8))
        assert _same_node(alone, full[j]), x
    reversed_row = _nodes(coefficients_row(1, xi_sq[::-1], [model] * len(xi_sq), 8))[::-1]
    assert all(_same_node(a, b) for a, b in zip(reversed_row, full))


def test_row_of_mixed_models_matches_scalar_path():
    # models alternate, repeat and straddle the L_2^0 pole at 2 - sqrt(2)
    etas = [0.3, 0.9, 2 - math.sqrt(2), 0.3, 0.58, 0.59, 0.9]
    xi_sq = [0.4, 0.4, 0.4, 1.2, 0.0, 0.8, 0.05]
    for k in (1, 2):
        models = [_model("trapped-ion", k, e) for e in etas] + [Identity()]
        names = assert_row_matches(k, xi_sq + [0.6], models, 4 * k + 4)
        if k == 1:
            assert names[2] == "SingularNonlinearity"


def _points(draw, k):
    """Points of one call: models drawn from a small pool, so some repeat."""
    pool = draw(
        st.lists(
            st.one_of(
                st.just(Identity()),
                st.floats(min_value=0.0, max_value=1.0, exclude_min=True).map(
                    lambda e: TrappedIon(eta_sq=e, quantum_order=2 * k)
                ),
            ),
            min_size=1,
            max_size=4,
        )
    )
    n = draw(st.integers(min_value=1, max_value=6))
    xi_sq = draw(st.lists(st.floats(min_value=0.0, max_value=2.0), min_size=n, max_size=n))
    models = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    return xi_sq, models


@settings(max_examples=40, deadline=None)
@given(data=st.data(), k=st.sampled_from([1, 2, 3]), extra=st.sampled_from([0, 4]))
def test_engine_and_stop_rule_match_scalar_path_on_mixed_models(data, k, extra):
    N = 4 * k + extra
    xi_sq, models = _points(data.draw, k)
    assert_row_matches(k, xi_sq, models, N)
    full = _nodes(coefficients_row(k, xi_sq, models, N))
    for j, (x, model) in enumerate(zip(xi_sq, models)):
        (alone,) = _nodes(coefficients_row(k, [x], [model], N))
        assert _same_node(alone, full[j]), (x, model)


def test_moment_row_matches_moment_for_any_pairs():
    pairs = [(0, 0), (2, 0), (0, 4), (3, 1), (5, 1), (4, 4), (6, 2)]
    xi = [0.0, 0.3, 0.8, 1.1]
    for model in (Identity(), TrappedIon(eta_sq=0.25, quantum_order=2)):
        row = moment_row(1, xi, [model] * len(xi), pairs)
        assert row.outcome.tolist() == [STOPPED] * len(xi)
        for (l, m), values in row.values.items():
            for x, v in zip(xi, values.tolist()):
                want = moment(FanConfig(1, x, model), l, m)
                assert abs(v - want) <= 1e-13 * max(abs(want), 1e-300), (l, m, x)


# k = 1 pairs; their first summation index ceil(m / 2) is 1, 2, 1, 1, 0
EDGE_PAIRS = [(1, 1), (3, 3), (5, 1), (2, 2), (4, 0)]


def _scalar_moment(cfg, lm, ctl):
    try:
        return moment(cfg, *lm, ctl)
    except (SingularNonlinearity, SeriesNotConverged) as exc:
        return exc


def _assert_moment_row_matches(k, xi, models, lm, ctl):
    """Compare one pair on a row with `moment`; return the status names."""
    row = moment_row(k, xi, models, [lm], ctl)
    names = []
    for j, (x, model) in enumerate(zip(xi, models)):
        want = _scalar_moment(FanConfig(k, x, model), lm, ctl)
        got = row.values[lm][j]
        assert row.outcome[j] == _code(want), (x, model, lm, ctl, want)
        if isinstance(want, float):
            assert abs(got - want) <= 1e-13 * abs(want), (x, model, lm, ctl)
        else:
            assert math.isnan(got)
        names.append(type(want).__name__)
    return names


def test_even_rows_stop_and_cap_where_the_scalar_path_does():
    # every term cap around the first block, first indices of both
    # parities, and a model whose first product is a pole; at xi = 1e-60
    # the first term of (3, 3) underflows to a small zero at an even
    # first index
    pole = 2 - math.sqrt(2)
    xi, models = [], []
    for model in (Identity(), _model("trapped-ion", 1, 0.3), _model("trapped-ion", 1, pole)):
        for x in (0.0, 1e-60, 0.01, 0.1, 0.4, 0.8, 1.2):
            xi.append(x)
            models.append(model)
    seen = set()
    for n_max in range(1, 13):
        ctl = SeriesControl(n_max=n_max)
        for lm in EDGE_PAIRS:
            seen.update(_assert_moment_row_matches(1, xi, models, lm, ctl))
    assert seen == {"float", "SeriesNotConverged", "SingularNonlinearity"}


@pytest.mark.parametrize("lm, n_max", [((4, 0), 3), ((2, 2), 4)])
def test_a_stop_on_the_odd_index_past_the_cap_is_capped(lm, n_max):
    # at xi = 0.01 only the first nonzero term is large; the scalar path
    # would stop at the odd index n0 + n_max, one past the last index it
    # may visit
    xi, models = [0.01], [Identity()]
    capped = SeriesControl(n_max=n_max)
    stops = SeriesControl(n_max=n_max + 1)
    assert _assert_moment_row_matches(1, xi, models, lm, capped) == ["SeriesNotConverged"]
    assert _assert_moment_row_matches(1, xi, models, lm, stops) == ["float"]


def test_c08_scan_builds_only_even_term_rows(monkeypatch):
    cells = []
    block = rows._term_block

    def counting(lat, k, a, b, p, out):
        cells.append(out.size)
        return block(lat, k, a, b, p, out)

    monkeypatch.setattr(rows, "_term_block", counting)
    grid = GridSpec(
        xi_sq=AxisRange(0.01, 1.0, 101), eta_sq=AxisRange(0.01, 1.0, 101), k=1, N=4, phi=math.pi / 4
    )
    scan(grid, "trapped-ion")
    # 1,432,464 cells when the odd indices, all exact zeros, were built too
    assert 0 < sum(cells) <= 720_000


def test_the_kernel_tool_runs_and_reads_a_c08_ledger_within_the_bounds():
    # the tool patches the engine's private names by attribute, so a rename breaks it unseen
    src = os.path.dirname(os.path.dirname(os.path.abspath(fansq.__file__)))
    root = os.path.dirname(src)
    env = dict(os.environ)
    paths = (src, os.path.join(root, "tests"), env.get("PYTHONPATH"))
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    tool = os.path.join(root, "tools", "row_kernel_ab.py")
    out = subprocess.run(
        [sys.executable, tool, "--repeats", "1"], env=env, capture_output=True, text=True, timeout=300
    )
    assert out.returncode == 0, out.stderr
    report = json.loads(out.stdout)
    assert list(report) == [
        "ledger", "layers", "laguerre_paths", "cumulation", "engine_calls", "first_call"
    ]
    ledger = report["ledger"]
    assert 0 < ledger["engine_calls"] <= 40 and 0 < ledger["term_blocks"] <= 160
    assert 0 < ledger["term_cells"] <= 720_000
    assert 0 < ledger["laguerre_degree_pairs"] <= 72_000
    # the refinement calls of a c08 boundary, one per ITP step and one at the roots
    refinement = report["engine_calls"]
    assert 0 < len(refinement["calls"]) <= 40
    assert {7, 263} <= {call["probes"] for call in refinement["calls"]}
    assert list(refinement["phases_ms"]) == ["7", "263"]
    # one fresh child: its first c08 scan call and its second, both timed
    first = report["first_call"]
    assert first["children"] == 1 and first["first_cpu_ms"] > 0 and first["second_cpu_ms"] > 0
    assert first["first_minor_faults"] > 0


def _laguerre_degree_pairs(monkeypatch):
    """Count degrees times pairs that `LaguerreRows` adds to its tables."""
    count = [0]
    upto = rows.LaguerreRows.upto

    def counting(self, n):
        before = self._vals.shape[0]
        vals = upto(self, n)
        count[0] += (self._vals.shape[0] - before) * self.x.size
        return vals

    monkeypatch.setattr(rows.LaguerreRows, "upto", counting)
    return count


def test_c08_scan_sizes_its_lattice_once_and_builds_no_node_objects(monkeypatch):
    degrees = _laguerre_degree_pairs(monkeypatch)
    calls = []

    def counted(name, f):
        def wrapper(*args):
            calls.append(name)
            return f(*args)

        return wrapper

    # the per-node path: one `SqueezeCoeffs` and one S evaluation per node
    for module in (squeeze, fansq.atlas):
        for name in ("squeeze_parameter", "coefficients"):
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    grid = GridSpec(
        xi_sq=AxisRange(0.01, 1.0, 101), eta_sq=AxisRange(0.01, 1.0, 101), k=1, N=4, phi=math.pi / 4
    )
    scan(grid, "trapped-ion")
    assert calls == []
    # 86,924 when the lattice doubled blindly; 70,572 sized from the predicted depth
    assert 0 < degrees[0] <= 72_000


def test_c08_scan_shares_engine_calls_between_rows_of_like_depth(monkeypatch):
    calls, blocks = [], []
    sum_columns, block = rows._sum_columns, rows._term_block

    def counting_sum(*args):
        calls.append(1)
        return sum_columns(*args)

    def counting_block(*args):
        blocks.append(1)
        return block(*args)

    monkeypatch.setattr(rows, "_sum_columns", counting_sum)
    monkeypatch.setattr(rows, "_term_block", counting_block)
    scan(_c08_grid(), "trapped-ion")
    # 101 calls and 300 blocks with one call per eta_sq row
    assert 0 < len(calls) <= 40
    assert 0 < len(blocks) <= 160


def test_an_identity_scan_hands_no_call_more_than_2048_nodes(monkeypatch):
    # every row of an identity scan predicts the same depth, so only the
    # node cap splits runs; a k = 1, N = 4 node is four columns, the
    # normalization and the moments (1, 1), (2, 2) and (4, 0)
    columns = []
    sum_columns = rows._sum_columns

    def recording(lat, k, p, ctl, ends):
        columns.append(p.n0.size)
        return sum_columns(lat, k, p, ctl, ends)

    monkeypatch.setattr(rows, "_sum_columns", recording)
    scan(_c08_grid(), "identity")
    assert sum(columns) == 4 * 101 * 101
    assert max(columns) == 4 * 20 * 101  # 20 whole rows: the most within 2,048 nodes


# ---------------------------------------------------------------------------
# the kernel against the earlier kernel, bit for bit


def _pole_side_models(k):
    """Trapped-ion models on both sides of the smallest zero of L_2k^0, and at it."""
    root = _smallest_root(2 * k)
    sides = (root, root * (1 - 1e-9), root * (1 + 1e-9), root / 2, root * 1.5)
    return [TrappedIon(eta_sq, 2 * k) for eta_sq in sides]


@st.composite
def _kernel_rows(draw):
    """A row of mixed, repeated models at xi^2 from 1e-300 to 1e300, and its settings."""
    k = draw(st.sampled_from([1, 2, 3]))
    tiny_to_one = st.floats(min_value=-300.0, max_value=0.0).map(lambda e: 10.0**e)
    pool = draw(
        st.lists(
            st.one_of(
                st.just(Identity()),
                st.sampled_from(_pole_side_models(k)),
                tiny_to_one.map(lambda e: TrappedIon(e, 2 * k)),
            ),
            min_size=1,
            max_size=4,
        )
    )
    size = draw(st.integers(min_value=1, max_value=8))
    exponent = st.one_of(
        st.floats(min_value=-300.0, max_value=300.0), st.sampled_from([-300.0, 300.0])
    )
    xi_sq = draw(st.lists(exponent.map(lambda e: 10.0**e), min_size=size, max_size=size))
    models = draw(st.lists(st.sampled_from(pool), min_size=size, max_size=size))
    edge = [(0, 0), (1, 1), (2, 2), (3, 3), (4 * k, 0), (4 * k + 1, 1), (4 * k + 3, 3)]
    pairs = draw(st.lists(st.sampled_from(edge), min_size=1, max_size=4, unique=True))
    ctl = SeriesControl(
        rel_tol=draw(st.sampled_from([1e-16, 1e-8, 0.5])),
        n_max=draw(st.sampled_from([1, 2, 3, 4, 5, 10, 37, 5000])),
    )
    return k, [math.sqrt(x) for x in xi_sq], models, pairs, ctl


def _run_on_both_kernels(k, xi, models, pairs, ctl):
    """Run one plan; every kernel call is replayed on the earlier kernel and must match it."""
    calls = []
    kernel = rows._sum_columns

    def both(lat, k, p, ctl, ends):
        got = kernel(lat, k, p, ctl, ends)
        want = row_engine_ref._sum_columns(lat, k, p, ctl, ends)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()
        calls.append(got[1].tolist())
        return got

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rows, "_sum_columns", both)
        row = moment_row(k, xi, models, pairs, ctl)
    return row, calls


@settings(max_examples=60, deadline=None)
@given(case=_kernel_rows())
@example(
    case=(
        1,
        [1e-150, 1e150, 0.5, 1.2],
        [Identity()] * 2 + _pole_side_models(1)[:2],
        [(1, 1), (4, 0)],
        SeriesControl(),
    )
)
@example(  # n0 = 2 for (3, 3): at xi^2 = 1e-300 its terms underflow, and n_max = 3 caps it
    case=(1, [1e-150, 0.3, 0.3], [TrappedIon(0.3, 2)] * 3, [(3, 3), (5, 1)], SeriesControl(n_max=3))
)
def test_the_kernel_keeps_the_earlier_kernels_bits(case):
    _run_on_both_kernels(*case)


def test_the_kernel_keeps_the_earlier_kernels_bits_on_every_outcome():
    seen = set()
    for k in (1, 2):
        pole = _pole_side_models(k)[0]
        xi = [1e-150, 1e-30, 0.3, 0.7, 1.2, 1e150]
        for models in ([pole] * 6, [Identity()] * 6, [TrappedIon(1e-301, 2 * k)] * 6):
            for n_max in (1, 2, 3, 4, 5, 10, 5000):
                pairs = [(0, 0), (1, 1), (2, 2), (3, 3), (4 * k, 0)]
                _, calls = _run_on_both_kernels(k, xi, models, pairs, SeriesControl(n_max=n_max))
                seen.update(code for call in calls for code in call)
    assert seen == {STOPPED, SINGULAR, OVERFLOW, CAPPED}


def test_the_kernel_carries_its_sums_across_reused_block_arrays(monkeypatch):
    # one call's lattice and columns: the two small-xi nodes stop in the
    # first block, the other two run on for about 150 rows
    calls, kernel = [], rows._sum_columns
    monkeypatch.setattr(rows, "_sum_columns", lambda *args: calls.append(args) or kernel(*args))
    xi = [math.sqrt(x) for x in (0.02, 0.2, 0.95, 0.99)]
    moment_rows(1, xi, squeeze._moment_pairs(1, 4), [0.95] * 4)
    lat, k, p, ctl, _ = calls[0]
    shapes, block = [], rows._term_block

    def recording(lat, k, a, b, p, out):
        shapes.append(out.shape)
        return block(lat, k, a, b, p, out)

    monkeypatch.setattr(rows, "_term_block", recording)
    # a predicted end of row 9 cuts the second block to one row, and the
    # third, of 9 rows and as many columns, fits the first block's arrays
    # (no regrowth); it writes where the cut block's last sums were held
    ends = np.full(p.n0.size, 9)
    got = kernel(lat, k, p, ctl, ends)
    want = row_engine_ref._sum_columns(lat, k, p, ctl, ends)
    assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes()
    assert (got[1] == STOPPED).all()
    cells = [(rows + 1) * width for rows, width in shapes]
    assert len(shapes) >= 3
    assert any(
        cut[0] < later[0] / 5 and cut[1] == later[1] and after <= max(cells[:i])
        for i, (cut, later, after) in enumerate(zip(shapes, shapes[1:], cells[1:]), start=1)
    )
    assert any(c > max(cells[:i]) for i, c in enumerate(cells[1:], start=1))  # a regrowth


def test_the_kernel_is_silent(capsys):
    # a pole (f(4) divides by L_2^0 = 0), terms past float range (identity
    # at xi^2 = 1e300, and rho = 0.1 at eta^2 = 1e-301) and underflowed
    # terms (xi^2 = 1e-300), in one row and in one scan
    pole = TrappedIon(2 - math.sqrt(2), 2)
    xi = [math.sqrt(x) for x in (1e-300, 0.5, 1e300, 1e300, 1e-300)]
    models = [pole, pole, Identity(), TrappedIon(1e-301, 2), Identity()]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        row = moment_row(1, xi, models, [(1, 1), (2, 2), (4, 0)])
    assert row.outcome.tolist() == [SINGULAR, SINGULAR, OVERFLOW, OVERFLOW, STOPPED]
    argv = ["scan", "--k", "1", "--N", "4", "--phi", "0.5", "--xi-sq", "1e-300:1e300:3",
            "--eta-sq", f"1e-301:{2 - math.sqrt(2)!r}:2"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert fansq.cli.main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert [line.split(",")[-1] for line in out.splitlines()[2:]] == [
        "OK", "NotConverged", "NotConverged", "Singular", "NotConverged", "NotConverged",
    ]


# ---------------------------------------------------------------------------
# many rows of eta_sq in one call


# xi = 0, a point whose xi^4 passes float range, and points on both
# sides of the first products' pole
PLAN_XI_SQ = [0.0, 0.05, 0.4, 1e300, 0.8, 1.2, 0.0, 1.6]


def _model_lists(k):
    """Lists of one model per PLAN_XI_SQ point: shared, mixed and repeated."""
    pole = TrappedIon(eta_sq=_smallest_root(2 * k), quantum_order=2 * k)  # L_2k^0 = 0: f(4k) is a pole
    ion = [TrappedIon(eta_sq=e, quantum_order=2 * k) for e in (0.3, 0.9, 0.58)]
    n = len(PLAN_XI_SQ)
    return [
        [pole] * n,
        [ion[0]] * n,
        [Identity()] * n,
        [ion[j % 3] if j % 4 else pole for j in range(n)],
        [Identity(), pole, ion[1], pole, ion[2], Identity(), ion[0], pole],
    ]


@pytest.mark.parametrize("k", [1, 2])
def test_a_call_on_many_rows_gives_each_row_its_one_row_bits(k):
    N = 4 * k + 4
    pairs = squeeze._moment_pairs(k, N) + [(0, 0), (0, 4 * k), (3, 3)]
    xi = [math.sqrt(x) for x in PLAN_XI_SQ]
    lists = _model_lists(k)
    stacked = lists + lists[::-1]  # rows of mixed models, each row twice
    eta_sq = [e for models in stacked for e in _eta_sq(models)]
    values, outcome = moment_rows(k, xi, pairs, eta_sq)
    got = squeeze_rows(k, PLAN_XI_SQ, N, eta_sq)
    n = len(xi)
    for r, models in enumerate(stacked):
        at = slice(r * n, (r + 1) * n)
        alone = moment_row(k, xi, models, pairs)
        assert list(values) == list(alone.values)
        for lm in pairs:
            assert values[lm][at].tobytes() == alone.values[lm].tobytes(), (r, lm)
        assert outcome[at].tobytes() == alone.outcome.tobytes()
        want = coefficients_row(k, PLAN_XI_SQ, models, N)
        for a, b in zip(
            (got.constant, *got.harmonics, got.outcome),
            (want.constant, *want.harmonics, want.outcome),
            strict=True,
        ):
            assert a[at].tobytes() == b.tobytes(), r
    # the statuses are the scalar path's, the pole and the overflow included
    names = assert_row_matches(k, PLAN_XI_SQ, lists[3], N)
    assert names[0] == names[6] == "SqueezeCoeffs"
    assert names[3] == "SeriesNotConverged" and "SingularNonlinearity" in names


def _recording_lattices(monkeypatch):
    """The eta_sq columns of every lattice the engine builds, as lists."""
    lattices = []
    lattice = rows._Lattice

    def recording(eta_sq, step):
        lattices.append(eta_sq.tolist())
        return lattice(eta_sq, step)

    monkeypatch.setattr(rows, "_Lattice", recording)
    return lattices


def test_equal_eta_sq_share_one_lattice_column(monkeypatch):
    lattices = _recording_lattices(monkeypatch)
    xi_sq = [0.02 * i for i in range(1, 51)]
    row = squeeze_rows(1, xi_sq, 4, [0.3, 0.0] * 25)
    assert lattices == [[0.0, 0.3]]
    alone = squeeze_rows(1, xi_sq[::2], 4, [0.3] * 25)
    assert row.constant[::2].tobytes() == alone.constant.tobytes()


def test_a_run_builds_one_lattice_column_per_summed_eta_sq_in_ascending_order(monkeypatch):
    lattices = _recording_lattices(monkeypatch)
    # 0.8 shows at xi = 0 and at rho = 1.8 as well, 2.0 only at rho = 2
    # and 0.5 only at xi = 0: the summed nodes see 0.3, 0.0 (the
    # identity) and 0.8
    nodes = [
        (0.0, 0.8), (0.5, 0.3), (1.5, 0.8), (0.4, 0.0), (0.6, 0.3),
        (0.3, 0.8), (1.0, 2.0), (0.0, 0.5), (0.2, 0.3), (0.7, 0.0),
    ]  # fmt: skip
    xi, eta_sq = [x for x, _ in nodes], [e for _, e in nodes]
    pairs = squeeze._moment_pairs(1, 4)
    values, outcome = moment_rows(1, xi, pairs, eta_sq * 2)  # two stacked rows, one run
    assert lattices == [[0.0, 0.3, 0.8]]
    codes = outcome.tolist()
    assert codes[2] == codes[6] == CAPPED and codes.count(STOPPED) == 16
    for j, (x, e) in enumerate(nodes):
        alone, _ = moment_rows(1, [x], pairs, [e])
        for lm in pairs:
            got = values[lm][[j, j + len(xi)]]
            assert got.tobytes() == np.tile(alone[lm], 2).tobytes()


def _axis_runs(k, xi_sq, eta_sq, ctl=DEFAULT_CONTROL):
    """The depths and runs of the rule the scan used before the engine scheduled its own runs.

    One prediction per eta_sq row, at the axis's largest xi, where a
    row goes deepest.
    """
    xi_top = [math.sqrt(max(xi_sq))] * len(eta_sq)
    _, depth = predicted_depth(k, xi_top, eta_sq, ctl)
    return depth.tolist(), rows._row_runs(depth.tolist(), len(xi_sq))


@st.composite
def _scan_rows(draw):
    """An order k, an xi^2 axis with xi = 0 nodes, and eta_sq rows over it.

    The rows come from a small pool, so that rows repeat and runs form;
    they reach past rho = 1 (xi^2 eta^2 up to 9), and 0.0 is the identity.
    """
    k = draw(st.sampled_from([1, 2, 3]))
    xi_sq = draw(st.lists(st.floats(min_value=1e-3, max_value=3.0), min_size=1, max_size=6))
    xi_sq = draw(st.permutations(xi_sq + [0.0] * draw(st.integers(min_value=0, max_value=2))))
    eta = st.just(0.0) | st.floats(min_value=0.01, max_value=3.0)
    pool = draw(st.lists(eta, min_size=1, max_size=5))
    return k, xi_sq, draw(st.lists(st.sampled_from(pool), min_size=1, max_size=30))


@settings(max_examples=40, deadline=None)
@given(case=_scan_rows())
@example(case=(1, [0.0, 0.0], [0.0, 0.5, 0.5, 2.0]))  # an axis of xi = 0 only
def test_runs_from_each_rows_deepest_node_are_the_runs_of_the_axis_largest_xi(case):
    k, xi_sq, eta_sq = case
    runs = []
    row_runs = rows._row_runs

    def recording(depth, width):
        runs.append((depth, row_runs(depth, width)))
        return runs[-1][1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rows, "_row_runs", recording)
        squeeze_rows(k, xi_sq, 4 * k, np.repeat(eta_sq, len(xi_sq)))
    assert runs == [_axis_runs(k, xi_sq, eta_sq)]


_SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e-310, math.inf, -math.inf, math.nan, 1e308]


@settings(max_examples=60, deadline=None)
@given(
    n_rows=st.integers(min_value=1, max_value=40),
    width=st.sampled_from(["one", "below", "at", "thrice"]),
    pool=st.lists(st.floats() | st.sampled_from(_SPECIAL_FLOATS), min_size=1, max_size=24),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_cumulation_has_the_bits_of_accumulate_and_leaves_its_input(n_rows, width, pool, seed):
    wide = rows._WIDE
    cols = {"one": 1, "below": wide - 1, "at": wide, "thrice": 3 * wide}[width]
    block = np.random.default_rng(seed).choice(np.array(pool), size=(n_rows, cols))
    before = block.tobytes()
    for ufunc in (np.add, np.multiply):
        with np.errstate(all="ignore"):
            got = rows._cumulate(ufunc, block)
            want = ufunc.accumulate(block, axis=0)
            # in place, into a strided view, as the lattice cumulates its tables
            strided = np.zeros((n_rows, 2, cols))
            strided[:, 0] = block
            rows._cumulate(ufunc, strided[:, 0], out=strided[:, 0])
        assert got.tobytes() == want.tobytes() == strided[:, 0].tobytes()
        assert block.tobytes() == before and not np.may_share_memory(got, block)


@st.composite
def _stacked_rows(draw):
    """An xi^2 axis with xi = 0 nodes, and rows of one model each to stack on it.

    The models are the identity, trapped-ion models up to eta^2 = 2, so
    that rows reach rho >= 1, and models beside the zero of L_2k^0.
    """
    k = draw(st.sampled_from([1, 2, 3]))
    xi_sq = draw(st.lists(st.floats(min_value=1e-3, max_value=3.0), min_size=1, max_size=5))
    xi_sq = draw(st.permutations(xi_sq + [0.0] * draw(st.integers(min_value=1, max_value=2))))
    ion = st.floats(min_value=0.01, max_value=2.0).map(lambda e: TrappedIon(e, 2 * k))
    model = st.one_of(st.just(Identity()), st.sampled_from(_pole_side_models(k)), ion)
    models = draw(st.lists(model, min_size=2, max_size=6))
    return k, xi_sq, models, 4 * k + draw(st.sampled_from([0, 4]))


@settings(max_examples=40, deadline=None)
@given(case=_stacked_rows())
@example(
    case=(1, [0.3, 0.0, 1.0, 2.0], [Identity()] + _pole_side_models(1)[:2] + [TrappedIon(1.5, 2)], 8)
)
def test_a_run_of_stacked_rows_gives_each_row_its_one_row_bits(case):
    k, xi_sq, models, N = case
    stacked = coefficients_row(k, xi_sq, [model for model in models for _ in xi_sq], N)
    alone = [coefficients_row(k, xi_sq, [model] * len(xi_sq), N) for model in models]
    got = (stacked.constant, *stacked.harmonics, stacked.outcome)
    for a, b in zip(got, zip(*((r.constant, *r.harmonics, r.outcome) for r in alone)), strict=True):
        assert a.tobytes() == np.concatenate(b).tobytes()


@settings(max_examples=10, deadline=None)
@given(
    xi=st.tuples(st.floats(min_value=0.01, max_value=0.3), st.floats(min_value=0.5, max_value=1.0)),
    eta=st.tuples(st.floats(min_value=0.01, max_value=0.3), st.floats(min_value=0.5, max_value=0.95)),
    counts=st.tuples(st.integers(min_value=2, max_value=8), st.integers(min_value=4, max_value=30)),
    data=st.data(),
)
def test_a_batched_scan_raises_the_first_node_below_the_bound_in_node_order(xi, eta, counts, data):
    # rho runs up to 0.95 on the grid, so its rows fall into several runs; no
    # node is at xi = 0, where S = 0 in every row, so a value names its node
    k = data.draw(st.sampled_from([1, 2, 3]))
    grid = GridSpec(AxisRange(*xi, counts[0]), AxisRange(*eta, counts[1]), k, 4 * k, 0.3)
    diagram = scan(grid)
    ok = np.array(diagram.status) == STATUS_OK
    values = diagram.values[ok].tolist()  # row-major: eta_sq outer, xi_sq inner
    # a bound in the upper half puts nodes of many runs below it
    bound = data.draw(st.sampled_from(sorted(values)[len(values) // 2 :]))
    low = [s for s in values if not s >= bound]
    # the S check of a row looks its bound up in the row engine's namespace
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rows, "_lower_bound", lambda N: bound)
        if not low:
            assert scan(grid).values.tobytes() == diagram.values.tobytes()
            return
        with pytest.raises(FansqError) as raised:
            scan(grid)
    assert str(raised.value) == str(squeeze._below_bound(low[0], grid.N))


def test_a_call_checks_its_axis_and_its_eta_sq():
    with pytest.raises(DomainError):
        squeeze_rows(1, [0.1, -0.2], 4, [0.0] * 2)
    with pytest.raises(DomainError):
        squeeze_rows(0, [0.1], 4, [0.0])
    with pytest.raises(DomainError):
        squeeze_rows(1, [0.1, math.inf], 4, [0.0] * 2)
    for count in (0, 1, 3):  # a call takes whole rows of the axis
        with pytest.raises(DomainError, match="one eta_sq per xi in each row"):
            squeeze_rows(1, [0.1, 0.2], 4, [0.0] * count)
    # no quantum order to mismatch: an eta_sq is finite and >= 0, 0.0 the identity
    for bad in (-0.2, -5e-324, math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match=r"eta_sq\[1\] must be a finite float >= 0"):
            squeeze_rows(1, [0.1, 0.2], 4, [0.3, bad])
        with pytest.raises(DomainError, match=r"eta_sq\[3\] must be a finite float >= 0"):
            squeeze_rows(1, [0.1, 0.2], 4, [0.0, 0.3, 0.3, bad])


def test_a_call_checks_each_input_once_and_tiles_nothing(monkeypatch):
    checked, engine = [], []
    nonnegative, squeeze_call = rows._nonnegative_array, fansq.atlas.squeeze_rows

    def counting(name, values):
        checked.append(name)
        return nonnegative(name, values)

    def counted_call(*args):
        engine.append(1)
        return squeeze_call(*args)

    def no_tile(*args, **kwargs):
        raise AssertionError("np.tile called")

    monkeypatch.setattr(rows, "_nonnegative_array", counting)
    monkeypatch.setattr(fansq.atlas, "squeeze_rows", counted_call)
    monkeypatch.setattr(np, "tile", no_tile)
    squeeze_rows(1, [0.0, 0.1, 0.2], 4, [0.3, 0.0, 0.5] * 2)
    assert checked == ["xi_sq", "eta_sq"]
    # a scan and its refinement steps: each engine call checks xi_sq and eta_sq once
    checked.clear()
    trace_boundary(GridSpec(AxisRange(0.05, 1.0, 21), AxisRange(0.05, 1.0, 21), 1, 4, math.pi / 4))
    assert len(engine) > 1 and checked == ["xi_sq", "eta_sq"] * len(engine)
    # called directly, the one entry point checks its own inputs in the same words
    with pytest.raises(DomainError, match=r"xi_sq\[1\] must be a finite float >= 0"):
        squeeze_rows(1, [0.1, -0.2], 4, [0.0] * 2)
    with pytest.raises(DomainError, match=r"xi_sq\[1\] must be a finite float >= 0"):
        squeeze_rows(1, [0.1, math.nan], 4, [0.0] * 2)
    with pytest.raises(DomainError, match=r"eta_sq\[0\] must be a finite float >= 0"):
        squeeze_rows(1, [0.1], 4, [math.inf])
    with pytest.raises(DomainError, match="need one eta_sq per xi in each row, got 1 for 2"):
        squeeze_rows(1, [0.1, 0.2], 4, [0.0])


def _c08_grid():
    return GridSpec(
        xi_sq=AxisRange(0.01, 1.0, 101), eta_sq=AxisRange(0.01, 1.0, 101), k=1, N=4, phi=math.pi / 4
    )


def test_c08_scan_takes_ln_xi_and_xi_powers_once_per_axis_value(monkeypatch):
    grid = _c08_grid()
    xi = {math.sqrt(x) for x in grid.xi_sq.values()}
    logs, powers = [], []

    def log(x, *base):
        if x in xi:
            logs.append(x)
        return math.log(x, *base)

    def power(x, diff):
        powers.append(x)
        return x**diff

    counted = types.SimpleNamespace(**{**vars(math), "log": log})
    monkeypatch.setattr(rows, "math", counted)
    monkeypatch.setattr(rows, "_xi_power", power)
    scan(grid, "trapped-ion")
    # one per node of the grid, 10,201, when every row took its own
    assert sorted(logs) == sorted(xi)
    # k = 1, N = 4: of the moments (1, 1), (2, 2) and (4, 0) only (4, 0)
    # needs xi^(l - m); xi^0 = 1.0 scales nothing
    assert sorted(powers) == sorted(xi)


# ---------------------------------------------------------------------------
# the depth prediction from rho = xi^2 eta^2


def test_rho_per_config_and_per_row():
    configs = [
        FanConfig.from_xi_sq(k, xi_sq, TrappedIon(eta_sq=eta_sq, quantum_order=2 * k))
        for k, xi_sq, eta_sq in [(1, 0.5, 0.3), (2, 0.99, 0.97), (3, 1.7, 0.8), (1, 0.0, 0.4)]
    ]
    for cfg in configs:
        (rho,), _ = predicted_depth(cfg.k, [cfg.xi], [cfg.model.eta_sq])
        assert rho == cfg.xi_sq * cfg.model.eta_sq
    xi = [0.0, 0.3, 0.9, 1.0, 2.5]
    rho, depth = predicted_depth(1, xi, [0.95, 0.0] * 2 + [0.0])
    assert rho.tolist() == [0.0, 0.0, 0.9 * 0.9 * 0.95, 0.0, 0.0]
    assert depth.shape == (5,) and all(8 <= d <= DEFAULT_CONTROL.n_max for d in depth.tolist())


@pytest.mark.parametrize("k", [1, 2, 3])
def test_rho_at_or_past_one_predicts_the_cap_or_the_first_overflow(k, monkeypatch):
    eta_sq = [1.0, 1.01, 0.5, 0.25, 0.9]
    xi = [1.0, 1.0, 2.0, 3.0, 1e200]  # rho = 1, 1.01, 2, 2.25 and past float range
    models = [TrappedIon(e, 2 * k) for e in eta_sq]
    rho, depth = predicted_depth(k, xi, eta_sq)
    assert rho.tolist()[:4] == [1.0, 1.01, 2.0, 2.25] and rho[4] == math.inf
    n_max = DEFAULT_CONTROL.n_max
    # the series diverge, so the prediction is the cap
    assert depth.tolist() == [n_max] * 5
    capped = SeriesControl(n_max=40)
    assert predicted_depth(k, xi, eta_sq, capped)[1].tolist() == [40] * 5
    # both engines fail them at once, naming rho, with the cap's error and code
    lattices = _recording_lattices(monkeypatch)
    row = moment_row(k, xi, models, squeeze._moment_pairs(k, 4 * k))
    assert row.outcome.tolist() == [CAPPED] * 5
    assert lattices == [[]]  # no term summed, no product built
    for x, model, r in zip(xi, models, rho.tolist()):
        words = f"diverges at rho = xi\\^2 eta\\^2 = {r} >= 1"
        with pytest.raises(SeriesNotConverged, match=words):
            coefficients(FanConfig(k, x, model), 4 * k)
    # c08's corner: AxisRange ends a hair below 1, so rho is just below it
    corner = AxisRange(0.01, 1.0, 101).values()[-1]
    (rho,), (depth,) = predicted_depth(k, [math.sqrt(corner)], [corner])
    assert rho < 1 and depth == n_max


def _last_summed_index(cfg, lm, ctl, exps):
    """Even index of the last term the scalar loop sums for one series.

    lm is (l, m), or None for the normalization.  exps collects the
    loop's `math.exp` calls, one per term but the normalization's
    leading (2k)^2; a capped series ends on the last index it may visit.
    """
    del exps[:]
    try:
        if lm is None:
            fanstate._series_sum(cfg, ctl, norm=True)
        else:
            fanstate._series_sum(cfg, ctl, *lm)
    except SeriesNotConverged as exc:
        assert "tail criterion not met" in str(exc), exc
    if lm is None:
        return 2 * len(exps)
    n0 = -(-lm[1] // (2 * cfg.k))
    return n0 + n0 % 2 + 2 * (len(exps) - 1)


def test_prediction_follows_the_stops_of_the_c08_rows(monkeypatch):
    # per row: the deepest predicted stop index of its columns, which
    # share one lattice group (a c08 row has one model), and the deepest
    # index the scalar path sums, which is where the engine's columns stop too
    predicted = []
    sum_columns = rows._sum_columns

    def recording(lat, k, p, ctl, ends):
        stops = p.n0 + p.n0 % 2 + 2 * (ends - 1)
        predicted.extend(int(stops[p.g == g].max()) for g in np.unique(p.g))
        return sum_columns(lat, k, p, ctl, ends)

    monkeypatch.setattr(rows, "_sum_columns", recording)
    grid = _c08_grid()
    scan(grid, "trapped-ion")
    exps = []

    def exp(x):
        exps.append(x)
        return math.exp(x)

    monkeypatch.setattr(fanstate, "math", types.SimpleNamespace(**{**vars(math), "exp": exp}))
    series = [None] + squeeze._moment_pairs(1, 4)
    actual = []
    for eta_sq in grid.eta_sq.values():
        model = TrappedIon(eta_sq=eta_sq, quantum_order=2)
        configs = [FanConfig.from_xi_sq(1, x, model) for x in grid.xi_sq.values()]
        actual.append(
            max(_last_summed_index(c, lm, DEFAULT_CONTROL, exps) for c in configs for lm in series)
        )
    seen = list(zip(actual, predicted, strict=True))
    assert len(seen) == 101
    assert seen[-1] == (5000, 5000)  # the corner node is capped, and so predicted
    short = [actual for actual, predicted in seen if predicted < actual]
    # the pole oscillation takes two rows a few indices past the prediction
    assert len(short) <= 2
    assert all(predicted <= 2 * actual + 16 for actual, predicted in seen)


def _no_prediction(depth):
    """A depth prediction (`rows._depth`) that predicts the same stop index for every point."""
    predict_rho = rows._depth

    def predict(k, xi, eta_sq, ctl):
        rho, _ = predict_rho(k, xi, eta_sq, ctl)
        return rho, np.full(len(xi), min(depth, ctl.n_max))

    return predict


def _near_radius_row(draw, k):
    """A row at rho near 1 with mixed models, plus a capped, a pole and an overflow point."""
    pole = TrappedIon(eta_sq=_smallest_root(2 * k), quantum_order=2 * k)  # f(4k) divides by 0
    near = st.floats(min_value=0.5, max_value=1.0).map(lambda e: TrappedIon(e, 2 * k))
    models = st.one_of(near, st.just(Identity()), st.just(pole))
    pool = draw(st.lists(models, min_size=1, max_size=3))
    xi, models = [1.0, 1.0, math.sqrt(1000.0)], [
        TrappedIon(eta_sq=1.01, quantum_order=2 * k),  # rho = 1.01: capped unsummed
        pole,
        Identity(),  # xi^2 = 1000: a term past float range
    ]
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        model = draw(st.sampled_from(pool))
        rho = draw(st.floats(min_value=0.9, max_value=1.05))
        xi.append(math.sqrt(rho / getattr(model, "eta_sq", 1.0)))
        models.append(model)
    order = draw(st.permutations(range(len(xi))))
    return [xi[i] for i in order], [models[i] for i in order]


@settings(max_examples=12, deadline=None)
@given(data=st.data(), k=st.sampled_from([1, 2, 3]), extra=st.sampled_from([0, 4]))
def test_prediction_moves_no_value_and_no_error(data, k, extra):
    xi, models = _near_radius_row(data.draw, k)
    pairs = squeeze._moment_pairs(k, 4 * k + extra)
    ctl = SeriesControl(n_max=1000)
    row = moment_row(k, xi, models, pairs, ctl)
    assert {CAPPED, OVERFLOW, SINGULAR} <= set(row.outcome.tolist())
    # each node fails as the scalar path fails first
    for x, model, code in zip(xi, models, row.outcome.tolist()):
        try:
            want = coefficients(FanConfig(k, x, model), 4 * k + extra, ctl)
        except (SingularNonlinearity, SeriesNotConverged) as exc:
            want = exc
        assert code == _code(want), (x, model, want)
    # no prediction, all at the cap, and one that ends a block mid-series
    for depth in (0, ctl.n_max, data.draw(st.integers(min_value=2, max_value=400))):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rows, "_depth", _no_prediction(depth))
            off = moment_row(k, xi, models, pairs, ctl)
        for lm in pairs:
            assert off.values[lm].tobytes() == row.values[lm].tobytes(), (lm, depth)
        assert off.outcome.tobytes() == row.outcome.tobytes()


def test_row_rejects_bad_inputs():
    with pytest.raises(DomainError):
        coefficients_row(1, [0.1, -0.2], [Identity()] * 2, 4)
    with pytest.raises(DomainError):
        coefficients_row(1, [0.1, math.nan], [Identity()] * 2, 4)
    for bad in (-0.2, math.nan, math.inf):  # in place of a quantum order other than 2k
        with pytest.raises(DomainError):
            squeeze_rows(1, [0.1, 0.2], 4, [0.0, bad])
    with pytest.raises(DomainError):
        coefficients_row(1, [0.1], [Identity()], 5)
    with pytest.raises(DomainError):
        coefficients_row(1, [0.1, 0.2], [Identity()], 4)
    # a fan order of 0 divided by zero, and 1.5 failed in range()
    for k in (0, 1.5, -1):
        with pytest.raises(DomainError, match="fan order k must be a positive integer"):
            coefficients_row(k, [0.1], [Identity()], 4)


# ---------------------------------------------------------------------------
# series-control validation and the positivity guard


def _valid_control(rel_tol, n_max):
    return (
        type(rel_tol) is not bool
        and math.isfinite(rel_tol)
        and 0 < rel_tol < 1
        and type(n_max) is int
        and n_max >= 1
    )


# counts that are not ints: bools, and floats whole, fractional or not finite
NOT_INT = st.sampled_from([True, False, 2.0, 2.5, 3.0, math.nan, math.inf])


@given(
    rel_tol=st.one_of(st.floats(), st.sampled_from([1e-16, 0.5, 1.0, 2.0, True, False])),
    n_max=st.one_of(st.integers(min_value=-2, max_value=6), NOT_INT),
)
# a bool float setting with every other setting valid: True is 1.0
@example(rel_tol=True, n_max=5000)
def test_series_control_accepts_exactly_the_valid_settings(rel_tol, n_max):
    kwargs = dict(rel_tol=rel_tol, n_max=n_max)
    if _valid_control(rel_tol, n_max):
        ctl = SeriesControl(**kwargs)
        assert ctl.n_max == n_max
    else:
        with pytest.raises(DomainError):
            SeriesControl(**kwargs)


def test_row_positivity_guard_reports_the_first_converged_node_below_the_bound():
    row = SqueezeRow(
        k=1,
        N=4,
        constant=np.array([0.1, math.nan, -5.0, -6.0]),
        harmonics=(np.zeros(4),),
        outcome=np.array([STOPPED, CAPPED, STOPPED, STOPPED]),
    )
    with pytest.raises(FansqError, match="S=-5.0 fell below"):
        row.squeeze_parameter(0.0)
    ok = dataclasses.replace(row, constant=np.array([0.1, math.nan, -0.75, 2.0]))
    assert ok.squeeze_parameter(0.0).tolist()[2:] == [-0.75, 2.0]
    with pytest.raises(DomainError):
        ok.squeeze_parameter(math.inf)


def test_positivity_guard_survives_optimized_mode():
    src = os.path.dirname(os.path.dirname(os.path.abspath(fansq.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = (
        "from fansq.errors import FansqError\n"
        "from fansq.squeeze import SqueezeCoeffs, squeeze_parameter\n"
        "try:\n"
        "    squeeze_parameter(SqueezeCoeffs(k=1, N=4, constant=-5.0, harmonics=(0.0,)), 0.0)\n"
        "except FansqError:\n"
        "    print('raised')\n"
    )
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "raised"


def _scan_in_child(argv, disabled):
    """`fansq` argv in a child with numpy's CPU features `disabled` (None: the default).

    Returns its stdout and the numpy features it reports enabled.
    """
    src = os.path.dirname(os.path.dirname(os.path.abspath(fansq.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    env.pop("NPY_DISABLE_CPU_FEATURES", None)
    if disabled:
        env["NPY_DISABLE_CPU_FEATURES"] = disabled
    code = (
        "import json, sys\n"
        "try:\n"
        "    from numpy._core._multiarray_umath import __cpu_features__ as features\n"
        "except ImportError:  # numpy 1\n"
        "    from numpy.core._multiarray_umath import __cpu_features__ as features\n"
        "from fansq.cli import main\n"
        "print(json.dumps(sorted(f for f, on in features.items() if on)), file=sys.stderr)\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    return out.stdout, json.loads(out.stderr.splitlines()[-1])


def test_scan_values_agree_across_numpy_simd_targets():
    # the row engine takes exp and log from numpy, whose SIMD kernels
    # (AVX512 and AVX2 on x86) may differ in the last bits: bytes hold for
    # one numpy build and target, values within 1e-12 across targets
    argv = [
        "scan", "--k", "1", "--N", "4", "--phi", repr(math.pi / 4),
        "--xi-sq", "0.01:1.0:101", "--eta-sq", "0.9:0.99:2",
    ]  # fmt: skip
    (default, ours), (other, theirs) = (
        _scan_in_child(argv, disabled) for disabled in (None, "AVX512_SPR AVX512_ICL X86_V4")
    )
    rows, other_rows = default.splitlines(), other.splitlines()
    assert rows[:2] == other_rows[:2] and len(rows) == len(other_rows) == 2 + 202
    for row, other_row in zip(rows[2:], other_rows[2:]):
        *node, s, status = row.split(",")
        *other_node, other_s, other_status = other_row.split(",")
        assert node == other_node and status == other_status == "OK", (row, other_row)
        assert abs(float(s) - float(other_s)) <= 1e-12 * abs(float(other_s)), (row, other_row)
    if ours == theirs:  # one dispatch target: the same bytes
        assert default == other


def test_both_engines_fail_an_exact_zero_numerator_alike():
    # L_2^2(x) = (x^2 - 8x + 12) / 2 vanishes exactly at x = 2: f(4) = 0
    model = TrappedIon(eta_sq=2.0, quantum_order=2)
    words = (
        "nonlinearity vanishes exactly at Fock argument 4; "
        "downstream amplitude ratios are undefined"
    )
    with pytest.raises(SingularNonlinearity) as exc:
        coefficients(FanConfig.from_xi_sq(1, 0.4, model), 4)  # rho = 0.8
    assert str(exc.value).endswith(words) and exc.value.index == 4
    assert _nodes(coefficients_row(1, [0.4], [model], 4)) == [SINGULAR]
