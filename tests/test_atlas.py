"""Parameter-space sweeps: phase-diagram scans, boundary tracing,
isotropic-vs-harmonic intersections, polar profiles."""

import math

import numpy as np
import pytest

import fansq.atlas
import fansq.fanstate
from fansq.atlas import (
    STATUS_NOT_CONVERGED,
    STATUS_OK,
    STATUS_SINGULAR,
    AxisRange,
    GridSpec,
    PhaseDiagram,
    _crossings,
    _refine_crossings,
    find_intersections,
    polar_profile,
    scan,
    trace_boundary,
)
from fansq.errors import (
    DomainError,
    EmptyBoundary,
    FansqError,
    SeriesNotConverged,
    SingularNonlinearity,
)
from fansq.fanstate import (
    DEFAULT_CONTROL,
    FanConfig,
    Identity,
    SeriesControl,
    TrappedIon,
)
from fansq.rows import CAPPED, STOPPED, SqueezeRow
from fansq.squeeze import (
    SqueezeCoeffs,
    coefficients,
    squeeze_parameter,
    vacuum_benchmark,
)
from itp_ref import bisect_root

GRID_K1 = GridSpec(
    xi_sq=AxisRange(0.0, 1.0, 21),
    eta_sq=AxisRange(0.02, 1.0, 21),
    k=1,
    N=4,
    phi=math.pi / 4,
)


# ---------------------------------------------------------------------------
# grid plumbing


def test_axis_range_validation():
    with pytest.raises(DomainError):
        AxisRange(0.5, 0.5, 10)
    with pytest.raises(DomainError):
        AxisRange(1.0, 0.0, 10)
    with pytest.raises(DomainError):
        AxisRange(0.0, 1.0, 1)
    with pytest.raises(DomainError):
        AxisRange(float("inf"), 1.0, 5)
    # a bool endpoint passed as 0.0 or 1.0
    with pytest.raises(DomainError, match="axis min must be a finite float"):
        AxisRange(True, 2.0, 5)
    with pytest.raises(DomainError, match="axis max must be a finite float"):
        AxisRange(0.0, True, 5)
    # a count that is not an int fails as a DomainError, not later in values()
    for count in (2.5, 3.0, float("nan"), True):
        with pytest.raises(DomainError, match="axis count must be a positive integer"):
            AxisRange(0.0, 1.0, count)


def test_axis_range_values_hit_endpoints():
    vals = AxisRange(0.1, 0.9, 5).values()
    assert vals[0] == 0.1
    assert vals[-1] == 0.9
    assert len(vals) == 5


def test_grid_spec_validation():
    ax = AxisRange(0.1, 0.5, 3)
    with pytest.raises(DomainError):
        GridSpec(xi_sq=ax, eta_sq=ax, k=0, N=4, phi=0.0)
    with pytest.raises(DomainError):
        GridSpec(xi_sq=ax, eta_sq=ax, k=1, N=5, phi=0.0)
    with pytest.raises(DomainError, match="moment order must be a positive integer"):
        GridSpec(xi_sq=ax, eta_sq=ax, k=1, N=4.0, phi=0.0)
    for k in (1.5, 1.0, True):
        with pytest.raises(DomainError, match="fan order k must be a positive integer"):
            GridSpec(xi_sq=ax, eta_sq=ax, k=k, N=4, phi=0.0)
    with pytest.raises(DomainError):
        GridSpec(xi_sq=AxisRange(-0.2, 0.5, 3), eta_sq=ax, k=1, N=4, phi=0.0)
    for phi in (math.nan, math.inf, True):
        with pytest.raises(DomainError, match="phase must be a finite float"):
            GridSpec(xi_sq=ax, eta_sq=ax, k=1, N=4, phi=phi)


# ---------------------------------------------------------------------------
# scan


def test_scan_zero_xi_column_is_exactly_zero():
    grid = GridSpec(
        xi_sq=AxisRange(0.0, 0.5, 3),
        eta_sq=AxisRange(0.2, 0.4, 2),
        k=1,
        N=4,
        phi=math.pi / 4,
    )
    diagram = scan(grid, "trapped-ion")
    assert diagram.values.shape == (2, 3)
    assert all(st == STATUS_OK for row in diagram.status for st in row)
    assert (diagram.values[:, 0] == 0.0).all()
    assert np.isfinite(diagram.values).all()


def test_scan_below_threshold_is_positive_and_phase_independent():
    grid_a = GridSpec(
        xi_sq=AxisRange(0.1, 0.9, 5),
        eta_sq=AxisRange(0.1, 0.9, 4),
        k=1,
        N=2,
        phi=0.0,
    )
    grid_b = GridSpec(
        xi_sq=grid_a.xi_sq, eta_sq=grid_a.eta_sq, k=1, N=2, phi=1.1
    )
    a = scan(grid_a, "identity")
    b = scan(grid_b, "identity")
    assert (a.values > 0).all()
    assert np.array_equal(a.values, b.values)


def test_scan_contains_squeezing_nodes():
    diagram = scan(GRID_K1, "trapped-ion")
    ok = np.array(
        [[st == STATUS_OK for st in row] for row in diagram.status], dtype=bool
    )
    assert (diagram.values[ok] < 0).any()


def test_scan_marks_nonconvergent_nodes_instead_of_raising():
    grid = GridSpec(
        xi_sq=AxisRange(0.5, 0.9, 2),
        eta_sq=AxisRange(0.2, 0.4, 2),
        k=1,
        N=4,
        phi=0.0,
    )
    diagram = scan(grid, "identity", SeriesControl(n_max=3))
    assert all(st == STATUS_NOT_CONVERGED for row in diagram.status for st in row)
    assert np.isnan(diagram.values).all()


# ---------------------------------------------------------------------------
# boundary


def test_trace_boundary_points_sit_on_zero_level():
    points = trace_boundary(GRID_K1, "trapped-ion")
    assert len(points) > 8
    for xi_sq, eta_sq in points:
        cfg = FanConfig.from_xi_sq(1, xi_sq, TrappedIon(eta_sq=eta_sq, quantum_order=2))
        s = squeeze_parameter(coefficients(cfg, 4), math.pi / 4)
        assert abs(s) <= 1e-8


@pytest.mark.parametrize(
    "row, want",
    [
        ((1.0, 0.0, -1.0), [(0.5, 1.0, 0.0, -1.0)]),
        ((-1.0, 0.0, 1.0), [(0.5, 1.0, 0.0, 1.0)]),
        ((1.0, 0.0, 1.0), []),
        ((-1.0, 0.0, -1.0), []),
    ],
    ids=["+0-", "-0+", "+0+", "-0-"],
)
def test_crossing_through_an_exact_zero_node(row, want):
    # one OK eta_sq row; the failed second row adds no column crossings
    grid = GridSpec(
        xi_sq=AxisRange(0.0, 1.0, 3), eta_sq=AxisRange(0.2, 0.4, 2), k=1, N=4, phi=0.0
    )
    diagram = PhaseDiagram(
        grid, np.array([row, [math.nan] * 3]), [[STATUS_OK] * 3, [STATUS_SINGULAR] * 3]
    )
    crossings = _crossings(diagram)
    assert [c[1:5] for c in _listed(crossings)] == want
    assert _listed(crossings) == _loop_crossings(diagram)
    if want:  # a sign change through the node refines to the node
        assert _refine_crossings(grid, "trapped-ion", DEFAULT_CONTROL, crossings) == [(0.5, 0.2)]


def _listed(crossings):
    """The arrays of `_crossings` as one (fixed, lo, hi, s_lo, s_hi, along_xi) per crossing."""
    return list(zip(*(c.tolist() for c in crossings)))


def _loop_crossings(diagram):
    """The crossing rule of `_crossings`, one pair of neighbours at a time."""
    grid = diagram.grid
    xi_vals, eta_vals = grid.xi_sq.values(), grid.eta_sq.values()
    out = []
    for along_xi, fixed_vals, line_vals in ((True, eta_vals, xi_vals), (False, xi_vals, eta_vals)):
        vals = diagram.values if along_xi else diagram.values.T
        status = diagram.status if along_xi else list(zip(*diagram.status))
        for fixed, s, st in zip(fixed_vals, vals.tolist(), status):
            sign = [(v > 0) - (v < 0) if x == STATUS_OK else None for v, x in zip(s, st)]
            for j in range(len(s) - 1):
                lo, hi = sign[j], sign[j + 1]
                left = sign[j - 1] if j > 0 else None
                change = lo is not None and hi is not None and lo * hi < 0
                through = lo == 0 and left is not None and hi is not None and left * hi < 0
                if change or through:
                    out.append((fixed, line_vals[j], line_vals[j + 1], s[j], s[j + 1], along_xi))
    return out


# k = 2: the eta_sq range spans the first zero of L_4^0 (about 0.3225)
GRID_K2_POLE = GridSpec(
    xi_sq=AxisRange(0.0, 1.0, 21),
    eta_sq=AxisRange(0.05, 0.95, 21),
    k=2,
    N=8,
    phi=math.pi / 8,
)
XTOL = 1e-12


def _scalar_refinement(grid, crossing):
    """One crossing refined alone: scalar bisection over scalar `coefficients`."""
    fixed, lo, hi, s_lo, s_hi, along_xi = crossing

    def s_of(x):
        xi_sq, eta_sq = (x, fixed) if along_xi else (fixed, x)
        model = TrappedIon(eta_sq=eta_sq, quantum_order=2 * grid.k)
        cfg = FanConfig.from_xi_sq(grid.k, xi_sq, model)
        return squeeze_parameter(coefficients(cfg, grid.N), grid.phi)

    try:
        root = bisect_root(s_of, lo, hi, XTOL, fa=s_lo, fb=s_hi)
        s_of(root)
    except (SingularNonlinearity, SeriesNotConverged):
        return None
    return (root, fixed) if along_xi else (fixed, root)


@pytest.mark.parametrize("grid", [GRID_K1, GRID_K2_POLE], ids=["k1", "k2-pole"])
def test_crossings_match_the_loop_over_neighbours(grid):
    # GRID_K1 starts at xi_sq = 0, where S is exactly 0 on the whole column
    diagram = scan(grid, "trapped-ion")
    assert _listed(_crossings(diagram)) == _loop_crossings(diagram)


@pytest.mark.parametrize("grid", [GRID_K1, GRID_K2_POLE], ids=["k1", "k2-pole"])
def test_lockstep_refinement_matches_scalar_bisection(grid):
    crossings = _crossings(scan(grid, "trapped-ion"))
    got = _refine_crossings(grid, "trapped-ion", DEFAULT_CONTROL, crossings)
    want = [_scalar_refinement(grid, c) for c in _listed(crossings)]
    assert [p is None for p in got] == [p is None for p in want]
    assert 0 < sum(p is None for p in want) < len(want)  # some kept, some dropped
    for g, w in zip(got, want):
        if w is not None:
            assert max(abs(g[0] - w[0]), abs(g[1] - w[1])) <= 2 * XTOL, (g, w)
    kept = sorted(p for p in got if p is not None)
    assert sorted(trace_boundary(grid, "trapped-ion")) == kept


# the grid of gate c08: spacing 0.0099 halves below 1e-12 in 34 steps
GRID_C08 = GridSpec(
    xi_sq=AxisRange(0.01, 1.0, 101),
    eta_sq=AxisRange(0.01, 1.0, 101),
    k=1,
    N=4,
    phi=math.pi / 4,
)


@pytest.fixture(scope="module")
def c08_crossings():
    return _crossings(scan(GRID_C08, "trapped-ion"))


def _counting_engine(monkeypatch):
    """Record the number of points of every `squeeze_rows` call."""
    calls = []
    squeeze_rows = fansq.atlas.squeeze_rows

    def counted(k, xi_sq, N, eta_sq, ctl):
        calls.append(len(eta_sq))
        return squeeze_rows(k, xi_sq, N, eta_sq, ctl)

    monkeypatch.setattr(fansq.atlas, "squeeze_rows", counted)
    return calls


def test_lockstep_refinement_makes_one_engine_call_per_step(monkeypatch, c08_crossings):
    calls = _counting_engine(monkeypatch)
    points = _refine_crossings(GRID_C08, "trapped-ion", DEFAULT_CONTROL, c08_crossings)
    assert len(c08_crossings[0]) == 263 and sum(p is not None for p in points) == 176
    assert len(calls) <= 35 and calls[0] == 263
    assert sum(calls) <= 3000  # bisection to the same xtol evaluates 9,031 points


def test_each_crossing_refined_alone_gives_the_batch_result(monkeypatch, c08_crossings):
    batch = _refine_crossings(GRID_C08, "trapped-ion", DEFAULT_CONTROL, c08_crossings)
    calls = _counting_engine(monkeypatch)
    _, lo, hi, *_ = c08_crossings
    for i, want in enumerate(batch):
        del calls[:]
        alone = tuple(c[i : i + 1] for c in c08_crossings)
        assert _refine_crossings(GRID_C08, "trapped-ion", DEFAULT_CONTROL, alone) == [want]
        steps = len(calls) - (want is not None)  # the check call follows the steps
        assert steps <= math.ceil(math.log2((hi[i] - lo[i]) / XTOL))


def test_trace_boundary_fills_no_memo_table():
    def sizes():
        # product tables hold the Laguerre values of the scalar path too
        return (
            fansq.fanstate.product_table.cache_info().currsize,
            fansq.fanstate.normalization.cache_info().currsize,
        )

    before = sizes()
    assert trace_boundary(GRID_K1, "trapped-ion")
    assert sizes() == before


def test_trace_boundary_empty_below_threshold():
    grid = GridSpec(
        xi_sq=AxisRange(0.1, 0.9, 5),
        eta_sq=AxisRange(0.1, 0.9, 5),
        k=1,
        N=2,
        phi=math.pi / 4,
    )
    with pytest.raises(EmptyBoundary):
        trace_boundary(grid, "trapped-ion")


# ---------------------------------------------------------------------------
# intersections


def test_find_intersections_roots_satisfy_their_equation():
    result = find_intersections(0.1, 3, 12, AxisRange(0.05, 0.45, 81))
    assert len(result.roots) == 3
    assert list(result.roots) == sorted(result.roots)
    for root, kind in zip(result.roots, result.kinds):
        cfg = FanConfig.from_xi_sq(3, 0.1, TrappedIon(eta_sq=root, quantum_order=6))
        c = coefficients(cfg, 12)
        gap = c.constant - abs(c.harmonics[0])
        # transversal roots sit on a sign change; the tangential one only
        # touches, so it is pinned by the harmonic zero instead
        tol = 1e-6 if kind == "crossing" else 1e-7
        assert abs(gap) <= tol


@pytest.mark.parametrize(
    "xi_sq, k, N, eta_range",
    [(0.1, 3, 12, AxisRange(0.05, 0.45, 81)), (0.4, 1, 4, AxisRange(0.2, 0.99, 41))],
    ids=["c01", "k1-tangent-between-crossings"],
)
def test_find_intersections_roots_match_scalar_bisection(xi_sq, k, N, eta_range):
    def coeffs_at(eta_sq):
        cfg = FanConfig.from_xi_sq(k, xi_sq, TrappedIon(eta_sq=eta_sq, quantum_order=2 * k))
        return coefficients(cfg, N)

    def gap_at(eta_sq):
        c = coeffs_at(eta_sq)
        return c.constant - abs(c.harmonics[0])

    def harmonic_at(eta_sq):
        return coeffs_at(eta_sq).harmonics[0]

    result = find_intersections(xi_sq, k, N, eta_range)
    assert "tangent" in result.kinds and "crossing" in result.kinds
    nodes = eta_range.values()
    for root, kind in zip(result.roots, result.kinds):
        i = max(j for j, e in enumerate(nodes) if e < root)
        lo, hi = nodes[i], nodes[i + 1]
        if kind == "tangent":  # a harmonic flip is probed at bisection's midpoints
            assert root == bisect_root(harmonic_at, lo, hi, 1e-9)
        else:  # a gap bracket is probed by ITP, to the same width
            assert abs(root - bisect_root(gap_at, lo, hi, 1e-9)) <= 1e-9


def _failing_probes(monkeypatch, failed):
    """Fail probes `failed` of the first refinement step on the engine; record the scalar calls.

    The engine sums every call with the default control, so the grid
    converges.  Returns the probes of that step and the eta_sq of every
    scalar `coefficients` call.
    """
    probes, scalar = [], []
    squeeze_rows, coefficients = fansq.atlas.squeeze_rows, fansq.atlas.coefficients

    def engine(k, xi_sq, N, eta_sq, ctl):
        row = squeeze_rows(k, xi_sq, N, eta_sq, DEFAULT_CONTROL)
        if len(eta_sq) == 81:  # the grid
            return row
        if not probes:
            probes.extend(eta_sq.tolist())
            row.outcome[failed] = CAPPED
        return row

    def recorded(cfg, N, ctl):
        scalar.append(cfg.model.eta_sq)
        return coefficients(cfg, N, ctl)

    monkeypatch.setattr(fansq.atlas, "squeeze_rows", engine)
    monkeypatch.setattr(fansq.atlas, "coefficients", recorded)
    return probes, scalar


def test_find_intersections_raises_what_a_probe_raises(monkeypatch):
    # c01's first step has one probe per bracket; the engine fails the
    # last two, and the scalar path, summed to 2 terms, fails them too
    probes, scalar = _failing_probes(monkeypatch, [1, 2])
    ctl = SeriesControl(n_max=2)
    with pytest.raises(SeriesNotConverged) as raised:
        find_intersections(0.1, 3, 12, AxisRange(0.05, 0.45, 81), ctl)
    assert len(probes) == 3 and scalar == [probes[1]]  # the first failed probe alone
    cfg = FanConfig.from_xi_sq(3, 0.1, TrappedIon(eta_sq=probes[1], quantum_order=6))
    with pytest.raises(SeriesNotConverged) as want:
        coefficients(cfg, 12, ctl)
    assert str(raised.value) == str(want.value)
    assert "tail criterion not met after 2 terms" in str(want.value)


def test_find_intersections_names_a_probe_only_the_engine_fails(monkeypatch):
    probes, scalar = _failing_probes(monkeypatch, [1])
    with pytest.raises(FansqError, match="the row engine failed at the probe eta_sq=") as raised:
        find_intersections(0.1, 3, 12, AxisRange(0.05, 0.45, 81))
    assert type(raised.value) is FansqError
    assert scalar == [probes[1]] and repr(probes[1]) in str(raised.value)


def test_find_intersections_evaluates_every_point_on_the_engine(monkeypatch):
    # c01: one engine call for the grid, one per refinement step, one
    # for the tangent checks and one for the signs; no scalar call
    calls, steps = _counting_engine(monkeypatch), []
    refine = fansq.atlas.refine_brackets

    def counted_steps(a, b, fa, fb, evaluate, xtol):
        def step(x, rows):
            steps.append(x.size)
            return evaluate(x, rows)

        return refine(a, b, fa, fb, step, xtol)

    def no_scalar(*args):
        raise AssertionError("scalar coefficients called")

    monkeypatch.setattr(fansq.atlas, "refine_brackets", counted_steps)
    monkeypatch.setattr(fansq.atlas, "coefficients", no_scalar)
    result = find_intersections(0.1, 3, 12, AxisRange(0.05, 0.45, 81))
    assert result.kinds == ("crossing", "tangent", "crossing")
    assert steps and calls == [81, *steps, 1, 2]


def test_find_intersections_signs_record_harmonic_exchange():
    result = find_intersections(0.1, 3, 12, AxisRange(0.05, 0.45, 81))
    assert result.signs == (1, -1)


@pytest.mark.parametrize(
    "gaps",
    [(1.0, 0.0, -1.0), (-1.0, 0.0, 1.0), (1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)],
)
def test_find_intersections_reports_an_exact_zero_gap_once(monkeypatch, gaps):
    eta_range = AxisRange(0.1, 0.1 * len(gaps), len(gaps))
    gap_at = dict(zip(eta_range.values(), gaps))

    def fake(cfg, N, ctl):  # constant - |harmonic| is the tabulated gap
        return SqueezeCoeffs(cfg.k, N, 1.0 + gap_at[cfg.model.eta_sq], (1.0,))

    def fake_rows(k, xi_sq, N, eta_sq, ctl):  # the grid nodes
        nodes = [
            fake(FanConfig.from_xi_sq(k, x, TrappedIon(e, 2 * k)), N, ctl)
            for x, e in zip(xi_sq, eta_sq.tolist())
        ]
        constant = np.array([c.constant for c in nodes])
        harmonics = (np.array([c.harmonics[0] for c in nodes]),)
        return SqueezeRow(k, N, constant, harmonics, np.full(len(nodes), STOPPED))

    monkeypatch.setattr(fansq.atlas, "squeeze_rows", fake_rows)
    result = find_intersections(0.1, 1, 4, eta_range)
    zero = eta_range.values()[gaps.index(0.0)]
    assert result.roots == (zero,)
    assert result.kinds == ("crossing",)


@pytest.mark.parametrize("xi_sq", [0.0, -0.1, math.nan, math.inf, True])
def test_find_intersections_rejects_a_vacuum_or_invalid_drive(xi_sq):
    # at xi = 0 the gap is 0 at every node; True passed as 1.0
    with pytest.raises(DomainError, match="xi_sq must be a finite float > 0"):
        find_intersections(xi_sq, 3, 12, AxisRange(0.05, 0.45, 11))


@pytest.mark.parametrize(
    "k, N, words",
    [
        (1.0, 4, "fan order k must be a positive integer"),
        (True, 4, "fan order k must be a positive integer"),
        (1, 4.0, "moment order must be a positive integer"),
        (2, 5, "moment order must be even"),
    ],
    ids=["k-float", "k-bool", "N-float", "N-odd"],
)
def test_find_intersections_checks_k_and_N_before_the_threshold(k, N, words):
    # k = 1.0 was blamed on the quantum order of the first model built
    with pytest.raises(DomainError, match=words):
        find_intersections(0.5, k, N, AxisRange(0.05, 0.45, 11))


def test_find_intersections_rejects_below_threshold():
    with pytest.raises(DomainError):
        find_intersections(0.1, 3, 8, AxisRange(0.05, 0.45, 11))


# ---------------------------------------------------------------------------
# polar profiles


def test_polar_profile_vacuum_circle():
    profile = polar_profile(FanConfig(k=1, xi=0.0, model=Identity()), 4, 32)
    assert profile.benchmark == 0.75
    for _, s, raw in profile.points:
        assert s == 0.0
        assert raw == 0.75


def test_polar_profile_minimum_sample_count():
    with pytest.raises(DomainError):
        polar_profile(FanConfig.from_xi_sq(3, 0.1, Identity()), 12, 23)
    # 8.5 raised TypeError from range()
    for samples in (8.5, 24.0, True):
        with pytest.raises(DomainError, match="samples must be a positive integer"):
            polar_profile(FanConfig.from_xi_sq(3, 0.1, Identity()), 12, samples)


def test_polar_profile_twelve_winged_flower():
    cfg = FanConfig.from_xi_sq(3, 0.1, TrappedIon(eta_sq=0.2, quantum_order=6))
    profile = polar_profile(cfg, 12, 240)
    phis = [p for p, _, _ in profile.points]
    values = [s for _, s, _ in profile.points]

    # periodicity pi/6: 240 samples over 2 pi puts the shift at 20 indices
    for i in range(220):
        assert values[i] == pytest.approx(values[i + 20], abs=1e-10)

    # global minimum lands on an odd multiple of pi/12 (sample index 10 + 20n)
    i_min = min(range(len(values)), key=values.__getitem__)
    assert i_min % 20 == 10
    assert values[i_min] < 0
    assert phis[i_min] == pytest.approx((2 * (i_min // 20) + 1) * math.pi / 12, rel=1e-12)

    # raw moment = squeeze + benchmark everywhere
    bench = vacuum_benchmark(12)
    for _, s, raw in profile.points:
        assert raw == pytest.approx(s + bench, rel=1e-15)
