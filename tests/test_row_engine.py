"""The row engine against the scalar path, and the guards that keep both honest.

`coefficients_row` sums every series of a row of points, each with its
own model, in one numpy term block; `coefficients` sums one point at a
time.  The two must give the same status at every node and the same
squeeze parameter up to rounding.
"""

import math
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fansq
from fansq.errors import DomainError, SeriesNotConverged, SingularNonlinearity
from fansq.fanstate import (
    DEFAULT_CONTROL,
    FanConfig,
    Identity,
    SeriesControl,
    TrappedIon,
    moment,
    moment_row,
)
from fansq.squeeze import (
    SqueezeCoeffs,
    coefficients,
    coefficients_row,
    squeeze_parameter,
    vacuum_benchmark,
)
from laguerre_ref import laguerre

XI_SQ = [0.0, 0.02, 0.15, 0.4, 0.7, 1.0, 1.6]


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
    row = coefficients_row(k, xi_sq, models, N, ctl)
    assert len(row) == len(xi_sq)
    bench = vacuum_benchmark(N)
    names = []
    for x, model, got in zip(xi_sq, models, row):
        want = _scalar_node(k, x, model, N, ctl)
        assert type(got) is type(want), (x, got, want)
        if isinstance(want, SqueezeCoeffs):
            assert len(got.harmonics) == len(want.harmonics)
            for phi in (0.0, math.pi / (8 * k), math.pi / (4 * k), 0.3):
                s_want = squeeze_parameter(want, phi)
                s_got = squeeze_parameter(got, phi)
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
        (c,) = coefficients_row(1, [0.0], [model], 8)
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


def test_row_crossing_a_laguerre_pole():
    # for k = 1 the product at Fock argument 22 divides by L_20^0(eta_sq):
    # small xi stop before they need it, large xi run into the pole
    eta_sq = _smallest_root(20)
    assert abs(laguerre(20, 0, eta_sq)) < DEFAULT_CONTROL.laguerre_floor
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


@pytest.mark.parametrize("run", [2, 3, 4])
def test_consecutive_small_settings(run):
    ctl = SeriesControl(consecutive_small=run)
    for kind, k in (("trapped-ion", 1), ("trapped-ion", 2), ("identity", 3)):
        assert_row_matches(k, XI_SQ, _model(kind, k, 0.6), 4 * k + 4, ctl)


def _same_node(a, b):
    if isinstance(a, SqueezeCoeffs):
        return a == b  # exact: every float bit for bit
    return type(a) is type(b)


def test_node_value_does_not_depend_on_its_row():
    model = _model("trapped-ion", 1, 0.95)
    xi_sq = [0.05 * i for i in range(21)] + [1.7]
    full = coefficients_row(1, xi_sq, [model] * len(xi_sq), 8)
    for j, x in enumerate(xi_sq):
        (alone,) = coefficients_row(1, [x], [model], 8)
        assert _same_node(alone, full[j]), x
    reversed_row = coefficients_row(1, xi_sq[::-1], [model] * len(xi_sq), 8)[::-1]
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
    full = coefficients_row(k, xi_sq, models, N)
    for j, (x, model) in enumerate(zip(xi_sq, models)):
        (alone,) = coefficients_row(k, [x], [model], N)
        assert _same_node(alone, full[j]), (x, model)


def test_moment_row_matches_moment_for_any_pairs():
    pairs = [(0, 0), (2, 0), (0, 4), (3, 1), (5, 1), (4, 4), (6, 2)]
    xi = [0.0, 0.3, 0.8, 1.1]
    for model in (Identity(), TrappedIon(eta_sq=0.25, quantum_order=2)):
        row = moment_row(1, xi, [model] * len(xi), pairs)
        assert row.errors == [None] * len(xi)
        for (l, m), values in row.values.items():
            for x, v in zip(xi, values.tolist()):
                want = moment(FanConfig(1, x, model), l, m)
                assert abs(v - want) <= 1e-13 * max(abs(want), 1e-300), (l, m, x)


def test_row_rejects_bad_inputs():
    with pytest.raises(DomainError):
        coefficients_row(1, [0.1, -0.2], [Identity()] * 2, 4)
    with pytest.raises(DomainError):
        coefficients_row(1, [0.1, math.nan], [Identity()] * 2, 4)
    with pytest.raises(DomainError):
        coefficients_row(1, [0.1, 0.2], [Identity(), TrappedIon(eta_sq=0.2, quantum_order=4)], 4)
    with pytest.raises(DomainError):
        coefficients_row(1, [0.1], [Identity()], 5)
    with pytest.raises(DomainError):
        coefficients_row(1, [0.1, 0.2], [Identity()], 4)


# ---------------------------------------------------------------------------
# series-control validation and the positivity guard


def _valid_control(rel_tol, run, floor):
    return (
        math.isfinite(rel_tol) and 0 < rel_tol < 1 and run >= 2 and math.isfinite(floor) and floor >= 0
    )


@given(
    rel_tol=st.one_of(st.floats(), st.sampled_from([1e-16, 0.5, 1.0, 2.0])),
    run=st.integers(min_value=-2, max_value=6),
    floor=st.one_of(st.floats(), st.sampled_from([0.0, 1e-12, -1e-12])),
)
def test_series_control_accepts_exactly_the_valid_settings(rel_tol, run, floor):
    if _valid_control(rel_tol, run, floor):
        ctl = SeriesControl(rel_tol=rel_tol, consecutive_small=run, laguerre_floor=floor)
        assert ctl.consecutive_small == run
    else:
        with pytest.raises(DomainError):
            SeriesControl(rel_tol=rel_tol, consecutive_small=run, laguerre_floor=floor)


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
