"""Harmonic decomposition of the Nth-order squeeze parameter, benchmark
values, small-xi limits, and direction classification."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fansq import squeeze
from fansq.errors import DomainError, FansqError
from fansq.fanstate import FanConfig, Identity, TrappedIon, moment
from fansq.specfun import double_factorial
from fansq.squeeze import (
    Regime,
    SqueezeCoeffs,
    classify_directions,
    coefficients,
    leading_order_squeeze,
    leading_order_terms,
    min_order,
    squeeze_approx,
    squeeze_parameter,
    vacuum_benchmark,
)
from stationary_ref import stationary_values as ref_stationary_values

CFG_ID = FanConfig.from_xi_sq(1, 0.5, Identity())
CFG_FAN3 = FanConfig.from_xi_sq(3, 0.1, TrappedIon(eta_sq=0.2, quantum_order=6))


# ---------------------------------------------------------------------------
# benchmark


@pytest.mark.parametrize("N, expected", [(2, 0.5), (4, 0.75), (6, 15 / 8)])
def test_vacuum_benchmark_values(N, expected):
    assert vacuum_benchmark(N) == expected


def test_vacuum_benchmark_exact_up_to_sixteen():
    for N in range(2, 17, 2):
        ref = Fraction(double_factorial(N - 1), 2 ** (N // 2))
        assert vacuum_benchmark(N) == float(ref)


def test_vacuum_benchmark_rejects_odd_or_small():
    with pytest.raises(DomainError):
        vacuum_benchmark(3)
    with pytest.raises(DomainError):
        vacuum_benchmark(0)
    with pytest.raises(DomainError):
        vacuum_benchmark(4.0)


def test_min_order():
    assert min_order(1) == 4
    assert min_order(2) == 8
    assert min_order(3) == 12
    with pytest.raises(DomainError):
        min_order(0)


@pytest.mark.parametrize("k", [1.5, 1.0, True, math.nan])
def test_min_order_rejects_a_fan_order_that_is_not_an_int(k):
    # 1.5 gave 6.0 and True gave 4
    with pytest.raises(DomainError, match="fan order k must be a positive integer"):
        min_order(k)


# ---------------------------------------------------------------------------
# coefficients


def test_coefficients_vanish_at_zero_xi():
    c = coefficients(FanConfig(k=1, xi=0.0, model=Identity()), 8)
    assert c.constant == 0.0
    assert c.harmonics == (0.0, 0.0)


def test_coefficients_reduce_to_closed_form_for_lowest_order():
    # k=1, N=4 collapses to 1.5 (2 <n> + <a+a+aa>) and <a^4>/2
    for cfg in (CFG_ID, FanConfig.from_xi_sq(1, 0.3, TrappedIon(eta_sq=0.3, quantum_order=2))):
        c = coefficients(cfg, 4)
        want_const = 1.5 * (2 * moment(cfg, 1, 1) + moment(cfg, 2, 2))
        want_b1 = moment(cfg, 4, 0) / 2
        assert c.constant == pytest.approx(want_const, rel=1e-13)
        assert c.harmonics[0] == pytest.approx(want_b1, rel=1e-13)


def test_coefficients_harmonic_count():
    assert coefficients(CFG_FAN3, 8).harmonics == ()  # below threshold
    assert len(coefficients(CFG_FAN3, 12).harmonics) == 1
    assert len(coefficients(CFG_ID, 12).harmonics) == 3
    assert len(coefficients(CFG_ID, 4).harmonics) == 1


def test_coefficients_constant_positive_for_nonzero_xi():
    for cfg in (
        CFG_ID,
        CFG_FAN3,
        FanConfig.from_xi_sq(2, 0.05, Identity()),
        FanConfig.from_xi_sq(1, 0.7, TrappedIon(eta_sq=0.6, quantum_order=2)),
    ):
        for N in (min_order(cfg.k), min_order(cfg.k) + 4):
            assert coefficients(cfg, N).constant > 0.0


def test_coefficients_rejects_odd_order():
    with pytest.raises(DomainError):
        coefficients(CFG_ID, 5)


@pytest.mark.parametrize("N", [4.0, 8.0])
def test_coefficients_checks_an_order_equal_to_a_cached_one(N):
    # 4.0 hashes and compares as 4: an untyped memo returned the result for the int
    coefficients(CFG_ID, int(N))
    with pytest.raises(DomainError, match="moment order must be a positive integer"):
        coefficients(CFG_ID, N)


# ---------------------------------------------------------------------------
# evaluation


def test_squeeze_parameter_is_the_cosine_sum():
    c = SqueezeCoeffs(k=2, N=8, constant=0.3, harmonics=(-0.1,))
    for phi in (0.0, 0.17, 1.2):
        assert squeeze_parameter(c, phi) == pytest.approx(
            0.3 - 0.1 * math.cos(8 * phi), rel=1e-15
        )


@pytest.mark.parametrize(
    "k, N, words",
    [
        (0, 4, "fan order k must be a positive integer"),
        (True, 4, "fan order k must be a positive integer"),
        (1.0, 4, "fan order k must be a positive integer"),
        (1, 5, "moment order must be even"),
        (1, 4.0, "moment order must be a positive integer"),
    ],
    ids=["k-zero", "k-bool", "k-float", "N-odd", "N-float"],
)
def test_squeeze_coeffs_checks_k_and_N(k, N, words):
    # k = 0 reached a ZeroDivisionError in classify_directions, and
    # k = True evaluated as k = 1
    with pytest.raises(DomainError, match=words):
        SqueezeCoeffs(k=k, N=N, constant=0.3, harmonics=(-0.1,))


def test_squeeze_parameter_zero_state():
    c = coefficients(FanConfig(k=1, xi=0.0, model=Identity()), 4)
    assert squeeze_parameter(c, 0.3) == 0.0


def test_squeeze_parameter_guards_moment_positivity_bound():
    fake = SqueezeCoeffs(k=1, N=4, constant=-10.0, harmonics=(0.0,))
    with pytest.raises(FansqError):
        squeeze_parameter(fake, 0.0)


@pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf, True])
def test_squeeze_parameter_rejects_a_non_finite_phase(phi):
    # the single-point helpers take the same rule; squeeze_approx gave NaN
    c = SqueezeCoeffs(k=1, N=4, constant=0.3, harmonics=(-0.1,))
    with pytest.raises(DomainError, match="phase must be a finite float"):
        squeeze_parameter(c, phi)
    with pytest.raises(DomainError, match="phase must be a finite float"):
        squeeze_approx(c, phi)
    with pytest.raises(DomainError, match="phase must be a finite float"):
        leading_order_squeeze(1, 4, 0.3, phi)


@given(st.floats(min_value=-10.0, max_value=10.0, allow_nan=False))
def test_squeeze_parameter_periodic_and_even(phi):
    c = coefficients(FanConfig.from_xi_sq(1, 0.4, Identity()), 12)  # three harmonics
    period = math.pi / (2 * c.k)
    s0 = squeeze_parameter(c, phi)
    scale = max(1.0, abs(s0))
    assert abs(s0 - squeeze_parameter(c, phi + period)) <= 1e-12 * scale
    assert abs(s0 - squeeze_parameter(c, -phi)) <= 1e-12 * scale


def test_squeeze_parameter_known_negative_point():
    # pinned regression value for the lowest-order identity case
    c = coefficients(CFG_ID, 4)
    assert squeeze_parameter(c, math.pi / 4) == pytest.approx(
        -0.047067493497009574, rel=1e-10
    )


# ---------------------------------------------------------------------------
# single-harmonic truncation


def test_squeeze_approx_identical_when_one_harmonic():
    c = coefficients(CFG_ID, 4)
    for phi in (0.0, 0.4, 1.1):
        approx = squeeze_approx(c, phi)
        assert approx.value == squeeze_parameter(c, phi)
        assert approx.dominance == 0.0


def test_squeeze_approx_constant_when_no_harmonics():
    c = coefficients(CFG_FAN3, 8)
    assert c.harmonics == ()
    r = squeeze_approx(c, 0.9)
    assert r.value == c.constant
    assert r.dominance == 0.0


def test_squeeze_approx_dominance_small_for_fan3():
    r = squeeze_approx(coefficients(CFG_FAN3, 12), 0.0)
    assert r.dominance < 0.1


def test_squeeze_approx_dominance_reflects_higher_harmonics():
    c = coefficients(FanConfig.from_xi_sq(1, 0.1, Identity()), 8)  # two harmonics
    assert len(c.harmonics) == 2
    want = abs(c.harmonics[1]) / abs(c.harmonics[0])
    assert squeeze_approx(c, 0.2).dominance == pytest.approx(want, rel=1e-15)
    assert want < 0.1


# ---------------------------------------------------------------------------
# small-xi leading order (identity model)


def test_leading_order_terms_zero_at_zero_xi():
    t = leading_order_terms(1, 4, 0.0)
    assert t.isotropic == 0.0 and t.harmonic == 0.0


def test_leading_order_terms_closed_form_lowest_order():
    xi = 0.1
    t = leading_order_terms(1, 4, xi)
    assert t.harmonic == pytest.approx(xi**4 / 3, rel=1e-12)
    assert t.isotropic == pytest.approx(5 * xi**8 / 6, rel=1e-12)


def test_leading_order_harmonic_dominates_small_xi():
    for xi in (1e-1, 1e-2, 1e-3):
        t = leading_order_terms(1, 4, xi)
        assert t.harmonic > t.isotropic > 0.0
        t2 = leading_order_terms(2, 8, xi)
        assert t2.harmonic > t2.isotropic > 0.0


def test_leading_order_rejects_below_threshold():
    with pytest.raises(DomainError):
        leading_order_terms(2, 4, 0.1)
    with pytest.raises(DomainError):
        leading_order_squeeze(3, 8, 0.1, 0.0)


@pytest.mark.parametrize("k, N", [(1, 4.0), (1, 6.0), (1.0, 4), (True, 4)])
def test_leading_order_rejects_an_order_that_is_not_an_int(k, N):
    # a float order raised TypeError from math.factorial
    words = "moment order must be a positive integer"
    if type(k) is not int:
        words = "fan order k must be a positive integer"
    with pytest.raises(DomainError, match=words):
        leading_order_terms(k, N, 0.3)
    with pytest.raises(DomainError, match=words):
        leading_order_squeeze(k, N, 0.3, 0.0)


@pytest.mark.parametrize("xi", [-1.0, math.nan, math.inf, -math.inf, True])
def test_leading_order_rejects_a_xi_that_is_not_a_finite_float_at_least_0(xi):
    # -1.0 and True passed, NaN gave NaN terms
    with pytest.raises(DomainError, match="xi must be a finite float >= 0"):
        leading_order_terms(1, 4, xi)
    with pytest.raises(DomainError, match="xi must be a finite float >= 0"):
        leading_order_squeeze(1, 4, xi, 0.0)


@pytest.mark.parametrize("k, xi_sq", [(1, 0.01), (1, 0.004), (2, 0.09)])
def test_leading_order_matches_full_sum_at_small_xi(k, xi_sq):
    N = 4 * k
    cfg = FanConfig.from_xi_sq(k, xi_sq, Identity())
    c = coefficients(cfg, N)
    for phi in (0.0, math.pi / (4 * k)):
        full = squeeze_parameter(c, phi)
        lead = leading_order_squeeze(k, N, cfg.xi, phi)
        assert lead == pytest.approx(full, rel=0.01)


# ---------------------------------------------------------------------------
# direction classification


def test_directions_lowest_order_identity():
    rep = classify_directions(coefficients(CFG_ID, 4))
    assert rep.regime is Regime.LEADING_POSITIVE
    assert rep.squeeze_angles == pytest.approx((math.pi / 4, 3 * math.pi / 4), abs=1e-12)
    assert rep.stretch_angles == pytest.approx((0.0, math.pi / 2), abs=1e-12)
    assert rep.s_min < 0 < rep.s_max
    c = coefficients(CFG_ID, 4)
    assert rep.s_min == pytest.approx(squeeze_parameter(c, math.pi / 4), rel=1e-12)
    assert rep.s_max == pytest.approx(squeeze_parameter(c, 0.0), rel=1e-12)


def test_directions_exchange_between_regimes():
    c_pos = coefficients(CFG_FAN3, 12)
    rep_pos = classify_directions(c_pos)
    assert c_pos.harmonics[0] > 0
    assert rep_pos.regime is Regime.LEADING_POSITIVE
    want = tuple((1 + 2 * n) * math.pi / 12 for n in range(6))
    assert rep_pos.squeeze_angles == pytest.approx(want, abs=1e-9)

    cfg_neg = FanConfig.from_xi_sq(3, 0.1, TrappedIon(eta_sq=0.3, quantum_order=6))
    c_neg = coefficients(cfg_neg, 12)
    rep_neg = classify_directions(c_neg)
    assert c_neg.harmonics[0] < 0
    assert rep_neg.regime is Regime.LEADING_NEGATIVE
    assert rep_neg.squeeze_angles == pytest.approx(
        tuple(n * math.pi / 6 for n in range(6)), abs=1e-9
    )
    # the two regimes swap the same two angle families
    assert rep_neg.stretch_angles == pytest.approx(rep_pos.squeeze_angles, abs=1e-9)


def test_directions_no_squeezing_cases():
    # constant-only decomposition
    rep = classify_directions(coefficients(CFG_FAN3, 8))
    assert rep.regime is Regime.NO_SQUEEZING
    assert rep.squeeze_angles == () and rep.stretch_angles == ()
    assert rep.s_min == rep.s_max > 0

    # harmonic present but too weak to pull S negative
    cfg = FanConfig.from_xi_sq(3, 0.1, TrappedIon(eta_sq=0.06, quantum_order=6))
    rep2 = classify_directions(coefficients(cfg, 12))
    assert rep2.regime is Regime.NO_SQUEEZING
    assert rep2.s_min > 0


def test_directions_report_structure():
    for cfg, N in ((CFG_ID, 4), (CFG_FAN3, 12), (FanConfig.from_xi_sq(2, 0.3, Identity()), 8)):
        rep = classify_directions(coefficients(cfg, N))
        if rep.regime is Regime.NO_SQUEEZING:
            continue
        k = cfg.k
        assert len(rep.squeeze_angles) == 2 * k
        assert len(rep.stretch_angles) == 2 * k
        for a in rep.squeeze_angles + rep.stretch_angles:
            assert 0.0 <= a < math.pi
        # every stretch angle bisects its neighboring squeeze angles
        period = math.pi / (2 * k)
        for stretch in rep.stretch_angles:
            below = min((stretch - sq) % period for sq in rep.squeeze_angles)
            above = min((sq - stretch) % period for sq in rep.squeeze_angles)
            assert abs(below - above) <= 1e-9


def _dense_extremes(c, points):
    """Min and max of S on a uniform phi grid over [0, pi/4k], half a period."""
    phi = np.linspace(0.0, math.pi / (4 * c.k), points)
    s = c.constant + sum(b * np.cos(4 * p * c.k * phi) for p, b in enumerate(c.harmonics, 1))
    return float(s.min()), float(s.max())


def test_directions_find_a_maximum_next_to_a_lattice_angle():
    # S peaks at phi = 0.7401, between pi/4 and the last point of a
    # 16-point probe grid, which reported s_max 1.9e-5 low
    cfg = FanConfig.from_xi_sq(1, 0.3, TrappedIon(eta_sq=0.8223905976494124, quantum_order=2))
    c = coefficients(cfg, 8)
    rep = classify_directions(c)
    lo, hi = _dense_extremes(c, 200_001)
    assert rep.s_max == pytest.approx(hi, rel=1e-12)
    assert rep.s_min == pytest.approx(lo, rel=1e-12)


@given(
    k=st.sampled_from((1, 2, 3)),
    harmonics=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=4),
)
@example(k=1, harmonics=[-1.5589162070217832 / 9.91, -0.39620141982108875 / 9.91])
@example(k=1, harmonics=[0.5, 5e-324])  # dS/dx has a subnormal leading coefficient
def test_directions_extremes_bound_s_and_sit_at_stationary_points(k, harmonics):
    # the constant keeps S >= 0, clear of the positivity bound
    c = SqueezeCoeffs(
        k=k, N=4 * k * len(harmonics), constant=sum(map(abs, harmonics)), harmonics=tuple(harmonics)
    )
    rep = classify_directions(c)
    tol = 1e-12 * c.constant + 1e-300
    lo, hi = _dense_extremes(c, 20_001)
    assert rep.s_min <= lo + tol and hi <= rep.s_max + tol
    # reference stationary points in x = cos(4k phi): x = +-1 and the
    # real roots of the derivative of the Chebyshev series, whose top
    # coefficients at rounding level of the largest are dropped
    cheb = np.polynomial.chebyshev
    series = cheb.chebtrim([c.constant, *harmonics], 2.0**-52 * max(map(abs, harmonics)))
    roots = cheb.chebroots(cheb.chebder(series))
    xs = [1.0, -1.0] + [r.real for r in roots if abs(r.imag) <= 1e-7 and abs(r.real) <= 1.0]
    values = [squeeze_parameter(c, math.acos(x) / (4 * k)) for x in xs]
    assert min(abs(rep.s_min - v) for v in values) <= tol
    assert min(abs(rep.s_max - v) for v in values) <= tol


def _coefficient_sets(count, seed):
    """Seeded `SqueezeCoeffs` with k 1-3 and 2-4 harmonics.

    A harmonic is plain, an exact zero, within a factor 2 of +-1e+-300,
    or at rounding level of the largest of the others (near the trim of
    dS/dx).  The constant lies within a factor 1.5 of the sum of the
    magnitudes, so some sets fall below the positivity bound.
    """
    rng = np.random.default_rng(seed)
    ks, ns = rng.integers(1, 4, size=count), rng.integers(2, 5, size=count)
    kinds = rng.integers(0, 4, size=(count, 4))
    h = rng.uniform(-2.0, 2.0, size=(count, 4))
    h[kinds == 1] = 0.0
    h[kinds == 2] *= 10.0 ** rng.choice([-300.0, 300.0], size=int((kinds == 2).sum()))
    h[np.arange(4) >= ns[:, None]] = 0.0  # columns past a set's harmonics
    top = np.where(kinds == 3, 0.0, np.abs(h)).max(axis=1, keepdims=True)
    tiny = 2.0**-52 * np.where(top > 0.0, top, 1.0) * 10.0 ** rng.uniform(-1.0, 1.0, size=h.shape)
    h[kinds == 3] *= tiny[kinds == 3]
    constants = np.abs(h).sum(axis=1) * rng.uniform(0.5, 1.5, size=count)
    for k, n, row, constant in zip(ks.tolist(), ns.tolist(), h.tolist(), constants.tolist()):
        yield SqueezeCoeffs(k=k, N=4 * k * n, constant=constant, harmonics=tuple(row[:n]))


def _bits(f, *args):
    """The values of f(*args) as hex strings, or the type and words of its FansqError."""
    try:
        return [v.hex() for v in f(*args)]
    except FansqError as exc:
        return [type(exc).__name__, str(exc)]


def _extremes(c):
    rep = classify_directions(c)
    return rep.s_min, rep.s_max


def test_directions_give_the_numpy_build_bit_for_bit(monkeypatch):
    # the Python-float dS/dx and the linear root -c0/c1 give the stationary
    # values of the numpy build with np.roots at every degree, and the
    # report takes its extremes from them
    seen = []
    build = squeeze._stationary_values
    monkeypatch.setattr(squeeze, "_stationary_values", lambda c: seen.append(build(c)) or seen[-1])
    edges = [  # infinite harmonics put inf * 0 = NaN into dS/dx
        SqueezeCoeffs(k=1, N=8, constant=1.0, harmonics=(math.inf, 0.5)),
        SqueezeCoeffs(k=2, N=24, constant=1.0, harmonics=(0.5, -math.inf, 0.25)),
    ]
    for c in [*_coefficient_sets(20_000, seed=2020), *edges]:
        if not any(c.harmonics):
            continue  # flat: no stationary values are asked for
        with np.errstate(invalid="ignore"):  # numpy warns where Python floats stay silent
            ref = _bits(ref_stationary_values, c)
        rep = _bits(_extremes, c)
        if ref[0] == "FansqError":
            assert rep == ref, c
        else:
            values = [float.fromhex(v) for v in ref]
            assert [v.hex() for v in seen[-1]] == ref, c
            assert rep == [min(values).hex(), max(values).hex()], c


def test_two_harmonics_make_no_np_roots_call(monkeypatch):
    def no_roots(p):
        raise AssertionError(f"np.roots called on {p}")

    monkeypatch.setattr(squeeze.np, "roots", no_roots)
    for c in _coefficient_sets(2_000, seed=7):
        if len(c.harmonics) == 2:
            _bits(squeeze._stationary_values, c)
    for cfg in (CFG_ID, FanConfig.from_xi_sq(1, 0.3, TrappedIon(eta_sq=0.8223905976494124, quantum_order=2))):
        classify_directions(coefficients(cfg, 8))  # k = 1, N = 8: two harmonics
    with pytest.raises(AssertionError, match="np.roots called"):
        classify_directions(coefficients(CFG_ID, 12))  # three harmonics
