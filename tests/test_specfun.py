"""Special-function layer: Laguerre recurrence and the Laguerre lists of the
product tables, factorial tables, and the interference factor and SignedLog
arithmetic of the test references."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fansq.rows as rows_module
from fansq.fanstate import ProductTable, TrappedIon
from fansq.rows import LaguerreRows
from fansq.specfun import (
    _LogFactorialTable,
    _grow_laguerre_pair,
    double_factorial,
    log_factorial,
    log_factorials,
)
from laguerre_ref import grow_laguerre, laguerre
from log_factorial_ref import log_factorial_table
from signed_log_ref import SL_ONE, SL_ZERO, SignedLog, div, mul, pow_int, signed_log, to_real
from test_series_loop import interference_factor

finite = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e300, max_value=1e300
)


# ---------------------------------------------------------------------------
# Laguerre polynomials


@pytest.mark.parametrize(
    "n, m, x, expected",
    [
        (0, 5, 0.37, 1.0),
        (1, 0, 0.2, 0.8),  # 1 - x
        (2, 1, 1.0, 0.5),  # 3 - 3x + x^2/2
    ],
)
def test_laguerre_low_degree_closed_forms(n, m, x, expected):
    assert laguerre(n, m, x) == pytest.approx(expected, rel=1e-15)


_LAGUERRE_DEGREES = 26  # n in [0, 26) for m in [0, 11) and x = 0, 0.1, ..., 2
# common denominator of x^i / i! for every tenth x and every i < 26
_LAGUERRE_DENOM = 10 ** (_LAGUERRE_DEGREES - 1) * math.factorial(_LAGUERRE_DEGREES - 1)


def _scaled_powers(x: Fraction) -> list[int]:
    """The integers _LAGUERRE_DENOM * x^i / i! for i < 26, exactly."""
    scaled = [_LAGUERRE_DENOM * x**i / math.factorial(i) for i in range(_LAGUERRE_DEGREES)]
    assert all(t.denominator == 1 for t in scaled)
    return [t.numerator for t in scaled]


def _laguerre_exact(n: int, m: int, scaled_powers: list[int]) -> Fraction:
    # explicit polynomial sum, exact integer arithmetic over one denominator
    total = sum((-1) ** i * math.comb(n + m, n - i) * scaled_powers[i] for i in range(n + 1))
    return Fraction(total, _LAGUERRE_DENOM)


def test_laguerre_recurrence_matches_explicit_sum():
    worst = 0.0
    for tenth_x in range(0, 21):
        x = Fraction(tenth_x, 10)
        scaled_powers = _scaled_powers(x)
        for n in range(0, _LAGUERRE_DEGREES):
            for m in range(0, 11):
                ref = _laguerre_exact(n, m, scaled_powers)
                got = laguerre(n, m, float(x))
                if ref == 0:
                    assert abs(got) <= 1e-10
                else:
                    worst = max(worst, abs(got - float(ref)) / abs(float(ref)))
    assert worst <= 1e-10


def test_laguerre_matches_scipy():
    eval_genlaguerre = pytest.importorskip("scipy.special").eval_genlaguerre
    for n in (3, 12, 25):
        for m in (0, 4, 10):
            for x in (0.05, 0.7, 1.9):
                assert laguerre(n, m, x) == pytest.approx(
                    float(eval_genlaguerre(n, m, x)), rel=1e-9
                )


def test_laguerre_rejects_negative_indices():
    with pytest.raises(ValueError):
        laguerre(-1, 0, 0.5)
    with pytest.raises(ValueError):
        laguerre(2, -3, 0.5)


def _table(K: int, x: float) -> ProductTable:
    """A trapped-ion product table: it holds L_j^0(x) and L_j^K(x)."""
    return ProductTable(TrappedIon(eta_sq=x, quantum_order=K))


def test_laguerre_table_matches_direct_evaluation():
    tab = _table(2, 0.3)
    # ask out of order to exercise incremental growth
    for n in (7, 0, 3, 40, 12):
        den, num = tab.laguerre(n)
        assert den.shape == num.shape == (n + 1,)
        assert den[n] == pytest.approx(laguerre(n, 0, 0.3), rel=1e-13)
        assert num[n] == pytest.approx(laguerre(n, 2, 0.3), rel=1e-13)
    assert [a.size for a in tab.laguerre(-1)] == [0, 0]


def test_laguerre_table_grown_in_one_step_equals_grown_degree_by_degree():
    for K, x in ((2, 0.3), (2, 2 - math.sqrt(2)), (6, 0.97)):
        one_step = _table(K, x)
        want = [a.tolist() for a in one_step.laguerre(300)]
        by_degree = _table(K, x)
        for n in range(301):
            den, num = by_degree.laguerre(n)
            assert (den[n], num[n]) == (want[0][n], want[1][n])
        assert [a.tolist() for a in by_degree.laguerre(300)] == want
        assert want[0][300] == laguerre(300, 0, x) and want[1][300] == laguerre(300, K, x)


@pytest.mark.parametrize("points", [1, 2, 4, 5, 40])
def test_laguerre_rows_hold_the_table_values_bit_for_bit(points):
    # points near the L_2^0 and L_4^0 poles, where the floor test is decided
    xs = [2 - math.sqrt(2), 0.3225476896193923, 0.2, 0.97, 1e-9] * 8
    for K in (2, 4, 6):
        rows = LaguerreRows(K, np.array(xs[:points]))
        for n in (0, 1, 7, 8, 90):  # grown in steps, as the lattice grows
            got = rows.upto(n)
            assert got.shape == (n + 1, 2 * points)
        for r, x in enumerate(xs[:points]):
            den, num = _table(K, x).laguerre(90)
            assert got[:, r].tolist() == den.tolist()
            assert got[:, points + r].tolist() == num.tolist()


@settings(max_examples=20, deadline=None)
@given(data=st.data(), points=st.integers(min_value=7, max_value=20), K=st.integers(1, 7))
def test_laguerre_rows_grown_in_uneven_steps_equal_one_shot_and_the_scalar_loop(data, points, K):
    assert 2 * points > rows_module._FEW_PAIRS  # the numpy step, from start > 1 after upto(2)
    x = np.array(data.draw(st.lists(st.floats(0.0, 50.0), min_size=points, max_size=points)))
    stepped = LaguerreRows(K, x)
    for n in (0, 1, 2, 37, 300):
        got = stepped.upto(n)
        assert got.shape == (n + 1, 2 * points)
    assert got.tobytes() == LaguerreRows(K, x).upto(300).tobytes()
    for r, x_r in enumerate(x.tolist()):
        for m, col in ((0, r), (K, points + r)):
            vals = [1.0]
            grow_laguerre(vals, m, x_r, 300)
            assert np.array(vals).tobytes() == got[:, col].tobytes()


@settings(max_examples=40, deadline=None)
@given(
    K=st.integers(0, 12),
    x=st.floats(0.0, 50.0),
    steps=st.lists(st.integers(0, 400), min_size=1, max_size=6),
)
def test_the_pair_loop_equals_one_loop_per_order_grown_in_uneven_steps(K, x, steps):
    den, num = [1.0], [1.0]
    for n in steps:  # a step below the held degree adds nothing
        _grow_laguerre_pair(den, num, K, x, n)
    assert len(den) == len(num) == max(steps) + 1
    for m, got in ((0, den), (K, num)):
        want = [1.0]
        grow_laguerre(want, m, x, max(steps))
        assert np.array(got).tobytes() == np.array(want).tobytes()


# ---------------------------------------------------------------------------
# factorials


def test_log_factorial_small_values_exact():
    assert log_factorial(0) == 0.0
    assert log_factorial(1) == 0.0
    assert log_factorial(5) == pytest.approx(math.log(120), rel=1e-15)


def test_log_factorial_against_lgamma():
    for n in (10, 47, 300, 2000):
        assert log_factorial(n) == pytest.approx(math.lgamma(n + 1), rel=1e-13)


def test_log_factorial_array_holds_the_table_values():
    for n in (0, 1, 7, 40, 3000):
        arr = log_factorials(n)
        assert arr.size == n + 1
        assert arr.tolist() == [log_factorial(i) for i in range(n + 1)]
        assert not arr.flags.writeable


def test_log_factorial_table_grown_in_one_step_equals_grown_index_by_index():
    one_step = _LogFactorialTable()
    one_step(3000)
    by_index = _LogFactorialTable()
    values = [by_index(n) for n in range(3001)]
    assert values == [one_step(n) for n in range(3001)]
    assert values == [log_factorial(n) for n in range(3001)]


_LOG_FACTORIAL_REF = log_factorial_table(100_000)  # `upto` may double past the last step


@settings(max_examples=25, deadline=None)
@given(
    steps=st.lists(
        st.tuples(st.integers(min_value=0, max_value=5_000), st.booleans()), min_size=1, max_size=8
    )
)
def test_log_factorial_table_grown_in_uneven_steps_holds_the_loops_bits(steps):
    # each step asks for entry n or for the array up to n; the last goes past 20,000
    table = _LogFactorialTable()
    n = 0
    for i, (step, as_array) in enumerate(steps):
        n = max(n + step, 20_001) if i == len(steps) - 1 else n + step
        if as_array:
            got = table.upto(n)
            assert got.tobytes() == np.array(_LOG_FACTORIAL_REF[: n + 1]).tobytes()
        else:
            assert table(n) == _LOG_FACTORIAL_REF[n]
        held = table.live(0)
        assert np.array(held).tobytes() == np.array(_LOG_FACTORIAL_REF[: len(held)]).tobytes()
    assert len(table.live(0)) > 20_000


def test_log_factorial_negative_rejected():
    with pytest.raises(ValueError):
        log_factorial(-1)


@pytest.mark.parametrize(
    "n, expected",
    [(-1, 1), (0, 1), (1, 1), (2, 2), (3, 3), (5, 15), (7, 105), (15, 2027025)],
)
def test_double_factorial_values(n, expected):
    assert double_factorial(n) == expected


def test_double_factorial_below_minus_one_rejected():
    with pytest.raises(ValueError):
        double_factorial(-2)


# ---------------------------------------------------------------------------
# interference factor of the generator reference (tests/test_series_loop.py)


@pytest.mark.parametrize("k, n, expected", [(1, 0, 2), (3, 5, 0), (2, 4, 4)])
def test_interference_factor_examples(k, n, expected):
    assert interference_factor(k, n) == expected


def test_interference_factor_product_identity():
    # j(n) j(n + n') collapses to 2k^2 (1 + (-1)^n) for even offsets
    for k in range(1, 6):
        for n in range(-20, 21):
            for off in range(-20, 21):
                prod = interference_factor(k, n) * interference_factor(k, n + off)
                if off % 2 != 0:
                    assert prod == 0
                else:
                    assert prod == 2 * k * k * (1 + (-1) ** n)


def test_interference_factor_bad_order():
    with pytest.raises(ValueError):
        interference_factor(0, 2)


# ---------------------------------------------------------------------------
# SignedLog arithmetic of the test references (tests/signed_log_ref.py)


@given(finite)
def test_signed_log_roundtrip(x):
    back = to_real(signed_log(x))
    assert back == pytest.approx(x, rel=1e-12, abs=1e-300)


def test_signed_log_zero():
    assert signed_log(0.0) == SL_ZERO
    assert to_real(SL_ZERO) == 0.0
    assert mul(SL_ZERO, SignedLog(-1, 5.0)).sign == 0


nonzero = finite.filter(lambda x: abs(x) > 1e-280)


@given(nonzero, nonzero)
def test_signed_log_mul_matches_float_product(a, b):
    got = mul(signed_log(a), signed_log(b))
    want = a * b
    if math.isinf(want) or want == 0.0:
        return  # float over/underflow, exactly what SignedLog exists to avoid
    assert got.sign == math.copysign(1, want)
    assert to_real(got) == pytest.approx(want, rel=1e-12)


@given(nonzero, nonzero, nonzero)
def test_signed_log_mul_associative_commutative(a, b, c):
    sa, sb, sc = signed_log(a), signed_log(b), signed_log(c)
    left = mul(mul(sa, sb), sc)
    right = mul(sa, mul(sb, sc))
    assert left.sign == right.sign == mul(mul(sa, sc), sb).sign
    assert left.logmag == pytest.approx(right.logmag, abs=1e-12)
    assert mul(sa, sb) == mul(sb, sa)


def test_signed_log_pow_conventions():
    assert pow_int(SL_ZERO, 0) == SL_ONE  # 0^0 = 1 keeps xi = 0 in the series
    assert pow_int(SL_ZERO, 3) == SL_ZERO
    v = signed_log(-2.0)
    assert pow_int(v, 3).sign == -1
    assert pow_int(v, 4).sign == 1
    assert to_real(pow_int(v, 4)) == pytest.approx(16.0, rel=1e-14)
    with pytest.raises(ZeroDivisionError):
        pow_int(SL_ZERO, -1)


def test_signed_log_div():
    assert to_real(div(signed_log(6.0), signed_log(-2.0))) == pytest.approx(-3.0)
    assert div(SL_ZERO, SL_ONE) == SL_ZERO
    with pytest.raises(ZeroDivisionError):
        div(SL_ONE, SL_ZERO)


def test_signed_log_handles_magnitudes_beyond_float_range():
    big = SignedLog(1, 800.0)  # e^800 overflows a double
    ratio = div(mul(big, big), SignedLog(1, 1590.0))
    assert to_real(ratio) == pytest.approx(math.exp(10.0), rel=1e-12)
