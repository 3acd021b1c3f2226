"""The single-point series loop against the generator path it replaced.

`normalization` and `moment` sum their series in one loop over the
product table of the model.  The reference below is the earlier form
of the same sums: a generator of terms per series, built from
`ref_nonlinearity_value` products and `SignedLog` powers, and a separate
Neumaier summation with the stop rule.  The two must agree bit for bit,
errors included (type, message and Fock index).
"""

import math
from typing import Iterator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fansq.fanstate as fanstate
from fansq.errors import DomainError, FansqError, SeriesNotConverged, SingularNonlinearity
from fansq.fanstate import (
    DEFAULT_CONTROL,
    FanConfig,
    Identity,
    SeriesControl,
    TrappedIon,
    moment,
    normalization,
    product_table,
)
from fansq.fockoracle import (
    FockVector,
    eigen_residual,
    fock_coefficients,
    nonlinearity_values,
    oracle_vector,
)
from fansq.rows import CAPPED, STOPPED
from fansq.specfun import log_factorial
from fansq.squeeze import coefficients
from laguerre_ref import laguerre
from row_engine_ref import moment_rows
from signed_log_ref import SL_ONE, mul, pow_int, ref_nonlinearity_value, signed_log, to_real

_LOG_HUGE = 700.0

# ---------------------------------------------------------------------------
# reference: the generator path

_ref_products: dict = {}


def interference_factor(k: int, n: int) -> int:
    """Closed form of the 2k-armed phase sum: 2k for even n, 0 for odd n.

    Summing the complex exponentials directly would leave spurious
    imaginary residue; the closed form is exact.
    """
    if k < 1:
        raise ValueError(f"fan order must be >= 1, got {k}")
    return 2 * k if n % 2 == 0 else 0


def ref_product(model, p, step):
    """f(p) f(p - step) ... f(step), multiplied up one SignedLog at a time."""
    if p < step:
        return SL_ONE
    lst = _ref_products.setdefault((model, step), [SL_ONE])
    while len(lst) <= p // step:
        i = len(lst)
        factor = ref_nonlinearity_value(model, i * step)
        if factor.sign == 0:
            raise SingularNonlinearity(
                f"nonlinearity vanishes exactly at Fock argument {i * step}; "
                "downstream amplitude ratios are undefined",
                index=i * step,
            )
        lst.append(mul(lst[-1], factor))
    return lst[p // step]


def ref_sum_series(terms: Iterator[float], ctl: SeriesControl, what: str) -> float:
    """Neumaier sum to the third successive term below rel_tol times the sum, zeros included."""
    s = c = 0.0
    small = 0
    count = 0
    for t in terms:
        count += 1
        u = s + t
        c += (s - u) + t if abs(s) >= abs(t) else (t - u) + s
        s = u
        if abs(t) <= ctl.rel_tol * abs(s + c):
            small += 1
            if small >= 3:
                return s + c
        else:
            small = 0
        if count >= ctl.n_max:
            raise SeriesNotConverged(f"{what}: tail criterion not met after {ctl.n_max} terms")
    return s + c


def ref_diverges(cfg, what):
    """Raise for a trapped-ion series at rho = xi^2 eta^2 >= 1, where it diverges."""
    if isinstance(cfg.model, TrappedIon):
        rho = cfg.xi_sq * cfg.model.eta_sq
        if rho >= 1:
            words = f"the series diverges at rho = xi^2 eta^2 = {rho} >= 1"
            raise SeriesNotConverged(f"{what}: {words}")


def ref_normalization(cfg, ctl=DEFAULT_CONTROL):
    k = cfg.k
    if cfg.xi == 0.0:  # the vacuum: the leading term alone, as in `ref_moment`
        return float(4 * k * k)
    what = f"normalization k={k} xi={cfg.xi}"
    ref_diverges(cfg, what)
    step = 2 * k
    xi_sl = signed_log(cfg.xi)

    def terms():
        yield float(4 * k * k)
        m = 1
        while True:
            jf = interference_factor(k, m)
            if jf == 0:
                yield 0.0
            else:
                prod = ref_product(cfg.model, step * m, step)
                t = pow_int(xi_sl, 4 * k * m)
                logmag = t.logmag + 2 * math.log(jf) - log_factorial(step * m) - 2 * prod.logmag
                if t.sign == 0:
                    yield 0.0
                elif logmag > _LOG_HUGE:
                    raise SeriesNotConverged(f"normalization term at index {m} exceeds float range")
                else:
                    yield math.exp(logmag)
            m += 1

    return ref_sum_series(terms(), ctl, what)


def ref_moment(cfg, l, m, ctl=DEFAULT_CONTROL):
    if l < m:
        l, m = m, l
    k = cfg.k
    step = 2 * k
    diff = l - m
    if diff % step != 0 or (diff // step) % 2 != 0:
        return 0.0
    if cfg.xi == 0.0:
        return 1.0 if l == 0 and m == 0 else 0.0
    log_xi = math.log(cfg.xi)

    def terms():
        n = -(-m // step)
        while True:
            jf = interference_factor(k, n)
            if jf == 0:
                yield 0.0
            else:
                p1 = ref_product(cfg.model, step * n, step)
                p2 = ref_product(cfg.model, step * n + diff, step)
                logmag = (
                    2 * math.log(jf)
                    + (4 * k * n) * log_xi
                    - log_factorial(step * n - m)
                    - p1.logmag
                    - p2.logmag
                )
                if logmag > _LOG_HUGE:
                    raise SeriesNotConverged(
                        f"moment ({l},{m}) term at index {n} exceeds float range"
                    )
                yield p1.sign * p2.sign * math.exp(logmag)
            n += 1

    what = f"moment l={l} m={m} k={k} xi={cfg.xi}"
    ref_diverges(cfg, what)
    total = ref_sum_series(terms(), ctl, what)
    return (cfg.xi**diff) * total / ref_normalization(cfg, ctl)


def ref_fock_amps(cfg, dim, ctl=DEFAULT_CONTROL):
    k = cfg.k
    log_d_half = 0.5 * math.log(ref_normalization(cfg, ctl))
    xi_sl = signed_log(cfg.xi)
    amps = np.zeros(dim, dtype=np.complex128)
    for n in range(0, (dim - 1) // (4 * k) + 1):
        level = 4 * k * n
        prod = ref_product(cfg.model, level, 2 * k)
        t = pow_int(xi_sl, level)
        if t.sign != 0:
            logmag = (
                math.log(2 * k) - log_d_half + t.logmag - 0.5 * log_factorial(level) - prod.logmag
            )
            amps[level] = prod.sign * math.exp(logmag)
    return amps


# ---------------------------------------------------------------------------
# comparisons


def outcome(fn, *args):
    """A float as its exact bits, or an error as (type, message, index)."""
    try:
        value = fn(*args)
    except FansqError as exc:
        return type(exc).__name__, str(exc), getattr(exc, "index", None)
    return value.hex() if isinstance(value, float) else value


def assert_same_series(cfg, ctl, pairs):
    assert outcome(normalization, cfg, ctl) == outcome(ref_normalization, cfg, ctl)
    for l, m in pairs:
        assert outcome(moment, cfg, l, m, ctl) == outcome(ref_moment, cfg, l, m, ctl), (l, m)


def _model(eta_sq, k):
    return Identity() if eta_sq is None else TrappedIon(eta_sq=eta_sq, quantum_order=2 * k)


def _smallest_root(j):
    """Smallest zero of L_j^0 to float resolution, by bisection (as in test_row_engine)."""
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


PAIRS = [(l, m) for l in range(9) for m in range(l + 1)] + [(0, 8), (12, 0), (13, 1)]
XI_SQ = [0.0, 0.02, 0.4, 1.0, 1.6, 30.0, 1000.0]


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("eta_sq", [None, 0.12, 0.9, 2.0])
def test_loop_matches_generator_path(k, eta_sq):
    # xi = 0, converging, overflowing (1000) and, at eta_sq = 2,
    # products that vanish exactly (L_2^2(2) = 0 for k = 1)
    for xi_sq in XI_SQ:
        cfg = FanConfig.from_xi_sq(k, xi_sq, _model(eta_sq, k))
        assert_same_series(cfg, DEFAULT_CONTROL, PAIRS)


def test_loop_matches_generator_path_on_a_grid_of_trapped_ion_states():
    # a last-bit change in one term rarely survives into the sum, so the
    # comparison needs many states to see a reordered float operation
    for k in (1, 2, 3):
        for i in range(12):
            model = TrappedIon(eta_sq=0.05 + 0.9 * i / 11, quantum_order=2 * k)
            for j in range(12):
                cfg = FanConfig.from_xi_sq(k, 0.05 + 1.5 * j / 11, model)
                assert_same_series(cfg, DEFAULT_CONTROL, [(2, 2), (4 * k, 0)])


def test_loop_matches_generator_path_across_a_laguerre_pole():
    # the product at Fock argument 22 divides by L_20^0(eta_sq) for k = 1
    model = TrappedIon(eta_sq=_smallest_root(20), quantum_order=2)
    kinds = set()
    for xi_sq in (0.02, 0.4, 1.0, 2.0, 4.0):
        cfg = FanConfig.from_xi_sq(1, xi_sq, model)
        assert_same_series(cfg, DEFAULT_CONTROL, PAIRS)
        kinds.add(type(outcome(normalization, cfg)).__name__)
    assert kinds == {"str", "tuple"}  # some converge, some meet the pole
    with pytest.raises(SingularNonlinearity) as exc:
        normalization(FanConfig.from_xi_sq(1, 4.0, model))
    assert exc.value.index == 22


def test_loop_matches_generator_path_on_overflow():
    cfg = FanConfig.from_xi_sq(1, 1000.0, Identity())
    want = outcome(ref_normalization, cfg, DEFAULT_CONTROL)
    assert want[0] == "SeriesNotConverged" and "exceeds float range" in want[1]
    assert_same_series(cfg, DEFAULT_CONTROL, PAIRS)


@pytest.mark.parametrize("n_max", [1, 2, 5, 10])
def test_loop_matches_generator_path_at_the_term_cap(n_max):
    ctl = SeriesControl(n_max=n_max)
    for k, eta_sq in ((1, None), (2, 0.45), (3, 0.9)):
        for xi_sq in XI_SQ[:5]:
            assert_same_series(FanConfig.from_xi_sq(k, xi_sq, _model(eta_sq, k)), ctl, PAIRS)
    with pytest.raises(SeriesNotConverged, match="tail criterion not met after"):
        normalization(FanConfig.from_xi_sq(1, 1.0, Identity()), ctl)


def test_loop_matches_generator_path_for_each_order():
    for k, eta_sq in ((1, 0.6), (2, None), (3, 0.3)):
        for xi_sq in XI_SQ:
            cfg = FanConfig.from_xi_sq(k, xi_sq, _model(eta_sq, k))
            assert_same_series(cfg, DEFAULT_CONTROL, PAIRS)


@pytest.mark.parametrize("eta_sq", [None, 0.3])
def test_both_engines_stop_where_the_generator_path_does_on_an_underflowed_first_term(eta_sq):
    # at xi = 1e-60 every term of (3, 3) and (4, 4) underflows to 0.0,
    # from the even first index n0 = 2 on: the series stops at n0 + 2,
    # so at n_max = 2 it is capped, where a stop at the zero index n0 + 1
    # would sum it to 0.0 (and leave the normalization to fail)
    cfg = FanConfig(1, 1e-60, _model(eta_sq, 1))
    seen = []
    for n_max in range(1, 13):
        ctl = SeriesControl(n_max=n_max)
        for lm in ((3, 3), (4, 4)):
            want = outcome(ref_moment, cfg, *lm, ctl)
            assert outcome(moment, cfg, *lm, ctl) == want, (lm, n_max)
            values, codes = moment_rows(1, [cfg.xi], [lm], [eta_sq or 0.0], ctl)
            (code,) = codes.tolist()
            if isinstance(want, str):
                assert code == STOPPED and values[lm][0].item().hex() == want, (lm, n_max)
            else:  # the row engine gives the code of the scalar path's error
                assert "tail criterion not met" in want[1] and code == CAPPED, (lm, n_max)
            seen.append(want)
    assert seen[2][1] == "moment l=3 m=3 k=1 xi=1e-60: tail criterion not met after 2 terms"
    assert seen[3][1] == "moment l=4 m=4 k=1 xi=1e-60: tail criterion not met after 2 terms"
    assert seen[6:] == ["0x0.0p+0"] * 18  # n_max = 4 on


@settings(max_examples=80, deadline=None)
@given(
    k=st.sampled_from([1, 2, 3]),
    eta_sq=st.one_of(st.none(), st.floats(min_value=0.01, max_value=1.0)),
    xi_sq=st.floats(min_value=0.0, max_value=3.0),
    rel_tol=st.sampled_from([1e-16, 1e-12, 1e-6, 0.1]),
    n_max=st.integers(min_value=1, max_value=80),
    pair=st.tuples(st.integers(0, 10), st.integers(0, 10)),
)
def test_stop_rule_is_the_generator_paths(k, eta_sq, xi_sq, rel_tol, n_max, pair):
    """The loop stops at the term the separate summation stops at.

    Any rel_tol and term cap: the same sum bit for bit, or the same
    error.
    """
    ctl = SeriesControl(rel_tol=rel_tol, n_max=n_max)
    assert_same_series(FanConfig.from_xi_sq(k, xi_sq, _model(eta_sq, k)), ctl, [pair])


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("eta_sq", [None, 0.3, 0.95])
def test_fock_coefficients_match_generator_path(k, eta_sq):
    for xi_sq in (0.0, 0.2, 0.9):
        cfg = FanConfig.from_xi_sq(k, xi_sq, _model(eta_sq, k))
        for dim in (1, 40, 400):
            try:
                got = fock_coefficients(cfg, dim).amps
            except FansqError:
                continue  # too short a truncation
            assert got.tobytes() == ref_fock_amps(cfg, dim).tobytes(), (xi_sq, dim)


# ---------------------------------------------------------------------------
# f(n) of the eigenvalue relation


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("eta_sq", [0.05, 0.3, 0.62, 0.99])
def test_nonlinearity_values_match_the_scalar_values(k, eta_sq):
    model = TrappedIon(eta_sq=eta_sq, quantum_order=2 * k)
    dim = 2500
    got = nonlinearity_values(model, range(2 * k, dim))
    want = np.array([to_real(ref_nonlinearity_value(model, n)) for n in range(2 * k, dim)])
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)


@pytest.mark.parametrize("j", [2, 20])
def test_nonlinearity_values_raise_the_scalar_error_at_a_pole(j):
    model = TrappedIon(eta_sq=_smallest_root(j), quantum_order=2)
    with pytest.raises(SingularNonlinearity) as want:
        ref_nonlinearity_value(model, j + 2)
    with pytest.raises(SingularNonlinearity) as got:
        nonlinearity_values(model, range(2, j + 40))
    with pytest.raises(SingularNonlinearity) as products:
        product_table(model).reach(j // 2 + 5)
    assert (str(got.value), got.value.index) == (str(want.value), want.value.index)
    assert (str(products.value), products.value.index) == (str(want.value), want.value.index)
    assert nonlinearity_values(model, range(2, j + 2)).shape == (j,)  # stops short of the pole


def test_nonlinearity_values_reject_the_identity_model_and_an_argument_below_k():
    with pytest.raises(DomainError, match="trapped-ion model"):
        nonlinearity_values(Identity(), range(2, 10))
    model = TrappedIon(eta_sq=0.3, quantum_order=4)
    with pytest.raises(DomainError, match="nonlinearity argument 3 below quantum order 4"):
        nonlinearity_values(model, range(3, 8))
    assert nonlinearity_values(model, range(4, 4)).shape == (0,)


def test_eigen_residual_raises_the_scalar_error_at_a_pole():
    # the fan state's amplitudes stop at level 20, short of the pole at
    # Fock argument 22, so its residual needs no f there; an amplitude at
    # level 22 makes the residual's f run to the pole and meet it
    model = TrappedIon(eta_sq=_smallest_root(20), quantum_order=2)
    cfg = FanConfig.from_xi_sq(1, 0.02, model)
    vec = fock_coefficients(cfg, 23)
    assert eigen_residual(cfg, vec) <= 1e-12
    amps = vec.amps.copy()
    amps[22] = 1e-3
    with pytest.raises(SingularNonlinearity) as exc:
        eigen_residual(cfg, FockVector(dim=23, amps=amps, tail_mass=0.0))
    assert exc.value.index == 22
    assert "denominator Laguerre polynomial of degree 20" in str(exc.value)


# ---------------------------------------------------------------------------
# bounded memo tables


def test_one_product_table_per_model():
    # the table's step is the model's quantum order, and the identity's
    # factors are one whatever the step
    for memo in (fanstate.product_table, normalization, fanstate._moment_cached):
        memo.cache_clear()
    cfg = FanConfig.from_xi_sq(2, 0.3, TrappedIon(eta_sq=0.4, quantum_order=4))
    moment(cfg, 8, 0)
    coefficients(cfg, 8)
    eigen_residual(cfg, oracle_vector(cfg, 10))
    assert fanstate.product_table.cache_info().currsize == 1
    identity = fanstate.product_table(Identity())
    for k in (1, 2, 3):
        moment(FanConfig.from_xi_sq(k, 0.3, Identity()), 4 * k, 0)
    assert fanstate.product_table.cache_info().currsize == 2
    assert fanstate.product_table(Identity()) is identity


def test_memo_tables_stay_within_their_bounds():
    tables = {
        "normalization": lambda: normalization.cache_info().currsize,
        "moment": lambda: fanstate._moment_cached.cache_info().currsize,
        "products": lambda: fanstate.product_table.cache_info().currsize,
    }
    bounds = {
        "normalization": normalization.cache_info().maxsize,
        "moment": fanstate._moment_cached.cache_info().maxsize,
        "products": fanstate.product_table.cache_info().maxsize,
    }
    assert all(b is not None for b in bounds.values())
    first = FanConfig.from_xi_sq(1, 0.3, TrappedIon(eta_sq=0.5, quantum_order=2))
    first_value = moment(first, 4, 0)
    # more models than product tables, more points than normalizations,
    # more pairs than moments; a product table holds
    # its model's Laguerre values, so the "products" bound covers them
    etas = np.linspace(0.05, 0.95, bounds["products"] + 3)
    points = 0
    for i, eta in enumerate(etas):
        model = TrappedIon(eta_sq=float(eta), quantum_order=2)
        for j in range(5):
            cfg = FanConfig.from_xi_sq(1, 0.1 + 0.1 * j, model)
            for l in range(14):
                for m in range(l + 1):
                    moment(cfg, l, m)
            points += 1
        for name, size in tables.items():
            assert size() <= bounds[name], name
    assert points > bounds["normalization"]
    assert points * 105 > bounds["moment"]
    for name, size in tables.items():
        assert size() == bounds[name], name  # full, and evicting
    assert moment(first, 4, 0) == first_value  # rebuilt tables give the same bits
