"""Fan-state core: nonlinearity evaluation, factorial-chain products,
normalization, normally-ordered moments, Fock coefficients, drive map.

Reference values come from two independent routes: exact rational
arithmetic for the identity model (the series collapses to elementary
factorial sums) and a plain-float scipy reimplementation for the
trapped-ion model.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fansq import fanstate
from fansq.errors import DomainError, SeriesNotConverged, SingularNonlinearity, TruncationTooSmall
from fansq.fanstate import (
    DriveParams,
    FanConfig,
    Identity,
    SeriesControl,
    ProductTable,
    TrappedIon,
    moment,
    normalization,
    xi_from_drive,
)
from fansq.fockoracle import fock_coefficients, nonlinearity_values
from fansq.rows import squeeze_rows


# ---------------------------------------------------------------------------
# configuration validation


def test_trapped_ion_validation():
    with pytest.raises(DomainError):
        TrappedIon(eta_sq=0.0, quantum_order=2)
    with pytest.raises(DomainError):
        TrappedIon(eta_sq=-0.1, quantum_order=2)
    with pytest.raises(DomainError):
        TrappedIon(eta_sq=0.2, quantum_order=0)
    with pytest.raises(DomainError, match="eta_sq must be a finite float > 0"):
        TrappedIon(eta_sq=True, quantum_order=2)


def test_fan_config_validation():
    with pytest.raises(DomainError):
        FanConfig(k=0, xi=0.1, model=Identity())
    with pytest.raises(DomainError):
        FanConfig(k=1, xi=-0.5, model=Identity())
    with pytest.raises(DomainError):
        FanConfig(k=1, xi=float("nan"), model=Identity())
    with pytest.raises(DomainError, match="xi must be a finite float >= 0"):
        FanConfig(k=1, xi=True, model=Identity())
    # sideband order must track the fan order
    with pytest.raises(DomainError):
        FanConfig(k=2, xi=0.1, model=TrappedIon(eta_sq=0.2, quantum_order=2))
    cfg = FanConfig.from_xi_sq(1, 0.25, Identity())
    assert cfg.xi == 0.5
    assert cfg.xi_sq == pytest.approx(0.25, rel=1e-15)
    for xi_sq in (-0.1, True):
        with pytest.raises(DomainError, match="xi_sq must be a finite float >= 0"):
            FanConfig.from_xi_sq(1, xi_sq, Identity())


def test_drive_params_validation():
    for bad in ("omega0", "omega1", "eta"):
        for value in (0.0, True):
            kwargs = dict(omega0=1.0, omega1=1.0, eta=0.5, quantum_order=2)
            kwargs[bad] = value
            with pytest.raises(DomainError, match=f"{bad} must be a finite float > 0"):
                DriveParams(**kwargs)


@pytest.mark.parametrize("order", [True, False, 1.0, 2.0, 1.5])
def test_fan_and_quantum_orders_must_be_ints(order):
    # True passed as 1: FanConfig(True, 0.5, Identity()) built a k = 1
    # state and DriveParams(1.0, 2.0, 0.3, True) gave xi = 1.667
    with pytest.raises(DomainError, match="fan order k must be a positive integer"):
        FanConfig(order, 0.5, Identity())
    with pytest.raises(DomainError, match="fan order k must be a positive integer"):
        squeeze_rows(order, [0.5], 4, [0.0])
    with pytest.raises(DomainError, match="quantum_order must be a positive integer"):
        TrappedIon(eta_sq=0.3, quantum_order=order)
    with pytest.raises(DomainError, match="quantum_order must be a positive integer"):
        DriveParams(1.0, 2.0, 0.3, order)


def test_series_control_validation():
    with pytest.raises(DomainError):
        SeriesControl(rel_tol=0.0)
    with pytest.raises(DomainError):
        SeriesControl(n_max=0)


# ---------------------------------------------------------------------------
# nonlinearity values and products

# L_2^2(1/5) = 261/50 and L_2^0(1/5) = 31/50, so the ratio-of-Laguerre
# value at argument 4 is exactly 2! * (261/50) / (4! * (31/50)) = 87/124.
F4_EXACT = Fraction(87, 124)


def test_nonlinearity_identity_is_one():
    tab = ProductTable(Identity())
    tab.reach(300)
    assert tab.sign == [1] * 301 and tab.logmag == [0.0] * 301


def test_nonlinearity_at_quantum_order_is_inverse_factorial():
    for K, eta_sq in ((2, 0.2), (2, 0.9), (4, 0.3), (6, 0.17)):
        model = TrappedIon(eta_sq=eta_sq, quantum_order=K)
        assert nonlinearity_values(model, [K])[0] == pytest.approx(
            1.0 / math.factorial(K), rel=1e-13
        )
        tab = ProductTable(model)
        tab.reach(1)
        assert tab.sign[1] == 1
        assert tab.logmag[1] == pytest.approx(-math.log(math.factorial(K)), rel=1e-13)


def test_nonlinearity_trapped_ion_exact_rational_point():
    v = nonlinearity_values(TrappedIon(eta_sq=0.2, quantum_order=2), [4])[0]
    assert v == pytest.approx(float(F4_EXACT), rel=1e-13)


def test_nonlinearity_below_quantum_order_rejected():
    with pytest.raises(DomainError):
        nonlinearity_values(TrappedIon(eta_sq=0.2, quantum_order=2), [1])


def test_nonlinearity_denominator_zero_aborts():
    # L_1^0(x) = 1 - x vanishes exactly at x = 1, in the factor at Fock argument K + 1
    words = (
        "denominator Laguerre polynomial of degree 1 vanishes at eta_sq=1.0 "
        "(|value|=0.000e+00 below floor 1e-12)"
    )
    for K in (1, 2):
        with pytest.raises(SingularNonlinearity) as exc:
            nonlinearity_values(TrappedIon(eta_sq=1.0, quantum_order=K), [K, K + 1])
        assert (str(exc.value), exc.value.index) == (words, K + 1)
    # a product table steps by K, so it meets degree 1 only for K = 1
    tab = ProductTable(TrappedIon(eta_sq=1.0, quantum_order=1))
    for _ in range(2):  # the second call raises the remembered error
        with pytest.raises(SingularNonlinearity) as exc:
            tab.reach(5)
        assert (str(exc.value), exc.value.index) == (words, 2)
    assert len(tab.logmag) == 2  # grown up to the pole, not past it


def test_nonlinearity_numerator_zero_is_signed_zero_but_product_aborts():
    # L_2^2(x) = (x^2 - 8x + 12) / 2 vanishes exactly at x = 2
    model = TrappedIon(eta_sq=2.0, quantum_order=2)
    assert nonlinearity_values(model, [4])[0] == 0.0
    with pytest.raises(SingularNonlinearity) as exc:
        ProductTable(model).reach(2)
    assert exc.value.index == 4
    assert str(exc.value) == (
        "nonlinearity vanishes exactly at Fock argument 4; "
        "downstream amplitude ratios are undefined"
    )


def test_product_short_chain_is_one():
    for model in (Identity(), TrappedIon(eta_sq=0.2, quantum_order=4)):
        tab = ProductTable(model)
        tab.reach(0)
        assert (tab.sign, tab.logmag) == ([1], [0.0])
    tab = ProductTable(Identity())
    tab.reach(6)
    assert tab.sign[6] == 1 and tab.logmag[6] == 0.0


def test_product_trapped_ion_exact_rational_point():
    # f(4) * f(2) with f(2) = 1/2! exactly
    tab = ProductTable(TrappedIon(eta_sq=0.2, quantum_order=2))
    tab.reach(2)
    assert tab.sign[2] * math.exp(tab.logmag[2]) == pytest.approx(float(F4_EXACT / 2), rel=1e-13)


# ---------------------------------------------------------------------------
# normalization

# identity model, k = 1, xi^2 = 1/2: the sum collapses to
#   4 * sum_j (1/16)^j / (4j)!
# which exact rational arithmetic evaluates to any precision.


def _d_exact_identity_k1(xi_sq: Fraction, terms: int = 200) -> Fraction:
    total = Fraction(0)
    for j in range(terms):
        total += 4 * xi_sq ** (4 * j) / math.factorial(4 * j)
        if j > 3 and xi_sq ** (4 * j) < Fraction(1, 10**60):
            break
    return total


def test_normalization_at_zero_xi():
    for k in (1, 2, 3):
        cfg = FanConfig(k=k, xi=0.0, model=Identity())
        assert normalization(cfg) == 4 * k * k


def test_normalization_identity_exact_rational_oracle():
    d = normalization(FanConfig.from_xi_sq(1, 0.5, Identity()))
    ref = float(_d_exact_identity_k1(Fraction(1, 2)))
    assert d == pytest.approx(ref, rel=1e-14)


def _f_ti_ref(m: int, K: int, eta_sq: float) -> float:
    from scipy.special import eval_genlaguerre

    j = m - K
    return (
        math.factorial(j)
        * float(eval_genlaguerre(j, K, eta_sq))
        / (math.factorial(m) * float(eval_genlaguerre(j, 0, eta_sq)))
    )


def _prod_ti_ref(p: int, K: int, eta_sq: float) -> float:
    out = 1.0
    while p >= K:
        out *= _f_ti_ref(p, K, eta_sq)
        p -= K
    return out


def _d_ref_ti(k: int, xi_sq: float, eta_sq: float) -> float:
    # plain-float reimplementation with scipy Laguerre values; valid while
    # (4kn)! stays inside double range, which the fast decay guarantees
    total = 0.0
    for n in range(0, 40):
        level = 4 * k * n
        if level > 160:
            break
        term = (
            4 * k * k * xi_sq ** (4 * k * n)
            / (math.factorial(level) * _prod_ti_ref(level, 2 * k, eta_sq) ** 2)
        )
        total += term
        if n > 2 and term < 1e-25 * total:
            break
    return total


@pytest.mark.parametrize("k, xi_sq, eta_sq", [(1, 0.2, 0.3), (2, 0.3, 0.25)])
def test_normalization_trapped_ion_against_scipy_reference(k, xi_sq, eta_sq):
    cfg = FanConfig.from_xi_sq(k, xi_sq, TrappedIon(eta_sq=eta_sq, quantum_order=2 * k))
    assert normalization(cfg) == pytest.approx(_d_ref_ti(k, xi_sq, eta_sq), rel=1e-10)


def test_normalization_matches_coefficient_norm():
    for cfg in (
        FanConfig.from_xi_sq(1, 0.5, Identity()),
        FanConfig.from_xi_sq(2, 0.3, TrappedIon(eta_sq=0.3, quantum_order=4)),
    ):
        v = fock_coefficients(cfg, 80)
        assert abs(v.norm_sq - 1.0) <= 1e-10


def test_normalization_diverging_series_fails_loudly():
    ctl = SeriesControl(n_max=5)
    with pytest.raises(SeriesNotConverged):
        normalization(FanConfig.from_xi_sq(1, 0.9, Identity()), ctl)


# ---------------------------------------------------------------------------
# moments


def _mu_exact_identity_k1(l: int, m: int, xi_sq: Fraction, terms: int = 120) -> Fraction:
    """Exact rational moment for the identity model at k = 1."""
    if (l - m) % 4 != 0:
        return Fraction(0)
    n_min = (m + 1) // 2
    num = Fraction(0)
    for n in range(n_min, n_min + terms):
        if n % 2 != 0:
            continue
        num += 4 * xi_sq ** (2 * n) / math.factorial(2 * n - m)
    d = _d_exact_identity_k1(xi_sq)
    return xi_sq ** ((l - m) // 2) * num / d


def test_moment_trivial_values():
    cfg = FanConfig.from_xi_sq(1, 0.5, Identity())
    assert moment(cfg, 0, 0) == 1.0
    assert moment(cfg, 1, 0) == 0.0  # offset not a multiple of 2k
    assert moment(cfg, 3, 0) == 0.0


def test_moment_parity_refinement():
    # offsets that are odd multiples of 2k vanish through interference
    cfg = FanConfig.from_xi_sq(1, 0.5, Identity())
    assert moment(cfg, 2, 0) == 0.0
    assert moment(cfg, 6, 0) == 0.0
    cfg3 = FanConfig.from_xi_sq(3, 0.4, TrappedIon(eta_sq=0.2, quantum_order=6))
    assert moment(cfg3, 6, 0) == 0.0
    assert moment(cfg3, 18, 0) == 0.0


def test_an_interference_zero_takes_no_memo_slot():
    # moment answers a pair whose offset is not a multiple of 4k itself:
    # no key is hashed, so the memo sees neither a hit nor a miss
    cfg = FanConfig.from_xi_sq(2, 0.37, TrappedIon(eta_sq=0.41, quantum_order=4))
    before = fanstate._moment_cached.cache_info()
    for l in range(13):
        for m in range(13):
            if (l - m) % 8:
                assert moment(cfg, l, m) == 0.0
    assert fanstate._moment_cached.cache_info() == before
    moment(cfg, 8, 0)
    moment(cfg, 0, 8)
    after = fanstate._moment_cached.cache_info()
    assert (after.misses, after.hits) == (before.misses + 1, before.hits + 1)


@pytest.mark.parametrize("l, m", [(1.5, 0), (True, True), (4.0, 0), (0, 2.0), (False, 0)])
def test_moment_rejects_a_power_that_is_not_an_int(l, m):
    # unchecked, (1.5, 0) gave 0.0, (True, True) the (1, 1) moment and
    # (4.0, 0) a TypeError; the check comes before the interference zero
    with pytest.raises(DomainError, match="moment power [lm] must be a nonnegative integer"):
        moment(FanConfig.from_xi_sq(1, 0.5, Identity()), l, m)


@given(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=12),
    st.integers(min_value=0, max_value=12),
)
def test_moment_selection_rule_property(k, l, m):
    cfg = FanConfig.from_xi_sq(k, 0.3, Identity())
    if (l - m) % (2 * k) != 0:
        assert moment(cfg, l, m) == 0.0


@pytest.mark.parametrize("l, m", [(1, 1), (2, 2), (4, 4), (4, 0), (5, 1), (8, 4), (8, 0)])
def test_moment_identity_exact_rational_oracle(l, m):
    cfg = FanConfig.from_xi_sq(1, 0.5, Identity())
    ref = _mu_exact_identity_k1(l, m, Fraction(1, 2))
    assert moment(cfg, l, m) == pytest.approx(float(ref), rel=1e-12)


def test_moment_eigenvalue_collapse_identity():
    # for f = 1 the state is an eigenstate of a^{4k}, so <a^{4kj}> = xi^{4kj}
    for k, xi_sq in ((1, 0.3), (1, 0.5), (2, 0.4)):
        cfg = FanConfig.from_xi_sq(k, xi_sq, Identity())
        for j in (1, 2):
            want = cfg.xi ** (4 * k * j)
            assert moment(cfg, 4 * k * j, 0) == pytest.approx(want, rel=1e-13)


def test_moment_symmetry_under_swap():
    cfg = FanConfig.from_xi_sq(2, 0.4, TrappedIon(eta_sq=0.3, quantum_order=4))
    assert moment(cfg, 0, 8) == moment(cfg, 8, 0)
    assert moment(cfg, 1, 5) == moment(cfg, 5, 1)


def test_moment_diagonal_positive():
    for cfg in (
        FanConfig.from_xi_sq(1, 0.05, Identity()),
        FanConfig.from_xi_sq(2, 0.2, TrappedIon(eta_sq=0.25, quantum_order=4)),
    ):
        for m in range(1, 7):
            assert moment(cfg, m, m) > 0.0


def test_moment_small_xi_leading_behavior():
    # <n> opens at the first interference-surviving level: xi^8 / 6 for k=1
    cfg = FanConfig.from_xi_sq(1, 1e-3, Identity())
    lead = cfg.xi**8 / 6
    assert moment(cfg, 1, 1) == pytest.approx(lead, rel=1e-3)


def _mu_ref_ti(cfg: FanConfig, l: int, m: int) -> float:
    # independent float series: scipy Laguerre, explicit factorials
    k = cfg.k
    eta_sq = cfg.model.eta_sq
    if (l - m) % (2 * k) != 0:
        return 0.0
    steps = (l - m) // (2 * k)
    if steps % 2 != 0:
        return 0.0
    total = 0.0
    n = -(-m // (2 * k))
    first = None
    while True:
        if n % 2 == 0:
            level = 2 * k * n
            term = (
                4 * k * k * cfg.xi ** (4 * k * n)
                / (
                    math.factorial(level - m)
                    * _prod_ti_ref(level, 2 * k, eta_sq)
                    * _prod_ti_ref(level + l - m, 2 * k, eta_sq)
                )
            )
            total += term
            if first is None:
                first = n
            elif abs(term) < 1e-22 * abs(total) and n > first + 4:
                break
        n += 1
        assert n < 80, "reference series failed to settle"
    return cfg.xi ** (l - m) * total / _d_ref_ti(k, cfg.xi_sq, eta_sq)


@pytest.mark.parametrize("l, m", [(1, 1), (2, 2), (4, 0), (4, 4), (6, 2)])
def test_moment_trapped_ion_against_scipy_reference(l, m):
    cfg = FanConfig.from_xi_sq(1, 0.2, TrappedIon(eta_sq=0.3, quantum_order=2))
    assert moment(cfg, l, m) == pytest.approx(_mu_ref_ti(cfg, l, m), rel=1e-10, abs=1e-18)


def test_moment_diverging_series_fails_loudly():
    ctl = SeriesControl(n_max=4)
    cfg = FanConfig.from_xi_sq(1, 0.9, Identity())
    with pytest.raises(SeriesNotConverged):
        moment(cfg, 1, 1, ctl)


# ---------------------------------------------------------------------------
# Fock coefficients


def test_fock_coefficients_vacuum():
    v = fock_coefficients(FanConfig(k=1, xi=0.0, model=Identity()), 16)
    assert v.amps[0] == 1.0
    assert not v.amps[1:].any()
    assert v.tail_mass == 0.0


def test_fock_coefficients_support_and_norm():
    v = fock_coefficients(FanConfig.from_xi_sq(1, 0.5, Identity()), 64)
    for n in range(64):
        if n % 4 != 0:
            assert v.amps[n] == 0.0
    assert abs(v.norm_sq - 1.0) <= 1e-12

    v2 = fock_coefficients(FanConfig.from_xi_sq(2, 0.3, Identity()), 64)
    assert abs(v2.norm_sq - 1.0) <= 1e-12
    assert v2.tail_mass < 1e-14


def test_fock_coefficients_insufficient_dim():
    with pytest.raises(TruncationTooSmall):
        fock_coefficients(FanConfig.from_xi_sq(1, 0.5, Identity()), 8)


# ---------------------------------------------------------------------------
# drive map


def test_xi_from_drive_values():
    assert xi_from_drive(
        DriveParams(omega0=1.0, omega1=1.0, eta=1.0, quantum_order=2)
    ) == pytest.approx(1.0, rel=1e-15)
    assert xi_from_drive(
        DriveParams(omega0=0.01, omega1=1.0, eta=0.5, quantum_order=2)
    ) == pytest.approx(0.2, rel=1e-14)
    # vanishing carrier drive reached as a limit, not at zero
    tiny = xi_from_drive(
        DriveParams(omega0=1e-30, omega1=1.0, eta=0.5, quantum_order=2)
    )
    assert 0.0 < tiny < 1e-14


@pytest.mark.parametrize("eta", [1e300, 1e-200])
def test_xi_from_drive_rejects_an_eta_power_outside_float_range(eta):
    # eta^K overflowed (OverflowError), or underflowed to 0 and divided by it
    d = DriveParams(omega0=1.0, omega1=2.0, eta=eta, quantum_order=2)
    with pytest.raises(DomainError, match="drive ratio"):
        xi_from_drive(d)
