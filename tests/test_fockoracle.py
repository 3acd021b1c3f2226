"""Truncated-Fock-space oracle: quadrature central moments, normally-ordered
moments from the Gram of the ladder images, eigen/support checks.

The point of this module is independence from the closed-form series,
so these tests lean on states built by hand and on textbook values.
"""

import math

import numpy as np
import pytest

import fansq.errors
import fansq.fockoracle as fockoracle
from fansq.cli import main
from fansq.errors import DomainError, FansqError, SingularNonlinearity, TruncationTooSmall
from fansq.fanstate import (
    FanConfig,
    Identity,
    TrappedIon,
    normalization,
)
from fansq.fockoracle import (
    _CHAIN_PHASES,
    FockVector,
    eigen_residual,
    fock_coefficients,
    moment_oracle,
    oracle_vector,
    quadrature_moment,
    support_check,
    support_level,
    vacuum,
)
from fansq.specfun import log_factorials
from signed_log_ref import ref_nonlinearity_value, to_real

CFG_ID = FanConfig.from_xi_sq(1, 0.5, Identity())


def _fock(dim: int, n: int) -> FockVector:
    amps = np.zeros(dim, dtype=np.complex128)
    amps[n] = 1.0
    return FockVector(dim=dim, amps=amps, tail_mass=0.0)


def test_fockvector_dim_mismatch_rejected():
    with pytest.raises(DomainError):
        FockVector(dim=4, amps=np.zeros(5, dtype=np.complex128), tail_mass=0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_fockvector_rejects_amplitudes_that_are_not_finite(bad):
    # a NaN amplitude was accepted, and moment_oracle(v, 0, 0) gave nan+0j
    amps = np.eye(6)[0]
    amps[3] = bad
    with pytest.raises(DomainError, match="amps must be finite"):
        FockVector(dim=6, amps=amps, tail_mass=0.0)
    amps = np.eye(6)[0].astype(np.complex128)
    amps[3] = complex(0.0, bad)
    with pytest.raises(DomainError, match="amps must be finite"):
        FockVector(dim=6, amps=amps, tail_mass=0.0)


@pytest.mark.parametrize("tail_mass", [math.nan, -1.0, math.inf, 2.0, 1.0, True])
def test_fockvector_rejects_a_tail_mass_outside_zero_to_one(tail_mass):
    # each was accepted: a tail mass is a finite float in [0, 1)
    with pytest.raises(DomainError, match="tail_mass"):
        FockVector(dim=4, amps=np.eye(4)[0], tail_mass=tail_mass)


@pytest.mark.parametrize("tail_mass", [0, 0.0, 1e-300, 0.5, math.nextafter(1.0, 0.0)])
def test_fockvector_takes_a_tail_mass_in_zero_to_one(tail_mass):
    assert FockVector(dim=4, amps=np.eye(4)[0], tail_mass=tail_mass).tail_mass == tail_mass


@pytest.mark.parametrize("dim, size", [(4.0, 4), (True, 1)])
def test_fockvector_rejects_a_dim_that_is_not_an_int(dim, size):
    # dim = 4.0 built, and moment_oracle then raised TypeError
    with pytest.raises(DomainError, match="dim must be a positive integer"):
        FockVector(dim=dim, amps=np.eye(size)[0], tail_mass=0.0)


def test_vacuum_and_support_level():
    v = vacuum(8)
    assert v.norm_sq == 1.0
    assert support_level(v) == 0
    assert support_level(_fock(10, 7)) == 7


@pytest.mark.parametrize("shape", [(6, 1), (1, 6)])
def test_fockvector_rejects_amplitudes_not_one_dimensional(shape):
    # a column holding psi_2 = 1 used to pass the size check and give
    # <n> = 15; a row used to report support level 0
    amps = np.zeros(shape, dtype=np.complex128)
    amps.flat[2] = 1.0
    with pytest.raises(DomainError):
        FockVector(dim=6, amps=amps, tail_mass=0.0)


def test_fockvector_takes_real_amplitudes():
    amps = np.zeros(12)
    amps[0] = amps[4] = 1 / math.sqrt(2)
    v = FockVector(dim=12, amps=amps, tail_mass=0.0)
    w = FockVector(dim=12, amps=amps.astype(np.complex128), tail_mass=0.0)
    assert v.amps.dtype == np.complex128
    assert quadrature_moment(v, 0.3, 4) == quadrature_moment(w, 0.3, 4)
    assert moment_oracle(v, 1, 1) == moment_oracle(w, 1, 1) == pytest.approx(2.0, rel=1e-15)


def test_fockvector_amps_are_a_read_only_copy():
    rng = np.random.default_rng(3)
    amps = rng.normal(size=20) + 1j * rng.normal(size=20)
    amps[14:] = 0.0
    v = FockVector(dim=20, amps=amps, tail_mass=0.0)
    before = [moment_oracle(v, l, m) for l in range(4) for m in range(4)]
    q_before = quadrature_moment(v, 0.6, 4)
    with pytest.raises(ValueError):
        v.amps[0] = 0.0
    amps[:] = 0.0
    amps[19] = 1.0
    assert [moment_oracle(v, l, m) for l in range(4) for m in range(4)] == before
    assert quadrature_moment(v, 0.6, 4) == q_before
    assert v.support == support_level(v) == 13


def test_cached_support_level_matches_a_fresh_scan():
    rng = np.random.default_rng(5)
    for dim in (1, 7, 30):
        amps = rng.normal(size=dim) * 10.0 ** rng.integers(-20, 0, size=dim)
        v = FockVector(dim=dim, amps=amps, tail_mass=0.0)
        idx = np.nonzero(np.abs(amps) > 1e-14)[0]
        assert v.support == support_level(v) == (int(idx[-1]) if idx.size else 0)


def test_fockvector_equality_and_hash_are_identity():
    a, b = vacuum(3), vacuum(3)
    assert a == a
    assert a != b
    assert hash(a) == hash(a)
    assert len({a, b, a}) == 2


# ---------------------------------------------------------------------------
# quadrature central moments


def test_vacuum_quadrature_moments():
    v = vacuum(12)
    for phi in (0.0, 0.4, math.pi / 3, 2.2):
        assert quadrature_moment(v, phi, 2) == pytest.approx(0.5, abs=1e-14)
        assert quadrature_moment(v, phi, 4) == pytest.approx(0.75, abs=1e-14)


def test_one_quantum_second_moment():
    # <n> + 1/2 for a number state
    assert quadrature_moment(_fock(12, 1), 0.7, 2) == pytest.approx(1.5, abs=1e-13)


def test_quadrature_moment_rejects_odd_order():
    with pytest.raises(DomainError):
        quadrature_moment(vacuum(12), 0.0, 3)


@pytest.mark.parametrize("N", [4.0, 2.0, True])
def test_quadrature_moment_rejects_an_order_that_is_not_an_int(N):
    # 4.0 raised TypeError from range(); True passed as the order 1
    with pytest.raises(DomainError, match="moment order must be a positive integer"):
        quadrature_moment(vacuum(12), 0.0, N)


def test_quadrature_moment_needs_guard_rows():
    with pytest.raises(TruncationTooSmall):
        quadrature_moment(_fock(8, 6), 0.0, 4)


@pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf])
def test_quadrature_moment_rejects_a_non_finite_phase(phi):
    v = vacuum(12)
    with pytest.raises(DomainError):
        quadrature_moment(v, phi, 4)
    assert not v._chains


def test_quadrature_moment_imaginary_residue_is_a_fansq_error(monkeypatch):
    # the guard raised ArithmeticError, which the CLI does not map to exit 3
    vdot = np.vdot
    monkeypatch.setattr(np, "vdot", lambda a, b: vdot(a, b) + 1e-3j)
    with pytest.raises(FansqError, match="imaginary residue"):
        quadrature_moment(vacuum(12), 0.3, 4)


def test_quadrature_moment_truncation_insensitive():
    cfg = FanConfig.from_xi_sq(1, 0.2, Identity())
    a = quadrature_moment(fock_coefficients(cfg, 40), 0.3, 4)
    b = quadrature_moment(fock_coefficients(cfg, 80), 0.3, 4)
    assert abs(a - b) < 1e-10


def _dense_quadrature(dim: int, phi: float) -> np.ndarray:
    """Truncated X_phi = (a e^{-i phi} + a-dagger e^{i phi}) / sqrt(2) as a matrix."""
    x = np.zeros((dim, dim), dtype=np.complex128)
    for n in range(dim - 1):
        x[n, n + 1] = np.exp(-1j * phi) * math.sqrt(n + 1) / math.sqrt(2)
        x[n + 1, n] = np.conj(x[n, n + 1])
    return x


def _random_vector(rng, dim: int, support: int) -> FockVector:
    amps = np.zeros(dim, dtype=np.complex128)
    amps[: support + 1] = rng.normal(size=support + 1) + 1j * rng.normal(size=support + 1)
    amps /= np.linalg.norm(amps)
    return FockVector(dim=dim, amps=amps, tail_mass=0.0)


def test_quadrature_moment_matches_dense_matrix_powers():
    rng = np.random.default_rng(11)
    vectors = [
        fock_coefficients(FanConfig.from_xi_sq(1, 0.3, Identity()), 40),
        fock_coefficients(
            FanConfig.from_xi_sq(1, 0.2, TrappedIon(eta_sq=0.5, quantum_order=2)), 36
        ),
        fock_coefficients(FanConfig.from_xi_sq(2, 0.4, Identity()), 40),
        _random_vector(rng, 40, 27),
        _random_vector(rng, 24, 9),
        _random_vector(rng, 13, 0),
    ]
    for v in vectors:
        assert np.allclose(np.linalg.norm(v.amps), 1.0, atol=1e-13)
        for phi in (0.0, 0.37, math.pi / 4, 2.9):
            x = _dense_quadrature(v.dim, phi)
            mu = np.vdot(v.amps, x @ v.amps).real
            shifted = x - mu * np.eye(v.dim)
            w = v.amps
            for N in range(1, 13):
                w = shifted @ w
                if N % 2 or v.dim < support_level(v) + N:
                    continue
                ref = np.vdot(v.amps, w).real
                assert abs(quadrature_moment(v, phi, N) - ref) <= 1e-12 * abs(ref)


def _real_vector(rng, dim: int, support: int) -> FockVector:
    amps = np.zeros(dim)
    amps[: support + 1] = rng.normal(size=support + 1)
    amps /= np.linalg.norm(amps)
    return FockVector(dim=dim, amps=amps, tail_mass=0.0)


def test_quadrature_moment_does_not_depend_on_call_order():
    # every value must be the one a fresh vector gives, whatever chain the
    # call found: decreasing orders, repeated and evicted phases
    rng = np.random.default_rng(23)
    vectors = [
        fock_coefficients(FanConfig.from_xi_sq(1, 0.4, Identity()), 40),
        fock_coefficients(
            FanConfig.from_xi_sq(2, 0.3, TrappedIon(eta_sq=0.4, quantum_order=4)), 40
        ),
        _random_vector(rng, 36, 20),
        _real_vector(rng, 30, 14),
    ]
    phases = [0.0, math.pi / 8, math.pi / 4, 0.37, 1.1, 2.9, -0.6] + list(
        rng.uniform(-math.pi, math.pi, size=_CHAIN_PHASES)
    )
    for v in vectors:
        calls = [
            (phi, N)
            for phi in phases
            for N in range(2, 13, 2)
            if v.dim >= v.support + N
        ] * 2
        rng.shuffle(calls)
        for phi, N in calls:
            fresh = FockVector(dim=v.dim, amps=v.amps, tail_mass=v.tail_mass)
            assert quadrature_moment(v, phi, N) == quadrature_moment(fresh, phi, N)
            assert len(v._chains) <= _CHAIN_PHASES


def test_quadrature_moment_builds_each_phase_operator_once_per_kept_chain(monkeypatch):
    # ten phases cycle the eight-chain store; orders 4k and 4k + 4 mixed
    # with lower ones.  A phase whose chain is kept reuses its two
    # off-diagonals (no np.exp), sqrt(n) is never rebuilt (no np.sqrt),
    # and every value is the one a fresh vector gives, bit for bit
    rng = np.random.default_rng(29)
    phases = [0.0, math.pi / 8, math.pi / 4] + rng.uniform(-math.pi, math.pi, size=7).tolist()
    assert len(phases) > _CHAIN_PHASES
    for cfg, dim in (
        (FanConfig.from_xi_sq(1, 0.4, TrappedIon(eta_sq=0.3, quantum_order=2)), 48),
        (FanConfig.from_xi_sq(2, 0.3, Identity()), 60),
    ):
        v = fock_coefficients(cfg, dim)
        orders = [4 * cfg.k, 4 * cfg.k + 4, 2]
        calls = [(phi, orders[i % 3]) for i, phi in enumerate(phases * 3)]
        rng.shuffle(calls)
        fresh = [
            quadrature_moment(FockVector(dim=v.dim, amps=v.amps, tail_mass=0.0), phi, N)
            for phi, N in calls
        ]
        counts = {"exp": 0, "sqrt": 0}
        for name in counts:
            real = getattr(np, name)

            def counted(*args, _name=name, _real=real, **kwargs):
                counts[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(np, name, counted)
        kept, misses = [], 0
        for (phi, N), want in zip(calls, fresh):
            assert quadrature_moment(v, phi, N).hex() == want.hex()
            if phi in kept:
                kept.remove(phi)
            else:
                misses += 1
            kept = (kept + [phi])[-_CHAIN_PHASES:]
        monkeypatch.undo()
        assert 0 < misses < len(calls)
        assert counts == {"exp": 2 * misses, "sqrt": 0}


def test_quadrature_moment_fan_periodicity():
    cfg = FanConfig.from_xi_sq(2, 0.3, Identity())
    v = fock_coefficients(cfg, 72)
    for phi in (0.0, 0.2, 0.9):
        a = quadrature_moment(v, phi, 8)
        b = quadrature_moment(v, phi + math.pi / 4, 8)  # pi / 2k
        assert abs(a - b) <= 1e-10


# ---------------------------------------------------------------------------
# normally-ordered moment oracle


def _moment_reference(amps: np.ndarray, l: int, m: int) -> complex:
    """Per-term sum with log-factorial weights over the occupation numbers."""
    dim = amps.size
    d = l - m
    hi = dim - 1 - max(d, 0)
    if hi < m:
        return 0.0 + 0.0j
    ns = np.arange(m, hi + 1)
    lf = log_factorials(dim + max(d, 0))
    weight = np.exp(0.5 * ((lf[ns] - lf[ns - m]) + (lf[ns - m + l] - lf[ns - m])))
    return complex(np.sum(np.conj(amps[ns + d]) * amps[ns] * weight))


def test_moment_oracle_matches_per_term_reference():
    rng = np.random.default_rng(17)
    for support in (0, 3, 9, 16):
        for l in range(9):
            for m in range(9):
                low = max(support + l + m, support + 1)
                for dim in (low, 2 * low, 3 * low, 4 * low):
                    v = _random_vector(rng, dim, support)
                    ref = _moment_reference(v.amps, l, m)
                    got = moment_oracle(v, l, m)
                    scale = abs(ref) if abs(ref) >= 1e-12 else 1.0
                    assert abs(got - ref) <= 1e-13 * scale, (support, l, m, dim)


def test_real_flag_follows_the_imaginary_parts():
    rng = np.random.default_rng(29)
    assert fock_coefficients(CFG_ID, 32).real
    assert _real_vector(rng, 12, 5).real
    assert FockVector(dim=3, amps=np.array([1.0, -0.0j, 0.5 - 0.0j]), tail_mass=0.0).real
    assert not _random_vector(rng, 12, 5).real
    assert not FockVector(dim=3, amps=np.array([1.0, 1e-300j, 0.0]), tail_mass=0.0).real


def _image(v: FockVector, j: int) -> np.ndarray:
    """a^j psi of a real vector, zero-padded: sqrt(n + 1) times the level above, j times."""
    w = v.amps.real.copy()
    for _ in range(j):
        w = np.append(np.sqrt(np.arange(1.0, v.dim)) * w[1:], 0.0)
    return w


def test_moment_oracle_on_real_vectors_meets_the_dot_product_bound():
    # each value is a float sum of the products t_n of two images, so
    # |G - sum t| <= gamma_dim * sum |t| with gamma_n = n u / (1 - n u)
    # (Higham, Accuracy and Stability, section 3.1), against the exactly
    # rounded sum; its imaginary part is +0.0
    rng = np.random.default_rng(31)
    negative = np.zeros(20)
    negative[:9] = -rng.uniform(size=9)
    vectors = [
        fock_coefficients(CFG_ID, 40),
        fock_coefficients(
            FanConfig.from_xi_sq(3, 0.2, TrappedIon(eta_sq=0.3, quantum_order=6)), 48
        ),
        oracle_vector(FanConfig.from_xi_sq(1, 0.97, TrappedIon(eta_sq=0.98, quantum_order=2)), 18),
        _real_vector(rng, 30, 12),
        _real_vector(rng, 9, 0),
        FockVector(dim=20, amps=negative, tail_mass=0.0),
        vacuum(17),
        # dims where some pair leaves one product, whose zeros keep a sign
        FockVector(dim=2, amps=np.array([0.6, -0.8]), tail_mass=0.0),
        FockVector(dim=3, amps=np.array([-0.6 - 0.0j, 0.0, 0.8 - 0.0j]), tail_mass=0.0),
    ]
    u = 2.0**-53
    for v in vectors:
        assert v.real
        gamma = v.dim * u / (1 - v.dim * u)
        images = [_image(v, j) for j in range(9)]
        for l in range(9):
            for m in range(9):
                if v.dim < v.support + l + m:
                    continue
                t = (images[l] * images[m]).tolist()
                got = moment_oracle(v, l, m)
                assert got.imag.hex() == "0x0.0p+0"
                assert abs(got.real - math.fsum(t)) <= gamma * math.fsum(map(abs, t)), (l, m)


def test_moment_oracle_on_complex_fan_state_matches_reference():
    # a global phase makes the imaginary parts nonzero, so the Gram is complex
    fan = fock_coefficients(FanConfig.from_xi_sq(1, 0.3, Identity()), 40)
    v = FockVector(dim=fan.dim, amps=fan.amps * np.exp(0.7j), tail_mass=0.0)
    assert not v.real
    for l in range(9):
        for m in range(9):
            if v.dim < v.support + l + m:
                continue
            ref = _moment_reference(v.amps, l, m)
            scale = abs(ref) if abs(ref) >= 1e-12 else 1.0
            assert abs(moment_oracle(v, l, m) - ref) <= 1e-13 * scale, (l, m)


def _gram_vectors():
    rng = np.random.default_rng(37)
    fan = oracle_vector(FanConfig.from_xi_sq(2, 0.6, TrappedIon(eta_sq=0.4, quantum_order=4)), 18)
    return [
        lambda: oracle_vector(CFG_ID, 18),
        lambda: oracle_vector(
            FanConfig.from_xi_sq(1, 0.97, TrappedIon(eta_sq=0.98, quantum_order=2)), 18
        ),
        lambda: FockVector(dim=fan.dim, amps=fan.amps, tail_mass=0.0),
        lambda: FockVector(dim=fan.dim, amps=fan.amps * np.exp(0.3j), tail_mass=0.0),
        lambda a=_random_vector(rng, 40, 23).amps: FockVector(dim=40, amps=a, tail_mass=0.0),
    ]


def test_moment_oracle_does_not_depend_on_the_pairs_asked_before():
    # the Gram's size depends on what was asked first (built for (8, 8),
    # or grown by doubling from (0, 0)); its values must not, bit for bit
    rng = np.random.default_rng(41)
    loop = [(l, m) for l in range(9) for m in range(l + 1)]
    orders = [loop, [(8, 8)] + loop, loop[::-1]]
    orders += [rng.permutation(loop).tolist() for _ in range(4)]
    for make in _gram_vectors():
        want = None
        for order in orders:
            v = make()
            got = {(l, m): moment_oracle(v, l, m) for l, m in order}
            got = {key: (z.real.hex(), z.imag.hex()) for key, z in got.items()}
            want = want or got
            assert got == want


@pytest.mark.parametrize("k", [1, 2, 3])
def test_interference_zero_pairs_of_fan_states_are_exactly_zero(k):
    # a^l psi and a^m psi share no level unless l = m mod 4k
    for model in (Identity(), TrappedIon(eta_sq=0.6, quantum_order=2 * k)):
        v = oracle_vector(FanConfig.from_xi_sq(k, 0.8, model), 18)
        for l in range(9):
            for m in range(9):
                z = moment_oracle(v, l, m)
                if (l - m) % (4 * k):
                    assert (z.real.hex(), z.imag.hex()) == ("0x0.0p+0", "0x0.0p+0"), (l, m)
                else:
                    assert z.real != 0.0 and z.imag == 0.0


def test_one_gram_per_vector_on_the_oracle_check_pattern(monkeypatch):
    # guard 18 sizes the Gram for powers up to 9: the 45 pairs of
    # `oracle-check --max-power 8` build it once; quadrature builds none
    built = []
    build = fockoracle._build_gram
    monkeypatch.setattr(fockoracle, "_build_gram", lambda v, rows: built.append(rows) or build(v, rows))
    for k in (1, 3):
        cfg = FanConfig.from_xi_sq(k, 0.5, TrappedIon(eta_sq=0.3, quantum_order=2 * k))
        v = oracle_vector(cfg, 18)
        for l in range(9):
            for m in range(l + 1):
                moment_oracle(v, l, m)
        q = oracle_vector(cfg, 18)
        for N in (4 * k, 4 * k + 4):
            for phi in (0.0, math.pi / 8, math.pi / (4 * k)):
                quadrature_moment(q, phi, N)
        assert q._gram == []
    assert built == [10, 10]
    # a vector built directly sizes its Gram at its first request, then doubles
    built.clear()
    v = _fock(12, 5)
    assert moment_oracle(v, 3, 3).real == pytest.approx(60.0, rel=1e-14)  # 5! / 2!
    for l, m in ((2, 1), (3, 0), (4, 1), (0, 7)):
        moment_oracle(v, l, m)
    assert built == [4, 8]


def test_the_oracle_refuses_past_its_cell_ceiling_before_allocating(monkeypatch, capsys):
    # a huge guard (oracle-check --max-power 100000) or dim reached
    # np.zeros unchecked, and the Gram grows as (P + 1) * dim
    monkeypatch.setattr(fansq.errors, "_MAX_CELLS", 100)  # the package's one ceiling
    small = _fock(40, 2)
    assert moment_oracle(small, 1, 1).real == pytest.approx(2.0)  # 2 rows, 80 cells
    zeros = np.zeros

    def no_zeros(*args, **kwargs):
        raise AssertionError("allocated past the ceiling")

    monkeypatch.setattr(np, "zeros", no_zeros)
    for call in (
        lambda: vacuum(101),
        lambda: fock_coefficients(CFG_ID, 101),
        lambda: oracle_vector(CFG_ID, 18),
        lambda: moment_oracle(small, 1, 2),  # 3 rows, 120 cells
    ):
        with pytest.raises(DomainError, match="past the ceiling of 100$"):
            call()
    monkeypatch.setattr(np, "zeros", zeros)
    code = main(["oracle-check", "--k", "1", "--N", "4", "--xi-sq", "0.2", "--max-power", "100000"])
    assert code == 2
    assert "ceiling" in capsys.readouterr().err


def test_moment_oracle_trivial_values():
    v = vacuum(10)
    assert moment_oracle(v, 0, 0) == 1.0 + 0.0j
    assert moment_oracle(v, 1, 1) == 0.0 + 0.0j


def test_moment_oracle_number_state():
    v = _fock(12, 5)
    assert moment_oracle(v, 1, 1).real == pytest.approx(5.0, rel=1e-14)
    assert moment_oracle(v, 2, 2).real == pytest.approx(20.0, rel=1e-14)  # n(n-1)


def test_moment_oracle_hermitian_exactly():
    rng = np.random.default_rng(7)
    amps = np.zeros(28, dtype=np.complex128)
    amps[:16] = rng.normal(size=16) + 1j * rng.normal(size=16)
    amps /= np.linalg.norm(amps)
    v = FockVector(dim=28, amps=amps, tail_mass=0.0)
    for l, m in ((3, 1), (5, 2), (4, 4), (2, 0)):
        assert moment_oracle(v, l, m) == np.conj(moment_oracle(v, m, l))


def test_moment_oracle_selection_rule_on_fan_input():
    v = fock_coefficients(CFG_ID, 64)
    for l, m in ((1, 0), (2, 0), (3, 1), (5, 2), (6, 0)):
        if (l - m) % 4 != 0:
            assert abs(moment_oracle(v, l, m)) < 1e-12


@pytest.mark.parametrize("l, m", [(1.5, 0), (True, True), (0, 2.0), (False, 0)])
def test_moment_oracle_rejects_a_power_that_is_not_an_int(l, m):
    # unchecked, (1.5, 0) raised TypeError and (True, True) passed as (1, 1)
    with pytest.raises(DomainError, match="power [lm] must be a nonnegative integer"):
        moment_oracle(vacuum(12), l, m)


def test_moment_oracle_needs_guard_rows():
    with pytest.raises(TruncationTooSmall):
        moment_oracle(_fock(10, 8), 3, 3)


# ---------------------------------------------------------------------------
# prepared oracle vectors


def test_oracle_vector_tail_and_support():
    for cfg in (
        CFG_ID,
        FanConfig.from_xi_sq(3, 0.2, TrappedIon(eta_sq=0.2, quantum_order=6)),
    ):
        v = oracle_vector(cfg, guard=16)
        assert v.tail_mass < 1e-14
        assert support_check(v, cfg.k)
        assert v.dim >= support_level(v) + 16


def test_xi_zero_is_the_vacuum_on_the_oracle_path_at_a_pole():
    # the zero of L_2^0: every product from Fock argument 4 on is singular
    cfg = FanConfig(k=1, xi=0.0, model=TrappedIon(eta_sq=2 - math.sqrt(2), quantum_order=2))
    assert normalization(cfg) == 4.0
    for v in (fock_coefficients(cfg, 9), oracle_vector(cfg, guard=8)):
        assert v.dim == 9
        assert v.amps[0] == 1.0 and not v.amps[1:].any() and v.tail_mass == 0.0
        assert moment_oracle(v, 0, 0) == 1.0


def test_oracle_vector_rejects_negative_guard():
    with pytest.raises(DomainError):
        oracle_vector(CFG_ID, guard=-1)


@pytest.mark.parametrize("guard", [2.5, 2.0, True])
def test_oracle_vector_rejects_a_guard_that_is_not_an_int(guard):
    # 2.5 raised TypeError, True built a vector as for guard 1
    with pytest.raises(DomainError, match="guard must be a nonnegative integer"):
        oracle_vector(CFG_ID, guard)


@pytest.mark.parametrize("dim", [40.0, True, 0])
def test_fock_coefficients_rejects_a_dim_that_is_not_a_positive_int(dim):
    # 40.0 and True raised TypeError
    with pytest.raises(DomainError, match="dim must be a positive integer"):
        fock_coefficients(CFG_ID, dim)


@pytest.mark.parametrize("dim", [0, 3.0, True, -1])
def test_vacuum_rejects_a_dim_that_is_not_a_positive_int(dim):
    # 0 raised IndexError, 3.0 and True TypeError
    with pytest.raises(DomainError, match="dim must be a positive integer"):
        vacuum(dim)


# ---------------------------------------------------------------------------
# eigenstate and support diagnostics


def test_eigen_residual_vacuum_is_zero():
    cfg = FanConfig(k=1, xi=0.0, model=Identity())
    assert eigen_residual(cfg, fock_coefficients(cfg, 16)) == 0.0


def test_eigen_residual_of_the_vacuum_at_a_pole_is_zero():
    # L_2^0 vanishes at eta^2 = 2 - sqrt(2), so f(4) is a pole; the vacuum
    # has no amplitude that f multiplies, a state at level 4 has one
    cfg = FanConfig(k=1, xi=0.0, model=TrappedIon(eta_sq=2 - math.sqrt(2), quantum_order=2))
    assert eigen_residual(cfg, oracle_vector(cfg, 8)) == 0.0
    with pytest.raises(SingularNonlinearity):
        eigen_residual(cfg, _fock(9, 4))


@pytest.mark.parametrize("k", [1, 2])
def test_eigen_residual_needs_no_factor_the_state_never_meets(k):
    # L_1^0(1) = 0, so f(2k + 1) is a pole at eta^2 = 1; a fan state of
    # order k meets f at multiples of 2k only, as its series do.  The
    # residual raised at that pole, on the top row of the c08 grid
    cfg = FanConfig.from_xi_sq(k, 0.5, TrappedIon(eta_sq=1.0, quantum_order=2 * k))
    assert eigen_residual(cfg, oracle_vector(cfg, guard=4 * k + 2)) <= 1e-10
    # L_2^0 vanishes at 2 - sqrt(2): f(4), which a k = 1 state does use
    near = FanConfig.from_xi_sq(1, 0.5, TrappedIon(eta_sq=0.5, quantum_order=2))
    at_pole = FanConfig.from_xi_sq(1, 0.5, TrappedIon(eta_sq=2 - math.sqrt(2), quantum_order=2))
    with pytest.raises(SingularNonlinearity) as exc:
        eigen_residual(at_pole, oracle_vector(near, guard=6))
    assert exc.value.index == 4


@pytest.mark.parametrize(
    "cfg",
    [
        CFG_ID,
        FanConfig.from_xi_sq(2, 0.2, TrappedIon(eta_sq=0.3, quantum_order=4)),
        FanConfig.from_xi_sq(3, 0.15, Identity()),
    ],
)
def test_eigen_residual_small_for_fan_states(cfg):
    v = oracle_vector(cfg, guard=4 * cfg.k + 2)
    assert eigen_residual(cfg, v) <= 1e-10


@pytest.mark.parametrize(
    "cfg",
    [
        CFG_ID,
        FanConfig.from_xi_sq(1, 0.4, TrappedIon(eta_sq=0.3, quantum_order=2)),
        FanConfig.from_xi_sq(2, 0.2, TrappedIon(eta_sq=0.3, quantum_order=4)),
    ],
)
def test_eigen_residual_matches_dense_operator(cfg):
    # residual of a vector that is no eigenstate, against G = a^{2k} f(n)
    # built as dense matrices from single-quantum lowering maps
    dim = 24
    rng = np.random.default_rng(11)
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    v = FockVector(dim=dim, amps=amps, tail_mass=0.0)
    lower = np.diag(np.sqrt(np.arange(1.0, dim)), 1)
    f = np.ones(dim)
    if not isinstance(cfg.model, Identity):
        f[2 * cfg.k :] = [
            to_real(ref_nonlinearity_value(cfg.model, i)) for i in range(2 * cfg.k, dim)
        ]
    g = np.linalg.matrix_power(lower, 2 * cfg.k) @ np.diag(f)
    want = np.linalg.norm(g @ g @ amps - cfg.xi ** (4 * cfg.k) * amps) / np.linalg.norm(amps)
    assert eigen_residual(cfg, v) == pytest.approx(want, rel=1e-12)


def test_support_check_fan_states():
    assert support_check(fock_coefficients(CFG_ID, 64), 1)
    cfg3 = FanConfig.from_xi_sq(3, 0.1, Identity())
    assert support_check(fock_coefficients(cfg3, 80), 3)


def test_support_check_rejects_single_component_state():
    # a lone two-quantum coherent state occupies every even level, so the
    # level-2 amplitude breaks the multiples-of-4 pattern
    dim = 32
    amps = np.zeros(dim, dtype=np.complex128)
    xi = math.sqrt(0.5)
    for n in range(0, dim, 2):
        amps[n] = xi**n / math.sqrt(math.factorial(n))
    amps /= np.linalg.norm(amps)
    v = FockVector(dim=dim, amps=amps, tail_mass=0.0)
    assert not support_check(v, 1)
    assert support_check(v, 1) or abs(v.amps[2]) > 1e-6  # level 2 really occupied


@pytest.mark.parametrize("k", [True, 1.5, 0, -1])
def test_support_check_rejects_a_fan_order_that_is_not_a_positive_int(k):
    # checked by value only, True passed as k = 1 and 1.5 raised TypeError from the slice
    with pytest.raises(DomainError, match="fan order k must be a positive integer"):
        support_check(vacuum(9), k)
