"""A third route to fan-state moments: direct sums at 40 digits.

The reference sums the fan state's Fock support level by level in mpmath
arithmetic, with its own Laguerre values and factorials, and shares no
code with the series (`fanstate`) or the oracle (`fockoracle`).  Where
those two converge slowly or sit next to a Laguerre pole, it settles
which of them is right.
"""

import math
from itertools import islice

import mpmath
import pytest

from fansq.fanstate import FanConfig, Identity, TrappedIon, moment, normalization
from fansq.fockoracle import moment_oracle, oracle_vector

DPS = 40
TAIL = mpmath.mpf("1e-20")  # share of its sum below which a level's term ends a series
MAX_POWER = 8


def _laguerre(alpha: int, x):
    """L_0^alpha(x), L_1^alpha(x), ... by the three-term recurrence in n."""
    prev, cur = mpmath.mpf(1), 1 + alpha - x
    yield prev
    n = 1
    while True:
        yield cur
        prev, cur = cur, ((2 * n + 1 + alpha - x) * cur - (n + alpha) * prev) / (n + 1)
        n += 1


def _falling(a: int, b: int) -> int:
    """a (a-1) ... (a-b+1), exactly."""
    out = 1
    for i in range(b):
        out *= a - i
    return out


def _fan_reference(k: int, xi_sq: float, eta_sq):
    """Normalization D and moments {(l, m): <a-dagger^l a^m>} for l >= m.

    With K = 2k the fan state has amplitude c_s = 2k g_s / sqrt(D s!) at
    s = 4kn, where g_s = xi^s / P(s), P(s) = f(2k) f(4k) ... f(s) and

        f(q) = (q-K)! L_{q-K}^K(eta_sq) / (q! L_{q-K}^0(eta_sq))

    (f = 1 for the identity model).  The factorials of the amplitudes
    cancel against those of the ladder maps, so

        D = (2k)^2 sum_s g_s^2 / s!,
        <a-dagger^l a^m> = (2k)^2 / D  sum_{s >= m} g_{s+l-m} g_s / (s-m)!,

    which is zero unless 4k divides l - m.  Levels are added until the
    terms of D and of its s^8-weighted companion, which bounds the
    growth of every moment's terms, fall below TAIL of their sums at two
    levels in a row.  The Laguerre values come from the recurrence,
    checked against `mpmath.laguerre` at the highest degree used.
    """
    K = 2 * k
    with mpmath.workdps(DPS):
        xi_sq = mpmath.mpf(xi_sq)
        if eta_sq is not None:
            x = mpmath.mpf(eta_sq)
            numerators = islice(_laguerre(K, x), 0, None, 2 * k)
            denominators = islice(_laguerre(0, x), 0, None, 2 * k)
        g, w = [], []  # g_s and g_s / s! per level
        prod = mpmath.mpf(1)
        sums = [mpmath.mpf(0), mpmath.mpf(0)]
        quiet = n = 0
        while quiet < 2:
            s = 4 * k * n
            if n and eta_sq is not None:
                for q in (s - 2 * k, s):
                    top = (next(numerators), next(denominators))
                    prod *= top[0] / (_falling(q, K) * top[1])
            g.append(xi_sq ** (s // 2) / prod)
            w.append(g[n] / mpmath.factorial(s))
            small = n > 2
            for i, t in enumerate((g[n] * w[n], g[n] * w[n] * s**MAX_POWER)):
                sums[i] += t
                small &= t <= TAIL * sums[i]
            quiet = quiet + 1 if small else 0
            n += 1
        if eta_sq is not None:
            # errors of the recurrence grow with the degree
            for alpha, value in zip((K, 0), top):
                exact = mpmath.laguerre(s - K, alpha, x)
                assert mpmath.almosteq(value, exact, rel_eps=1e-30), (alpha, s - K)
        norm = mpmath.fdot(g, w)
        moments = {}
        for l in range(MAX_POWER + 1):
            for m in range(l + 1):
                if (l - m) % (4 * k):
                    continue
                d = (l - m) // (4 * k)
                a = [wi * _falling(4 * k * i, m) for i, wi in enumerate(w[: n - d])]
                total = mpmath.fdot(g[d:], a)
                # the sum has converged: a slow tail decays over some 25
                # levels, so its last term bounds the truncation error
                # far below every tolerance here
                assert abs(g[-1] * a[-1]) <= 1e-18 * abs(total), (l, m)
                moments[l, m] = float(total / norm)
        return float(K * K * norm), moments


# (k, xi_sq, eta_sq or None for the identity model, relative tolerance)
POINTS = [
    # the slowest node of the c08 grid: the oracle needs dim 6787.  Series
    # and oracle agree to 1e-13 here but both miss the reference by up to
    # 8.2e-10 (moment (8, 8)), because both take the nonlinearity products
    # from the same float Laguerre recurrence, whose values drift by up to
    # 4e-9 relative next to its roots by degree 6000
    pytest.param(1, 1.0, 0.9901, 2e-9, id="slow-node"),
    # L_2^0 vanishes at eta_sq = 2 - sqrt(2): f(4) is nearly singular
    pytest.param(1, 0.5, 2 - math.sqrt(2) - 5e-4, 1e-11, id="below-L2-pole"),
    pytest.param(1, 0.5, 2 - math.sqrt(2) + 5e-4, 1e-11, id="above-L2-pole"),
    pytest.param(2, 0.7, 0.4, 1e-11, id="k2"),
    pytest.param(3, 0.5, 0.25, 1e-11, id="k3"),
    pytest.param(2, 0.8, None, 1e-11, id="k2-identity"),
]


@pytest.mark.parametrize("k, xi_sq, eta_sq, rel", POINTS)
def test_series_and_oracle_match_the_mpmath_reference(k, xi_sq, eta_sq, rel):
    norm, moments = _fan_reference(k, xi_sq, eta_sq)
    model = Identity() if eta_sq is None else TrappedIon(eta_sq=eta_sq, quantum_order=2 * k)
    cfg = FanConfig.from_xi_sq(k, xi_sq, model)
    vec = oracle_vector(cfg, 2 * MAX_POWER + 2)
    assert abs(normalization(cfg) - norm) <= rel * norm
    for l in range(MAX_POWER + 1):
        for m in range(MAX_POWER + 1):
            ref = moments.get((max(l, m), min(l, m)))
            series = moment(cfg, l, m)
            oracle = moment_oracle(vec, l, m)
            if ref is None:  # zero by the 4k selection rule
                assert series == 0.0 and abs(oracle) <= 1e-12, (l, m)
            else:
                assert abs(series - ref) <= rel * abs(ref), (l, m, series, ref)
                assert abs(oracle - ref) <= rel * abs(ref), (l, m, oracle, ref)

