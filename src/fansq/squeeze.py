"""Higher-order quadrature squeezing of fan states.

The Nth central moment of the rotated quadrature splits into a constant
part plus harmonics in cos(4pk * phi); squeezing means the total dips
below the coherent-state benchmark (N-1)!! / 2^(N/2).  This module
assembles that decomposition from the moment series, provides the
small-xi leading-order form for the identity nonlinearity, and
classifies squeezing/stretching directions from the roots of one
polynomial in cos(4k phi), with no sampling of phi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Any, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import DomainError, FansqError, finite_float, nonnegative_float, positive_int
from .fanstate import DEFAULT_CONTROL, FanConfig, SeriesControl, moment
from .specfun import double_factorial


def min_order(k: int) -> int:
    """Lowest moment order that can show squeezing: 4k."""
    positive_int("fan order k", k)
    return 4 * k


def _check_order(N: int) -> None:
    positive_int("moment order", N)
    if N % 2:
        raise DomainError(f"moment order must be even, got {N}")


def vacuum_benchmark(N: int) -> float:
    """Coherent-state value of the Nth central quadrature moment."""
    _check_order(N)
    return double_factorial(N - 1) / 2 ** (N // 2)


@dataclass(frozen=True)
class SqueezeCoeffs:
    """Harmonic decomposition of the squeeze parameter.

    constant is the isotropic part; harmonics[p-1] multiplies
    cos(4pk * phi).  The harmonic list is empty below the minimum order.
    """

    k: int
    N: int
    constant: float
    harmonics: tuple[float, ...]

    def __post_init__(self) -> None:
        positive_int("fan order k", self.k)
        _check_order(self.N)


def _moment_pairs(k: int, N: int) -> list[tuple[int, int]]:
    """The moments (l, m) the decomposition needs.

    The order is the scalar path's evaluation order, which decides the
    error a failing node reports.
    """
    half = N // 2
    pairs = [(m, m) for m in range(1, half + 1)]
    for p in range(1, N // (4 * k) + 1):
        pairs += [(m + 4 * p * k, m) for m in range(half - 2 * p * k + 1)]
    return pairs


def _assemble(
    k: int, N: int, moments: Mapping[tuple[int, int], Any]
) -> tuple[Any, list[Any]]:
    """Constant and harmonics from the moments of `_moment_pairs`.

    Each moment is a float, or an array over the nodes of a row.
    """
    half = N // 2
    n_fact = math.factorial(N)

    const = 0.0
    for m in range(1, half + 1):
        const += (
            2**m
            * moments[(m, m)]
            / (math.factorial(m) ** 2 * math.factorial(half - m))
        )
    const *= n_fact / 2**N

    harmonics = []
    p_top = N // (4 * k)
    for p in range(1, p_top + 1):
        m_top = half - 2 * p * k
        s = 0.0
        for m in range(0, m_top + 1):
            s += (
                2**m
                * moments[(m + 4 * p * k, m)]
                / (
                    math.factorial(m)
                    * math.factorial(m + 4 * p * k)
                    * math.factorial(half - m - 2 * p * k)
                )
            )
        harmonics.append(4 ** (p * k) * n_fact / 2 ** (N - 1) * s)
    return const, harmonics


def coefficients(
    cfg: FanConfig, N: int, ctl: SeriesControl = DEFAULT_CONTROL
) -> SqueezeCoeffs:
    """Assemble the decomposition from normally-ordered moments."""
    _check_order(N)
    moments = {(l, m): moment(cfg, l, m, ctl) for l, m in _moment_pairs(cfg.k, N)}
    const, harmonics = _assemble(cfg.k, N, moments)
    return SqueezeCoeffs(k=cfg.k, N=N, constant=const, harmonics=tuple(harmonics))


def _cosine_sum(constant: Any, harmonics: Sequence[Any], k: int, phi: float) -> Any:
    """constant + sum_p harmonics[p-1] cos(4pk phi), for a float or an array of nodes.

    The cosine is taken once per harmonic, then multiplied and added in
    the same order for either, so a node gets the bits of the float.
    """
    finite_float("phase", phi)
    s = constant
    for p, b in enumerate(harmonics, start=1):
        s = s + b * math.cos(4 * p * k * phi)
    return s


@lru_cache(maxsize=64)
def _lower_bound(N: int) -> float:
    """The least S the positivity check accepts: -benchmark, less rounding."""
    floor = -vacuum_benchmark(N)
    return floor - 1e-12 * max(1.0, -floor)


def _below_bound(s: float, N: int) -> FansqError:
    return FansqError(f"S={s} fell below the moment positivity bound {-vacuum_benchmark(N)}")


def squeeze_parameter(coeffs: SqueezeCoeffs, phi: float) -> float:
    """S(phi) = constant + sum_p harmonics[p-1] cos(4pk phi).

    Negative values mean squeezing below the coherent benchmark; the
    construction bounds S from below by -benchmark, which is checked on
    every evaluation (FansqError if it fails).  A non-finite phi is a
    DomainError.
    """
    s = _cosine_sum(coeffs.constant, coeffs.harmonics, coeffs.k, phi)
    if not s >= _lower_bound(coeffs.N):
        raise _below_bound(s, coeffs.N)
    return s


class ApproxResult(NamedTuple):
    value: float
    dominance: float


def squeeze_approx(coeffs: SqueezeCoeffs, phi: float) -> ApproxResult:
    """Single-harmonic truncation plus how much the dropped terms weigh.

    dominance = max_{p>=2} |harmonics[p-1]| / |harmonics[0]|; zero when
    there is at most one harmonic or the leading one vanishes.
    """
    finite_float("phase", phi)
    s = coeffs.constant
    if coeffs.harmonics:
        s += coeffs.harmonics[0] * math.cos(4 * coeffs.k * phi)
    dominance = 0.0
    if len(coeffs.harmonics) >= 2 and coeffs.harmonics[0] != 0.0:
        dominance = max(abs(b) for b in coeffs.harmonics[1:]) / abs(coeffs.harmonics[0])
    return ApproxResult(value=s, dominance=dominance)


class LeadingOrderTerms(NamedTuple):
    isotropic: float  # multiplies 1
    harmonic: float  # multiplies cos(4k phi)


def leading_order_terms(k: int, N: int, xi: float) -> LeadingOrderTerms:
    """Small-xi leading behavior of the decomposition, identity model only.

    isotropic carries xi^{8k}; harmonic carries xi^{4k}, so the harmonic
    always dominates for small nonzero xi and squeezing is guaranteed in
    that limit.
    """
    _check_order(N)
    nonnegative_float("xi", xi)
    if N < min_order(k):
        raise DomainError(f"order N={N} below the minimum {min_order(k)} for k={k}")
    half = N // 2
    iso = 0.0
    for m in range(1, half + 1):
        if 4 * k - m < 0:
            continue
        iso += (
            2**m
            * xi ** (8 * k)
            / (
                math.factorial(m) ** 2
                * math.factorial(half - m)
                * math.factorial(4 * k - m)
            )
        )
    harm = 2 ** (2 * k + 1) * xi ** (4 * k) / (
        math.factorial(4 * k) * math.factorial(half - 2 * k)
    )
    return LeadingOrderTerms(isotropic=iso, harmonic=harm)


def leading_order_squeeze(k: int, N: int, xi: float, phi: float) -> float:
    """Leading-order S(phi) for the identity model at small xi.

    The overall prefactor is N!/2^N: reconstructing the full series
    prefactors term by term gives half the value quoted alongside the
    asymptotic forms in print, and the full decomposition confirms the
    halved one numerically to first order.
    """
    finite_float("phase", phi)
    t = leading_order_terms(k, N, xi)
    return (
        math.factorial(N)
        / 2**N
        * (t.isotropic + t.harmonic * math.cos(4 * k * phi))
    )


class Regime(Enum):
    NO_SQUEEZING = "no-squeezing"
    LEADING_POSITIVE = "leading-harmonic-positive"
    LEADING_NEGATIVE = "leading-harmonic-negative"


@dataclass(frozen=True)
class DirectionReport:
    """Where the state squeezes and where it stretches.

    Angles are reported in [0, pi): a quadrature axis and its opposite
    are the same axis for even moment orders.  In either squeezing
    regime both lists hold exactly 2k angles and every stretch angle
    bisects its two neighboring squeeze angles.
    """

    regime: Regime
    squeeze_angles: tuple[float, ...]
    stretch_angles: tuple[float, ...]
    s_min: float
    s_max: float


def _stationary_values(coeffs: SqueezeCoeffs) -> list[float]:
    """S at phi = 0, at pi/4k, then at every other stationary point of a period.

    In x = cos(4k phi), S = constant + sum_p b_p T_p(x), since
    T_p(cos t) = cos(p t).  dS/dphi vanishes where sin(4k phi) does
    (x = +-1) and at the real roots in (-1, 1) of dS/dx =
    sum_p p b_p U_{p-1}(x), built in the power basis with Python floats
    (the float operations of a numpy build).  After the rounding-level
    trim a constant dS/dx has no root and a linear one the root -c0/c1,
    which is what `np.roots` gives, bit for bit down to |root| = 6.7e-139
    (below that LAPACK rescales and can move the last bit, and acos gives
    pi/2 either way).  `np.roots` runs from degree 2 up, that is from
    three harmonics.
    """
    k, harmonics = coeffs.k, coeffs.harmonics
    angles = [0.0, math.pi / (4 * k)]
    if len(harmonics) > 1:  # a single harmonic has no interior stationary point
        # ascending powers of x, from U_{-1} = 0 and U_0 = 1 by
        # U_p = 2x U_{p-1} - U_{p-2}
        n = len(harmonics)
        u_prev, u, dsdx = [0.0] * n, [1.0] + [0.0] * (n - 1), [0.0] * n
        for p, b in enumerate(harmonics, start=1):
            pb = p * b
            dsdx = [d + pb * c for d, c in zip(dsdx, u)]
            u_prev, u = u, [0.0 - u_prev[0]] + [2.0 * c - e for c, e in zip(u, u_prev[1:])]
        # a leading coefficient at rounding level of the largest moves no
        # root in [-1, 1] beyond rounding, and np.roots would overflow on
        # it; with a NaN coefficient the cut is NaN and no root is sought
        mags = [abs(c) for c in dsdx]
        cut = math.nan if any(map(math.isnan, mags)) else 2.0**-52 * max(mags)
        degree = len(mags) - 1
        while degree and not mags[degree] > cut:
            degree -= 1
        if degree == 1:
            inside = [-dsdx[0] / dsdx[1]]
        elif degree > 1:
            roots = np.roots(dsdx[degree::-1])
            inside = roots.real[roots.imag == 0].tolist()
        else:
            inside = []
        angles += [math.acos(x) / (4 * k) for x in inside if abs(x) < 1.0]
    return [squeeze_parameter(coeffs, phi) for phi in angles]


def classify_directions(coeffs: SqueezeCoeffs) -> DirectionReport:
    """Classify the angular layout of squeezing from the extrema of S.

    s_min and s_max are the extremes of `_stationary_values`.  S is
    stationary on the lattice phi = n pi/4k, where it equals S(0) for
    even n and S(pi/4k) for odd n; the family with the smaller value
    gives the squeeze angles, the other family the stretch angles.  The
    regime label records the sign of the leading harmonic implied by
    that layout; no squeezing anywhere, or no harmonic, leaves both
    lists empty.
    """
    k = coeffs.k
    flat = not any(coeffs.harmonics)
    values = [coeffs.constant] if flat else _stationary_values(coeffs)
    s_min, s_max = min(values), max(values)
    if flat or s_min >= 0.0:
        return DirectionReport(Regime.NO_SQUEEZING, (), (), s_min, s_max)

    s_even, s_odd = values[:2]
    odd_family = tuple((1 + 2 * n) * math.pi / (4 * k) for n in range(2 * k))
    even_family = tuple(n * math.pi / (2 * k) for n in range(2 * k))
    if s_odd <= s_even:
        return DirectionReport(Regime.LEADING_POSITIVE, odd_family, even_family, s_min, s_max)
    return DirectionReport(Regime.LEADING_NEGATIVE, even_family, odd_family, s_min, s_max)
