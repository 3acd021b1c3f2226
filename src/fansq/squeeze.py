"""Higher-order quadrature squeezing of fan states.

The Nth central moment of the rotated quadrature splits into a constant
part plus harmonics in cos(4pk * phi); squeezing means the total dips
below the coherent-state benchmark (N-1)!! / 2^(N/2).  This module
assembles that decomposition from the moment series, provides the
small-xi leading-order form for the identity nonlinearity, and
classifies squeezing/stretching directions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Any, Mapping, NamedTuple, Sequence, Union

from ._optimize import bisect_root
from .errors import DomainError, FansqError
from .fanstate import (
    DEFAULT_CONTROL,
    FanConfig,
    NonlinearModel,
    SeriesControl,
    moment,
    moment_row,
)
from .specfun import double_factorial


def min_order(k: int) -> int:
    """Lowest moment order that can show squeezing: 4k."""
    if k < 1:
        raise DomainError(f"fan order must be >= 1, got {k}")
    return 4 * k


def vacuum_benchmark(N: int) -> float:
    """Coherent-state value of the Nth central quadrature moment."""
    if N < 2 or N % 2 != 0:
        raise DomainError(f"moment order must be even and >= 2, got {N}")
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


def _check_order(N: int) -> None:
    if N < 2 or N % 2 != 0:
        raise DomainError(f"moment order must be even and >= 2, got {N}")


@lru_cache(maxsize=256)
def coefficients(
    cfg: FanConfig, N: int, ctl: SeriesControl = DEFAULT_CONTROL
) -> SqueezeCoeffs:
    """Assemble the decomposition from normally-ordered moments."""
    _check_order(N)
    moments = {(l, m): moment(cfg, l, m, ctl) for l, m in _moment_pairs(cfg.k, N)}
    const, harmonics = _assemble(cfg.k, N, moments)
    return SqueezeCoeffs(k=cfg.k, N=N, constant=const, harmonics=tuple(harmonics))


def coefficients_row(
    k: int,
    xi_sq: Sequence[float],
    models: Sequence[NonlinearModel],
    N: int,
    ctl: SeriesControl = DEFAULT_CONTROL,
) -> list[Union[SqueezeCoeffs, FansqError]]:
    """`coefficients` for a row of points of one order k.

    Entry j is what `coefficients(FanConfig.from_xi_sq(k, xi_sq[j],
    models[j]), N, ctl)` returns, up to rounding, or the error it
    raises.  All series of the row are summed together by `moment_row`.
    """
    _check_order(N)
    for x in xi_sq:
        if not (math.isfinite(x) and x >= 0):
            raise DomainError(f"xi_sq must be finite and >= 0, got {x}")
    row = moment_row(k, [math.sqrt(x) for x in xi_sq], models, _moment_pairs(k, N), ctl)
    const, harmonics = _assemble(k, N, row.values)
    const, harmonics = const.tolist(), [h.tolist() for h in harmonics]
    return [
        err
        if err is not None
        else SqueezeCoeffs(k=k, N=N, constant=const[j], harmonics=tuple(h[j] for h in harmonics))
        for j, err in enumerate(row.errors)
    ]


def squeeze_parameter(coeffs: SqueezeCoeffs, phi: float) -> float:
    """S(phi) = constant + sum_p harmonics[p-1] cos(4pk phi).

    Negative values mean squeezing below the coherent benchmark; the
    construction bounds S from below by -benchmark, which is checked on
    every evaluation (FansqError if it fails).  A non-finite phi is a
    DomainError.
    """
    if not math.isfinite(phi):
        raise DomainError(f"phase must be finite, got {phi}")
    s = coeffs.constant
    for p, b in enumerate(coeffs.harmonics, start=1):
        s += b * math.cos(4 * p * coeffs.k * phi)
    floor = -vacuum_benchmark(coeffs.N)
    if not s >= floor - 1e-12 * max(1.0, -floor):
        raise FansqError(f"S={s} fell below the moment positivity bound {floor}")
    return s


class ApproxResult(NamedTuple):
    value: float
    dominance: float


def squeeze_approx(coeffs: SqueezeCoeffs, phi: float) -> ApproxResult:
    """Single-harmonic truncation plus how much the dropped terms weigh.

    dominance = max_{p>=2} |harmonics[p-1]| / |harmonics[0]|; zero when
    there is at most one harmonic or the leading one vanishes.
    """
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
    if N < min_order(k):
        raise DomainError(f"order N={N} below the minimum {min_order(k)} for k={k}")
    if N % 2 != 0:
        raise DomainError(f"moment order must be even, got {N}")
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


def _stationary_values(coeffs: SqueezeCoeffs) -> tuple[float, float, float, float]:
    """Extrema of S over one period.

    Every multiple of pi/4k is a stationary point of the harmonic sum;
    additional stationary points between lattice points are located by
    bisecting the derivative.  Returns (s_min, s_max, argmin, argmax).
    """
    k = coeffs.k
    lattice = math.pi / (4 * k)

    def deriv(phi: float) -> float:
        return -sum(
            4 * p * k * b * math.sin(4 * p * k * phi)
            for p, b in enumerate(coeffs.harmonics, start=1)
        )

    candidates = [0.0, lattice]
    # interior stationary points on (0, pi/4k) and (pi/4k, pi/2k)
    probes = 8 * max(1, len(coeffs.harmonics))
    for base in (0.0, lattice):
        xs = [base + lattice * (i + 1) / (probes + 1) for i in range(probes)]
        vals = [deriv(x) for x in xs]
        for (x0, d0), (x1, d1) in zip(zip(xs, vals), zip(xs[1:], vals[1:])):
            if d0 == 0.0:
                candidates.append(x0)
            elif (d0 > 0) != (d1 > 0):
                candidates.append(bisect_root(deriv, x0, x1, 1e-14, fa=d0, fb=d1))

    values = [squeeze_parameter(coeffs, x) for x in candidates]
    i_min = min(range(len(values)), key=values.__getitem__)
    i_max = max(range(len(values)), key=values.__getitem__)
    return values[i_min], values[i_max], candidates[i_min], candidates[i_max]


def classify_directions(coeffs: SqueezeCoeffs) -> DirectionReport:
    """Classify the angular layout of squeezing from the computed extrema.

    The lattice phi = n pi/4k always holds stationary points; whichever
    lattice family (odd or even multiples) attains the smaller S gives
    the squeeze angles, the other family the stretch angles.  The
    regime label records the sign of the leading harmonic implied by
    that layout; no squeezing anywhere leaves both lists empty.
    """
    k = coeffs.k
    if not coeffs.harmonics or all(b == 0.0 for b in coeffs.harmonics):
        s = coeffs.constant
        return DirectionReport(
            regime=Regime.NO_SQUEEZING,
            squeeze_angles=(),
            stretch_angles=(),
            s_min=s,
            s_max=s,
        )

    s_min, s_max, _, _ = _stationary_values(coeffs)
    if s_min >= 0.0:
        return DirectionReport(
            regime=Regime.NO_SQUEEZING,
            squeeze_angles=(),
            stretch_angles=(),
            s_min=s_min,
            s_max=s_max,
        )

    s_even = squeeze_parameter(coeffs, 0.0)
    s_odd = squeeze_parameter(coeffs, math.pi / (4 * k))
    odd_family = tuple((1 + 2 * n) * math.pi / (4 * k) for n in range(2 * k))
    even_family = tuple(n * math.pi / (2 * k) for n in range(2 * k))
    if s_odd <= s_even:
        regime = Regime.LEADING_POSITIVE
        squeeze_angles, stretch_angles = odd_family, even_family
    else:
        regime = Regime.LEADING_NEGATIVE
        squeeze_angles, stretch_angles = even_family, odd_family
    return DirectionReport(
        regime=regime,
        squeeze_angles=squeeze_angles,
        stretch_angles=stretch_angles,
        s_min=s_min,
        s_max=s_max,
    )
