"""Fan states: nonlinearity models, normalization, and moment series.

A fan state of order k is an equal-weight superposition of 2k nonlinear
coherent states whose eigenvalues share one magnitude xi and fan out at
angles pi*q/2k in the complex plane.  The superposition cancels every
Fock level except multiples of 4k, and every normally-ordered moment
reduces to a single sum over Fock levels weighted by factorials and
running products of the nonlinearity.  Those sums are evaluated here in
sign/log arithmetic with compensated accumulation, so factorial growth
never touches floating-point range limits.

Conventions fixed by this module:
  * xi is real and nonnegative; the eigenvalue phases are folded into
    the even/odd interference factor analytically and never stored.
  * the running nonlinearity product steps by 2k (the component states
    are 2k-quantum), terminating with its last factor at index 2k.
  * the interference factor makes every odd summation index an exact
    zero, so the series visit the even ones only.  A series stops at
    the index after its first even term at most rel_tol times the
    accumulated sum, within n_max indices of its first index n0, odd
    ones counted.  A small term at an even n0 has underflowed to 0.0
    and stops nothing alone; with a small term at n0 + 2 the series
    stops there.

The series of one point (`normalization`, `moment`) are one loop each
over the plain lists of the model's `ProductTable` (signs and
log-magnitudes of the running products, grown up to the first pole)
and the log-factorial table, with the compensation and every check
inline; it stops at the first term that completes the tail test.
Results and tables sit in bounded memo tables.  `fansq.rows` sums the
same series for a row of points at once.
"""

from __future__ import annotations

import copy
import math
from array import array
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Union

import numpy as np

from .errors import (
    DomainError,
    FansqError,
    SeriesNotConverged,
    SingularNonlinearity,
    nonnegative_float,
    nonnegative_int,
    positive_float,
    positive_int,
)
from .specfun import _grow_laguerre_pair, log_factorial

_LOG_HUGE = 700.0  # ln of near-overflow; a term this large means divergence

# the live ln(n!) list the series loops index; they only read it
_live_log_factorials = log_factorial.live


@dataclass(frozen=True)
class Identity:
    """Nonlinearity equal to one: ordinary multi-quantum coherent states."""


@dataclass(frozen=True)
class TrappedIon:
    """Laguerre-ratio nonlinearity of a laser-driven trapped ion.

    eta_sq is the squared Lamb-Dicke parameter; quantum_order is the
    sideband order K.  The value at Fock argument m is

        (m-K)! L_{m-K}^{K}(eta_sq) / ( m! L_{m-K}^{0}(eta_sq) )

    defined for m >= K.  Zeros of the denominator polynomial make the
    state ill-defined; evaluation aborts there rather than skipping.
    """

    eta_sq: float
    quantum_order: int

    def __post_init__(self) -> None:
        positive_int("quantum_order", self.quantum_order)
        positive_float("eta_sq", self.eta_sq)


NonlinearModel = Union[Identity, TrappedIon]


def _check_fan(k: int, model: NonlinearModel) -> None:
    positive_int("fan order k", k)
    if isinstance(model, TrappedIon) and model.quantum_order != 2 * k:
        raise DomainError(
            f"trapped-ion quantum_order must equal 2k = {2 * k}, got {model.quantum_order}"
        )


@dataclass(frozen=True)
class FanConfig:
    """Everything that pins down one fan state: order k, eigenvalue magnitude, model."""

    k: int
    xi: float
    model: NonlinearModel

    def __post_init__(self) -> None:
        _check_fan(self.k, self.model)
        nonnegative_float("xi", self.xi)

    @property
    def xi_sq(self) -> float:
        return self.xi * self.xi

    @classmethod
    def from_xi_sq(cls, k: int, xi_sq: float, model: NonlinearModel) -> "FanConfig":
        nonnegative_float("xi_sq", xi_sq)
        return cls(k, math.sqrt(xi_sq), model)


@dataclass(frozen=True)
class DriveParams:
    """Carrier/sideband drive of the trapped ion.

    omega0: carrier Rabi frequency; omega1: sideband Rabi frequency;
    eta: Lamb-Dicke parameter; quantum_order: sideband order K.
    """

    omega0: float
    omega1: float
    eta: float
    quantum_order: int

    def __post_init__(self) -> None:
        for name in ("omega0", "omega1", "eta"):
            positive_float(name, getattr(self, name))
        positive_int("quantum_order", self.quantum_order)


@dataclass(frozen=True)
class SeriesControl:
    """Truncation policy for the infinite Fock-level sums."""

    rel_tol: float = 1e-16
    n_max: int = 5000

    def __post_init__(self) -> None:
        positive_float("rel_tol", self.rel_tol)
        # a tolerance of one or more accepts terms as large as the sum
        if self.rel_tol >= 1:
            raise DomainError(f"rel_tol must be < 1, got {self.rel_tol}")
        positive_int("n_max", self.n_max)


DEFAULT_CONTROL = SeriesControl()


# ---------------------------------------------------------------------------
# nonlinearity values and running products

_LAGUERRE_FLOOR = 1e-12  # |L_j^0(eta_sq)| below this makes f(j + K), which divides by it, a pole


def _singular_factor(eta_sq: float, m: int, step: int, den: float) -> SingularNonlinearity:
    """The error of a factor f(m), which divides L_{m-step}^step by
    L_{m-step}^0(eta_sq) = den: a pole if |den| is below the floor, else a zero."""
    if abs(den) < _LAGUERRE_FLOOR:
        return SingularNonlinearity(
            f"denominator Laguerre polynomial of degree {m - step} vanishes at "
            f"eta_sq={eta_sq} (|value|={abs(den):.3e} below floor {_LAGUERRE_FLOOR})",
            index=m,
        )
    return SingularNonlinearity(
        f"nonlinearity vanishes exactly at Fock argument {m}; "
        "downstream amplitude ratios are undefined",
        index=m,
    )


class ProductTable:
    """Running products of f for one model, at multiples of its quantum order K.

    sign[i] and logmag[i] hold f(K) f(2K) ... f(iK), entry 0 is one (the
    identity's factors are one at any step).  The lists grow on demand up
    to the first index whose factor is singular; `error` is what reaching
    that index raises.  A trapped-ion table also holds the Laguerre values
    L_j^0(eta_sq) and L_j^K(eta_sq) its factors divide, as C doubles:
    f(m) = (m-K)! L_j^K / (m! L_j^0) at degree j = m - K.
    """

    __slots__ = ("model", "sign", "logmag", "error", "_den", "_num")

    def __init__(self, model: NonlinearModel) -> None:
        self.model = model
        self.sign = [1]
        self.logmag = [0.0]
        self.error: Optional[FansqError] = None
        ion = isinstance(model, TrappedIon)
        self._den = array("d", [1.0]) if ion else None
        self._num = array("d", [1.0]) if ion else None

    def _grow(self, n: int) -> tuple[array, array]:
        den, num = self._den, self._num
        if n >= len(den):
            _grow_laguerre_pair(den, num, self.model.quantum_order, self.model.eta_sq, n)
        return den, num

    def laguerre(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """L_0^0 .. L_n^0 and L_0^K .. L_n^K at the model's eta_sq, as new arrays."""
        den, num = self._grow(n)
        return np.array(den[: n + 1]), np.array(num[: n + 1])

    def reach(self, j: int) -> None:
        """Hold entries up to index j, or raise the error of a pole at or below j."""
        sign, logmag = self.sign, self.logmag
        size = len(logmag)
        if size <= j and self._den is None:  # the identity model: every factor is one
            sign.extend([1] * (j + 1 - size))
            logmag.extend([0.0] * (j + 1 - size))
        elif size <= j and self.error is None:
            step = self.model.quantum_order
            den, num = self._grow(step * (j - 1))
            lf = _live_log_factorials(step * j)
            for m in range(step * size, step * j + 1, step):
                d, u = den[m - step], num[m - step]
                if abs(d) < _LAGUERRE_FLOOR or u == 0.0:
                    self.error = _singular_factor(self.model.eta_sq, m, step, d)
                    break
                sign.append(sign[-1] if (u > 0) == (d > 0) else -sign[-1])
                logmag.append(
                    logmag[-1]
                    + (lf[m - step] - lf[m] + math.log(abs(u)) - math.log(abs(d)))
                )
        if len(logmag) <= j:
            raise copy.copy(self.error)


product_table = lru_cache(maxsize=64)(ProductTable)  # the memoized table of a model


# ---------------------------------------------------------------------------
# series engine


def _series_sum(
    cfg: FanConfig, ctl: SeriesControl, l: int = 0, m: int = 0, norm: bool = False
) -> float:
    """The normalization series (norm) or the (l, m) moment series, summed.

    Term n is zero at odd n (the interference factor), else exp of
    2 ln 2k + 4kn ln xi - ln (2kn - m)! minus the log-products at n and
    n + (l - m)/2k, or twice the one at n for the normalization.  The
    loop visits the even n from the first index n0 on, and the Neumaier
    sum stops by the module's stop rule; a pole, a term past float range
    or no stop within n_max indices raise, and a trapped-ion series at
    rho = xi^2 eta^2 >= 1, where it diverges, raises at once as the last.
    """
    k = cfg.k
    if isinstance(cfg.model, TrappedIon) and cfg.xi * cfg.xi * cfg.model.eta_sq >= 1:
        what = f"normalization k={k}" if norm else f"moment l={l} m={m} k={k}"
        rho = cfg.xi * cfg.xi * cfg.model.eta_sq
        raise SeriesNotConverged(
            f"{what} xi={cfg.xi}: the series diverges at rho = xi^2 eta^2 = {rho} >= 1"
        )
    step = 2 * k
    tab = product_table(cfg.model)
    sign, logp = tab.sign, tab.logmag
    shift = (l - m) // step
    n0 = -(-m // step)  # ceil(m / 2k): the first level the moment reaches
    lead = 2 * math.log(step)
    log_xi = math.log(cfg.xi)
    lf = _live_log_factorials(step * (n0 + 1))
    rel_tol, n_max = ctl.rel_tol, ctl.n_max
    s = c = 0.0
    n = n0 + n0 % 2
    while n - n0 < n_max:
        top = n + shift
        if top >= len(logp):
            tab.reach(top)
        i = step * n - m
        if i >= len(lf):
            _live_log_factorials(2 * i)
        x = lead + (4 * k * n) * log_xi - lf[i]
        x = x - 2 * logp[n] if norm else x - logp[n] - logp[top]
        if x > _LOG_HUGE:
            what = "normalization" if norm else f"moment ({l},{m})"
            raise SeriesNotConverged(f"{what} term at index {n} exceeds float range")
        if norm:  # the leading term is exactly (2k)^2: xi -> 0 stays exact
            t = math.exp(x) if n else float(4 * k * k)
        else:
            t = sign[n] * sign[top] * math.exp(x)
        u = s + t
        if abs(s) >= abs(t):
            c += (s - u) + t
        else:
            c += (t - u) + s
        s = u
        # stop at the odd index after a small term, within n_max indices;
        # a zero sum at n0 + 2 means both terms underflowed: stop there
        if (
            abs(t) <= rel_tol * abs(s + c)
            and n > n0
            and (n + 1 - n0 < n_max or (n == n0 + 2 and s + c == 0.0))
        ):
            return s + c
        n += 2
    what = f"normalization k={k}" if norm else f"moment l={l} m={m} k={k}"
    raise SeriesNotConverged(f"{what} xi={cfg.xi}: tail criterion not met after {n_max} terms")


@lru_cache(maxsize=256)
def normalization(cfg: FanConfig, ctl: SeriesControl = DEFAULT_CONTROL) -> float:
    """Squared norm of the unnormalized fan superposition; always > 0.

    Sum over Fock support: the interference factor squared keeps only
    even summation indices, each weighted by xi^(4km) / ((2km)! times
    the squared running product).
    """
    if cfg.xi == 0.0:  # the vacuum: no product is read, so no pole can fail it
        return float(4 * cfg.k * cfg.k)
    return _series_sum(cfg, ctl, norm=True)


@lru_cache(maxsize=4096)
def _moment_cached(cfg: FanConfig, l: int, m: int, ctl: SeriesControl) -> float:
    """The memoized (l, m) moment for l >= m with l - m a multiple of 4k.

    `moment` answers every other pair before the memo.
    """
    if cfg.xi == 0.0:
        return 1.0 if l == 0 and m == 0 else 0.0
    total = _series_sum(cfg, ctl, l, m)
    d = normalization(cfg, ctl)
    return (cfg.xi ** (l - m)) * total / d


def moment(cfg: FanConfig, l: int, m: int, ctl: SeriesControl = DEFAULT_CONTROL) -> float:
    """Normally-ordered moment: expectation of (a-dagger)^l a^m, real xi.

    Zero unless the level offset l - m is an even multiple of 2k (the
    interference factor kills everything else); such a zero is answered
    here, with no memo lookup and no memo slot.  For l < m the value
    equals the swapped moment because xi is real.  Powers are nonnegative ints.
    """
    nonnegative_int("moment power l", l)
    nonnegative_int("moment power m", m)
    if (l - m) % (4 * cfg.k):  # an odd multiple of 2k vanishes by interference
        return 0.0
    if l < m:
        l, m = m, l
    return _moment_cached(cfg, l, m, ctl)


def xi_from_drive(d: DriveParams) -> float:
    """Eigenvalue magnitude set by the drive: (omega0 / (eta^K omega1))^(1/K).

    The drive fixes xi^K up to a phase; the phase is discarded because
    this package works in the convention that xi is real and the
    quadrature angle is measured from the xi direction.
    """
    K = d.quantum_order
    try:
        ratio = d.omega0 / (d.eta**K * d.omega1)
    except (OverflowError, ZeroDivisionError):  # eta^K above float range, or eta^K omega1 below it
        raise DomainError(f"drive ratio is out of float range at eta={d.eta}, K={K}") from None
    positive_float("drive ratio", ratio)
    return ratio ** (1.0 / K)
