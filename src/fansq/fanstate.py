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

Two paths evaluate the series, chosen by the shape of the input:
  * one point (`normalization`, `moment`): one loop per series over
    the plain lists of the model's `ProductTable` (signs and
    log-magnitudes of the running products, grown up to the first pole)
    and the log-factorial table, with the compensation and every check
    inline; it stops at the first term that completes the tail test.
    Results and tables sit in bounded memo tables.
  * a row of points of one order k, each with its own xi and model
    (`MomentRowPlan`; grid scans pass one eta_sq row with a shared model,
    boundary refinement one ITP probe per crossing): every
    series a point needs becomes one column of a 2-D numpy block of
    terms over the even summation indices (the odd ones are exact
    zeros).  `convergence_depth` predicts from rho = xi^2 eta^2 where
    each point's series stop.  The block grows by doubling, for the
    columns still running only, with one block boundary put at the
    deepest predicted stop of those columns.  The products of the
    nonlinearity come from a lattice with one column per distinct model,
    built once up front to the deepest predicted index, in numpy, from
    Laguerre values equal bit for bit to the scalar path's, so both find
    the same poles.  Each column replays the scalar path: the same
    terms, the same Neumaier sums (sequential cumulative sums plus their
    exact rounding errors), the same stop rule on the same even terms,
    and the same overflow, pole and term-cap checks, so its value does
    not depend on the block sizes, on the prediction or on which columns
    or models share the block.  A node whose series fail gets the
    outcome code (SINGULAR, OVERFLOW or CAPPED) of the failure the
    scalar path would raise first; the words of that error exist on
    the scalar path only.  The row path fills none of the scalar path's
    memo tables.  It runs in two steps: a `MomentRowPlan` takes what
    depends on (k, xi, pairs, ctl) alone (the checks, the series and
    their order, ln xi, the column parameters and xi^(l - m)), and its
    `run` does the rest for one list of models.  A scan makes one plan
    for its xi axis and runs it once per eta_sq row.
"""

from __future__ import annotations

import copy
import math
from array import array
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional, Sequence, Union

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
from .specfun import LaguerreRows, _grow_laguerre, log_factorial, log_factorials

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


def _nonnegative_array(name: str, values: Sequence[float]) -> np.ndarray:
    """values as a float array, or the DomainError of its first entry not finite and >= 0."""
    arr = np.array(values, dtype=float)
    bad = ~(np.isfinite(arr) & (arr >= 0))
    if bad.any():
        i = int(bad.argmax())
        nonnegative_float(f"{name}[{i}]", float(arr[i]))
    return arr


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


def nonlinearity_values(model: TrappedIon, fock: Sequence[int]) -> np.ndarray:
    """f(m) for each Fock argument m in fock, as floats, in one numpy expression.

    Built from the Laguerre values of the model's product table, so it
    meets the same poles; raises the table's error at the first argument
    in fock that is a denominator pole, and DomainError below K.
    """
    if not isinstance(model, TrappedIon):
        raise DomainError(f"nonlinearity_values needs a trapped-ion model, got {model!r}")
    K = model.quantum_order
    m = np.asarray(fock, dtype=int)
    if m.min(initial=K) < K:
        raise DomainError(f"nonlinearity argument {m.min()} below quantum order {K}")
    top = int(m.max(initial=K))
    den, num = (values[m - K] for values in product_table(model).laguerre(top - K))
    poles = np.flatnonzero(np.abs(den) < _LAGUERRE_FLOOR)
    if poles.size:
        j = int(poles[0])
        raise _singular_factor(model.eta_sq, int(m[j]), K, den[j])
    lf = log_factorials(top)
    return np.exp(lf[m - K] - lf[m]) * (num / den)


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
            _grow_laguerre(den, 0, self.model.eta_sq, n)
            _grow_laguerre(num, self.model.quantum_order, self.model.eta_sq, n)
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


_DEPTH_FACTOR = 1.25  # the bare count falls up to 30% short of the deepest stop of a c08 row
_DEPTH_PAD = 8  # summation indices added after the margin


def convergence_depth(
    k: int,
    xi: Sequence[float],
    models: Sequence[NonlinearModel],
    ctl: SeriesControl = DEFAULT_CONTROL,
) -> tuple[np.ndarray, np.ndarray]:
    """rho and the predicted stop index of the series of each point (xi[j], models[j]).

    For `TrappedIon(eta_sq, 2k)`, Fejer's asymptotics of the Laguerre
    polynomials (Szego, Orthogonal Polynomials, 8.22) give f(m) ~
    (m eta_sq)^-k, so the terms of every series fall like rho^(2kn) in
    the summation index n, with rho = xi^2 eta_sq: they converge for
    rho < 1 only.  The prediction is

        1.25 (ln(1/rel_tol) + ln(1/(1 - rho^2k))) / (2k ln(1/rho)) + 8,

    the second logarithm standing for the tail past the last term.  At
    rho >= 1 the series diverges, and both engines fail it unsummed; the
    count is then infinite or NaN, so the prediction is n_max.  The
    identity model's series are entire (rho = 0): a term xi^2m / m! with
    m = 2kn is below rel_tol once m >= max(e^2 xi^2, ln(1/rel_tol)), by
    ln m! >= m ln(m/e).  Indices are at most n_max.  The row engine
    sizes its blocks from these; no value depends on them.
    """
    if len(models) != len(xi):
        raise DomainError(f"need one model per xi, got {len(models)} for {len(xi)}")
    # models repeat along a scan row: check each object once, unhashed
    for model in {id(model): model for model in models}.values():
        _check_fan(k, model)
    xi_arr = _nonnegative_array("xi", xi)
    eta_sq = np.array([getattr(model, "eta_sq", 0.0) for model in models])
    ion = eta_sq > 0
    log_tol = -math.log(ctl.rel_tol)
    with np.errstate(all="ignore"):  # inf or NaN from rho = 1 on: fmin takes n_max
        xi_sq = xi_arr * xi_arr
        rho = np.where(ion, xi_sq * eta_sq, 0.0)
        tail = -np.log1p(-(rho ** (2 * k)))
        geometric = _DEPTH_FACTOR * (log_tol + tail) / (2 * k * np.abs(np.log(rho)))
    depth = np.where(ion, geometric, np.maximum(math.e**2 * xi_sq, log_tol) / (2 * k))
    return rho, np.fmin(np.ceil(depth) + _DEPTH_PAD, ctl.n_max).astype(int)


# ---------------------------------------------------------------------------
# row engine: the series of many points, each with its own model, as
# columns of one term block

_FIRST_BLOCK = 8  # even rows (16 indices) in the first block; each later block doubles the total
_NO_POLE = np.iinfo(np.int64).max


class _Lattice:
    """Signed log-products of f at multiples of 2k, one column per distinct model.

    Entry [i, g] holds the product that `ProductTable` holds at index i
    for model g, f(2k) f(4k) ... f(2k i).  It is built from the same
    Laguerre values and log-factorials in the same order, so only the
    logs may round differently.  pole[g] is the first index whose
    product is singular, or _NO_POLE; entries from there on repeat the
    last product before it, finite and unused.
    """

    def __init__(self, models: Sequence[NonlinearModel], step: int) -> None:
        self.step = step
        self.ion = np.flatnonzero([isinstance(model, TrappedIon) for model in models])
        eta_sq = [models[g].eta_sq for g in self.ion]
        # the quantum order K is 2k = step: both Laguerre orders in one table
        self.laguerre = LaguerreRows(np.repeat([0, step], len(eta_sq)), np.tile(eta_sq, 2))
        self.sign = np.ones((1, len(models)))
        self.logmag = np.zeros((1, len(models)))
        self.pole = np.full(len(models), _NO_POLE)
        self._tables: Optional[tuple[np.ndarray, np.ndarray]] = None

    def tables(self) -> tuple[np.ndarray, np.ndarray]:
        """The log-products and signs as flat tables of 3 x groups entries per index.

        Index i holds the log-products at i, their doubles and zeros, and
        the signs, ones and ones.  Built once per growth of the lattice.
        """
        if self._tables is None:
            zeros, ones = np.zeros_like(self.logmag), np.ones_like(self.sign)
            self._tables = (
                np.hstack((self.logmag, 2 * self.logmag, zeros)).ravel(),
                np.hstack((self.sign, ones, ones)).ravel(),
            )
        return self._tables

    def positions(self, first, second, norm, g) -> tuple[np.ndarray, np.ndarray]:
        """Where a column's products at indices first and second sit in the tables.

        A normalization column reads its first product doubled and its
        second as one, so one formula serves both kinds of column.
        """
        groups = self.pole.size
        return (3 * first + norm) * groups + g, (3 * second + 2 * norm) * groups + g

    def extend(self, j: int) -> None:
        """Hold products up to index j."""
        size = self.sign.shape[0]
        if j < size:
            return
        self._tables = None
        step, count, ion = self.step, len(self.ion), self.ion
        fock = step * np.arange(size, j + 1)[:, None]
        sign = np.ones((fock.size, self.pole.size))
        logmag = np.zeros((fock.size, self.pole.size))
        if count:
            # factor f(m) divides L^K by L^0, both of degree m - K
            lag = self.laguerre.upto(step * (j - 1))[fock[:, 0] - step]
            den, num = lag[:, :count], lag[:, count:]
            bad = (np.abs(den) < _LAGUERRE_FLOOR) | (num == 0.0)
            first = bad.argmax(axis=0)
            new_pole = bad[first, np.arange(count)] & (self.pole[ion] == _NO_POLE)
            # unused from the first pole on
            bad |= np.arange(fock.size)[:, None] >= np.where(new_pole, first, fock.size)
            bad[:, self.pole[ion] != _NO_POLE] = True
            lf = log_factorials(step * j)
            logf = (
                (lf[fock - step] - lf[fock])
                + np.log(np.where(bad, 1.0, np.abs(num)))
                - np.log(np.where(bad, 1.0, np.abs(den)))
            )
            sign[:, ion] = np.where(bad | ((num > 0) == (den > 0)), 1.0, -1.0)
            logmag[:, ion] = np.where(bad, 0.0, logf)
            self.pole[ion[new_pole]] = size + first[new_pole]
        self.sign = np.vstack((self.sign, np.cumprod(np.vstack((self.sign[-1], sign)), axis=0)[1:]))
        self.logmag = np.vstack(
            (self.logmag, np.cumsum(np.vstack((self.logmag[-1], logmag)), axis=0)[1:])
        )


class _Columns(NamedTuple):
    """Per-column parameters of the term block (one series at one xi).

    The last four say where the kernel reads row 0 of a column; row r
    reads 2r indices further on.
    """

    g: np.ndarray  # lattice column of the column's model
    n0: np.ndarray  # first summation index
    shift: np.ndarray  # lattice offset (l - m) / 2k of the second product
    m: np.ndarray  # annihilation power; 0 for the normalization
    norm: np.ndarray  # True for normalization columns
    log_xi: np.ndarray
    power: np.ndarray  # 4k e0 as a float: the multiple of ln xi
    lf: np.ndarray  # 2k e0 - m: the position of ln (2k e0 - m)! in the log-factorial table
    first: np.ndarray  # the position of the first product in the lattice's flat tables
    second: np.ndarray  # the position of the second product there

    def take(self, cols: np.ndarray) -> "_Columns":
        return _Columns(*(field[cols] for field in self))


def _rows(flat: np.ndarray, start: int, stride: int, rows: int, width: int) -> np.ndarray:
    """The view whose entry [r, j] is flat[start + stride r + j]; no copy, bounds checked."""
    size = flat.itemsize
    return np.ndarray((rows, width), flat.dtype, flat, start * size, (stride * size, size))


def _first(mask: np.ndarray) -> np.ndarray:
    """Row of the first True in each column, or the row count if none."""
    row = mask.argmax(axis=0)
    return np.where(mask[row, np.arange(mask.shape[1])], row, mask.shape[0])


def _term_block(lat: _Lattice, k: int, a: int, b: int, p: _Columns, out: np.ndarray):
    """Terms at rows a..b-1 of every column, as in `_series_sum`, into out.

    Row r is the even summation index e0 + 2r, e0 = n0 rounded up to
    even; each table is read through a strided view of its rows, with
    no index array.  Returns (fail, singular): per column, the first
    row of the block at which the scalar path raises (b - a if none),
    and whether it raises there for a pole (else for a term past float
    range).  The pole row is the first with e0 + 2r + shift at or past
    the pole, in closed form; a term past float range fails first only
    on an earlier row.  From its failing row on a column's terms are
    finite and unused: the lattice holds finite entries past a pole,
    and the log-magnitudes are clamped at _LOG_HUGE before exp.
    """
    step, rows = 2 * k, b - a
    wide = 3 * lat.pole.size  # flat-table entries per lattice index
    width = int(p.second.max()) + 1
    lat.extend(2 * (b - 1) + (width - 1) // wide)
    logmag, sign = lat.tables()
    lf_width = int(p.lf.max()) + 1
    lf = log_factorials(2 * step * (b - 1) + lf_width - 1)
    # 2 ln 2k + 4kn ln xi - ln (2kn - m)! minus the two log-products
    np.add((4.0 * step) * np.arange(a, b)[:, None], p.power, out=out)
    out *= p.log_xi
    out += 2 * math.log(step)
    out -= _rows(lf, 2 * step * a, 2 * step, rows, lf_width).take(p.lf, axis=1)
    products = _rows(logmag, 2 * wide * a, 2 * wide, rows, width)
    out -= products.take(p.first, axis=1)
    out -= products.take(p.second, axis=1)
    fail = np.full(p.first.size, rows)
    if out.max() > _LOG_HUGE:
        fail = _first(out > _LOG_HUGE)
        np.minimum(out, _LOG_HUGE, out=out)
    np.exp(out, out=out)
    signs = _rows(sign, 2 * wide * a, 2 * wide, rows, width)
    out *= signs.take(p.first, axis=1)
    out *= signs.take(p.second, axis=1)
    if a == 0:  # the leading normalization term is exactly (2k)^2, as in `normalization`
        out[0, p.norm] = float(4 * k * k)
    if lat.pole.min() == _NO_POLE:  # no model of the row meets a pole
        return fail, np.zeros(fail.size, dtype=bool)
    pole = np.maximum(-((p.second // wide - lat.pole[p.g]) // 2) - a, 0)
    return np.minimum(pole, fail), pole <= fail


# how a series ended: it stopped on the stop rule, or failed as the
# scalar path does at a pole, at a term past float range, or at the term cap
RUNNING, STOPPED, SINGULAR, OVERFLOW, CAPPED = range(5)


def _sum_columns(lat: _Lattice, k: int, p: _Columns, ctl: SeriesControl, ends: np.ndarray):
    """Per-column `_series_sum`: returns the sums and the outcome codes.

    The rows are the even terms.  Each column's Neumaier sum is replayed
    as a sequential cumulative sum with its rounding errors summed the
    same way beside it; an error comes from Knuth's TwoSum, which gives
    the same exact error as Neumaier's branch.  The stop rule is the
    scalar path's, with its three exceptions applied only where they
    can bite: an even n0's first term stops nothing (row 0 of block 0),
    a zero sum at n0 + 2 stops there (only when n_max <= 3), and no stop
    or failure counts past the term cap (only in the block that reaches
    it).  ends[c] is the row after the predicted stop of column c: a
    block that would run past the deepest end of the running columns
    ends there, and the blocks double again after it.
    """
    width = p.n0.size
    sums = np.full(width, np.nan)
    outcome = np.full(width, RUNNING)
    cols = np.arange(width)
    acc = np.zeros(width)  # Neumaier sum and compensation, carried
    comp = np.zeros(width)
    rel_tol, n_max = ctl.rel_tol, ctl.n_max
    last = (n_max + 1) // 2
    a = 0
    size = _FIRST_BLOCK
    here = p
    deepest = int(ends.max(initial=0))
    while cols.size:
        b = min(a + size, last)
        if a < deepest < b:
            b = deepest
        rows = b - a
        # row 0 carries the sums in, rows 1.. take the terms
        partial = np.empty((rows + 1, cols.size))
        partial[0] = acc
        x = partial[1:]
        fail, singular = _term_block(lat, k, a, b, here, x)
        partial = np.cumsum(partial, axis=0)
        prev, s = partial[:-1], partial[1:]
        # TwoSum: the exact rounding error of each partial sum
        back = s - prev
        err = s - back
        np.subtract(prev, err, out=err)
        np.subtract(x, back, out=back)
        c = np.empty_like(partial)
        c[0] = comp
        np.add(err, back, out=c[1:])
        c = np.cumsum(c, axis=0)[1:]
        # a small term stops its column at the odd index after it; the
        # last row, all True, makes argmax give `rows` where none is small
        small = np.ones((rows + 1, cols.size), dtype=bool)
        bound = np.abs(s + c)
        bound *= rel_tol
        np.less_equal(np.abs(x, out=back), bound, out=small[:-1])
        if a == 0:  # a term at an even n0 has underflowed, and stops nothing
            small[0] &= (here.n0 & 1) == 1
        stop = small.argmax(axis=0)
        if b == last:  # no stop past the term cap, and no failure at the index past it
            odd = here.n0 & 1
            cap = (n_max - odd) // 2 - a
            if n_max == 3:  # a zero sum at n0 + 2 (row 1) means both terms underflowed: stop there
                cap[(odd == 0) & (s[1 - a] + c[1 - a] == 0.0)] = 2 - a
            stop[stop >= cap] = rows
            fail[fail >= (n_max + 1 - odd) // 2 - a] = rows
        # a failing term raises before it is added, so it beats a stop there
        stopped = stop < fail
        ended = np.minimum(stop, fail) < rows
        code = np.where(stopped, STOPPED, np.where(singular, SINGULAR, OVERFLOW))
        outcome[cols[ended]] = code[ended]
        at = np.flatnonzero(stopped)
        row = stop[at]
        sums[cols[at]] = s[row, at] + c[row, at]
        if b == last:
            outcome[cols[~ended]] = CAPPED
            break
        acc, comp = s[-1], c[-1]
        if ended.any():
            rest = ~ended
            cols = cols[rest]
            acc, comp, here = acc[rest], comp[rest], p.take(cols)
            deepest = int(ends[cols].max(initial=0))
        a, size = b, b
    return sums, outcome


@dataclass(frozen=True)
class MomentRow:
    """Moments of a row of fan states of one order k, one per (xi, model).

    values[(l, m)][j] is `moment(FanConfig(k, xi[j], models[j]), l, m,
    ctl)` up to rounding.  outcome[j] is STOPPED where every series of
    node j stopped (xi = 0 included), else the code of the failure the
    scalar path raises first when it evaluates the pairs in the given
    order: SINGULAR for its `SingularNonlinearity`, OVERFLOW and CAPPED
    for its `SeriesNotConverged` of a term past float range and of the
    term cap.  Values are NaN at a failed node.
    """

    values: dict[tuple[int, int], np.ndarray]
    outcome: np.ndarray


def _xi_power(xi: float, diff: int) -> float:
    """xi**diff, with the scalar path's `**`, or inf past float range.

    A node that far out fails its series first, so its values are NaN.
    """
    try:
        return xi**diff
    except OverflowError:
        return math.inf


class MomentRowPlan:
    """Normally-ordered moments at many xi of one order k, in one term block per run.

    Each series the pairs need (the normalization and every moment not
    zero by symmetry) is one column per positive xi, and columns stop
    on the scalar stop rule.  A scan runs one xi axis against every
    eta_sq row, so what depends only on (k, xi, pairs, ctl) is taken
    once, here: the checks of k, xi and the pairs, the live (positive)
    xi, the series each node needs and their order, ln xi per live node
    and the column parameters of the term block, and xi^(l - m) per
    series and live node, with `math.log` and `**` as the scalar path
    takes them.  `run` does the rest for one list of models, one per xi.
    """

    def __init__(
        self,
        k: int,
        xi: Sequence[float],
        pairs: Sequence[tuple[int, int]],
        ctl: SeriesControl = DEFAULT_CONTROL,
    ) -> None:
        positive_int("fan order k", k)
        zero = _nonnegative_array("xi", xi) == 0.0
        for l, m in pairs:
            nonnegative_int("moment power l", l)
            nonnegative_int("moment power m", m)
        self.k, self.xi, self.ctl = k, list(xi), ctl
        step = 2 * k
        self.live = live = np.flatnonzero(~zero)
        ordered = {(max(l, m), min(l, m)): None for l, m in pairs}
        series = [lm for lm in ordered if (lm[0] - lm[1]) % (2 * step) == 0]
        # the scalar path sums the first moment, then the normalization it
        # divides by, then the others: that order decides which error a
        # node reports
        if series:
            series.insert(1, None)
        self.series = series
        log_xi = np.array([math.log(self.xi[j]) for j in live])

        def per_column(f):
            return np.repeat([f(lm) for lm in series], live.size)

        n0 = per_column(lambda lm: 0 if lm is None else -(-lm[1] // step))
        m = per_column(lambda lm: 0 if lm is None else lm[1])
        self.e0 = e0 = n0 + n0 % 2  # row r of a column is the even index e0 + 2r
        # g and the lattice positions come with the models
        unset = np.zeros_like(n0)
        self.columns = _Columns(
            g=unset,
            n0=n0,
            shift=per_column(lambda lm: 0 if lm is None else (lm[0] - lm[1]) // step),
            m=m,
            norm=per_column(lambda lm: lm is None),
            log_xi=np.tile(log_xi, len(series)),
            power=(2 * step * e0).astype(float),
            lf=step * e0 - m,
            first=unset,
            second=unset,
        )
        self.powers = [
            None if lm is None else np.array([_xi_power(self.xi[j], lm[0] - lm[1]) for j in live])
            for lm in series
        ]
        # per pair: its series, and its value at xi = 0 (the vacuum)
        self.outputs = []
        for l, m in pairs:
            lm = (max(l, m), min(l, m))
            at_zero = np.where(zero, float(lm == (0, 0)), 0.0)
            self.outputs.append(((l, m), series.index(lm) if lm in series else None, at_zero))

    def run(self, models: Sequence[NonlinearModel]) -> MomentRow:
        """The moments at models[j] for each xi[j], in one term block.

        A trapped-ion node at rho >= 1 is CAPPED without a term summed,
        as the scalar path raises there at once.  The lattice of products
        is built once per distinct model of the other nodes, up front to
        the deepest index `convergence_depth` predicts.
        """
        k, ctl, live, series = self.k, self.ctl, self.live, self.series
        rho, depth = convergence_depth(k, self.xi, models, ctl)
        summed = np.flatnonzero(rho[live] < 1)  # positions in live
        nodes = live[summed].tolist()
        # a row shares few model objects: hash each once; equal models share a column
        objects = {id(models[j]): models[j] for j in nodes}
        groups: dict[NonlinearModel, int] = {}
        by_id = {i: groups.setdefault(model, len(groups)) for i, model in objects.items()}
        group = [by_id[id(models[j])] for j in nodes]
        lat = _Lattice(list(groups), 2 * k)
        params, e0 = self.columns, self.e0
        if summed.size < live.size:
            cols = (np.arange(len(series))[:, None] * live.size + summed).ravel()
            params, e0 = params.take(cols), e0[cols]
        g = np.tile(np.array(group, dtype=int), len(series))
        first, second = lat.positions(e0, e0 + params.shift, params.norm, g)
        params = params._replace(g=g, first=first, second=second)
        # a block ends after the row of the predicted stop, within the term cap
        last_row = (ctl.n_max + 1) // 2 - 1
        stop_row = np.clip((np.tile(depth[nodes], len(series)) - e0) // 2, 0, last_row)
        if stop_row.size:
            lat.extend(int((e0 + 2 * stop_row + params.shift).max()))
        sums = np.full((len(series), live.size), np.nan)
        outcome = np.full((len(series), live.size), CAPPED)
        shape = (len(series), summed.size)
        part_sums, part_outcome = _sum_columns(lat, k, params, ctl, stop_row + 1)
        sums[:, summed] = part_sums.reshape(shape)
        outcome[:, summed] = part_outcome.reshape(shape)
        code = np.full(len(self.xi), STOPPED)
        if series:  # the first series that did not stop, in the scalar path's order
            code[live] = outcome[(outcome != STOPPED).argmax(axis=0), np.arange(live.size)]
        failed = code != STOPPED
        values = {}
        for pair, s_idx, at_zero in self.outputs:
            v = at_zero.copy()
            if s_idx is not None:
                scale = np.where(failed[live], 0.0, self.powers[s_idx])
                v[live] = scale * sums[s_idx] / sums[1]
            v[failed] = np.nan
            values[pair] = v
        return MomentRow(values=values, outcome=code)


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
