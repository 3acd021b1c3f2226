"""Brute-force oracle on truncated Fock space.

States are dense amplitude vectors indexed by occupation number; ladder
operators act as banded (single off-diagonal) linear maps, never as
dense matrix powers.  Only the state's amplitudes (`fock_coefficients`)
come from the normalization and products of `fanstate`; everything
computed from them is deliberately independent of the closed-form
series in `fanstate`/`squeeze`: the two routes must agree, and this
module is the referee.

A `FockVector` owns a read-only complex copy of its amplitudes, so what
it derives from them once cannot go stale: its support level, whether
it is real, its real and imaginary parts, the ladder weights sqrt(n),
and, built on first use, its ladder images a^j psi and, for its last
few phases, the phase-rotated off-diagonals of X_phi with the
quadrature chains (X_phi - mu)^j psi.  A normally-ordered moment is four
dot products of two images, one for a real vector.  Images and chains
live and die with the vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, TruncationTooSmall, finite_float, nonnegative_int, positive_int
from .fanstate import (
    DEFAULT_CONTROL,
    FanConfig,
    Identity,
    SeriesControl,
    nonlinearity_values,
    normalization,
    product_table,
)
from .specfun import log_factorial, log_factorials

# the live ln(n!) list `fock_coefficients` indexes; it only reads it
_live_log_factorials = log_factorial.live

_SQRT2 = math.sqrt(2.0)
_SUPPORT_CUTOFF = 1e-14  # amplitude magnitude above which a level counts as support
_CHAIN_PHASES = 8  # quadrature chains one vector keeps, least recently used out
_TAIL_TARGET = 1e-30  # support weight below which `oracle_vector` truncates


@dataclass(frozen=True, eq=False)
class FockVector:
    """Truncated Fock-space state: amplitudes plus reported tail mass.

    `amps` is a read-only complex128 copy of the array passed in, so
    writing to it raises ValueError and changing the caller's array
    changes nothing here.  `support` is the support level at the default
    cutoff 1e-14; `real` is true when every imaginary part is zero;
    `ladder_image(j)` gives a^j psi, built once per j.  `_root` holds
    sqrt(n) for n = 1 .. dim - 1, the weights of the off-diagonals of
    X_phi.  `_chains` holds, by phase and the newest last, what
    `quadrature_moment` keeps of that phase: its two off-diagonals, its
    mean and its chain.  Equality and hashing are by identity.
    """

    dim: int
    amps: np.ndarray
    tail_mass: float
    support: int = field(init=False, repr=False)
    real: bool = field(init=False, repr=False)
    _images: dict = field(init=False, repr=False)
    _root: np.ndarray = field(init=False, repr=False)
    _chains: dict = field(init=False, repr=False)

    def __post_init__(self) -> None:
        positive_int("dim", self.dim)
        amps = np.array(self.amps, dtype=np.complex128)
        if amps.ndim != 1:
            raise DomainError(f"amps must be one-dimensional, got shape {amps.shape}")
        if self.dim != amps.size:
            raise DomainError(f"dim={self.dim} but amps has size {amps.size}")
        re, im = np.ascontiguousarray(amps.real), np.ascontiguousarray(amps.imag)
        for a in (amps, re, im):
            a.flags.writeable = False
        object.__setattr__(self, "amps", amps)
        idx = np.flatnonzero(np.abs(amps) > _SUPPORT_CUTOFF)
        object.__setattr__(self, "support", int(idx[-1]) if idx.size else 0)
        object.__setattr__(self, "real", not im.any())
        # image 0 is psi itself, as contiguous real and imaginary parts
        object.__setattr__(self, "_images", {0: (re, im)})
        object.__setattr__(self, "_root", np.sqrt(np.arange(1, self.dim)))
        object.__setattr__(self, "_chains", {})

    @property
    def norm_sq(self) -> float:
        return float(np.vdot(self.amps, self.amps).real)

    def ladder_image(self, j: int) -> tuple[np.ndarray, np.ndarray]:
        """Real and imaginary parts of a^j psi, of length dim - j.

        (a^j psi)_n = sqrt((n+j)!/n!) psi_{n+j}, with the weight taken as
        exp of half a difference of log-factorials.
        """
        image = self._images.get(j)
        if image is None:
            if not 0 <= j <= self.dim:
                raise DomainError(f"ladder power must be in [0, {self.dim}], got {j}")
            re, im = self._images[0]
            lf = log_factorials(self.dim)
            weight = np.exp(0.5 * (lf[j : self.dim] - lf[: self.dim - j]))
            # weights leave zeros as they are: a real vector shares psi's
            image = (weight * re[j:], im[j:] if self.real else weight * im[j:])
            for a in image:
                a.flags.writeable = False
            self._images[j] = image
        return image


def vacuum(dim: int) -> FockVector:
    positive_int("dim", dim)
    amps = np.zeros(dim, dtype=np.complex128)
    amps[0] = 1.0
    return FockVector(dim=dim, amps=amps, tail_mass=0.0)


def fock_coefficients(cfg: FanConfig, dim: int, ctl: SeriesControl = DEFAULT_CONTROL):
    """Truncated Fock expansion of the normalized fan state.

    Amplitudes sit only at levels 4kn:
        c_{4kn} = 2k * D^{-1/2} * xi^{4kn} / ( sqrt((4kn)!) * product(4kn) )
    with the step-2k running product.  Real and possibly negative (the
    product carries a sign for the trapped-ion model).  Raises
    TruncationTooSmall when the requested dim leaves tail mass >= 1e-14.
    """
    positive_int("dim", dim)
    if cfg.xi == 0.0:  # no product is read, as in `normalization`
        return vacuum(dim)
    k = cfg.k
    d = normalization(cfg, ctl)
    log_d_half = 0.5 * math.log(d)
    top = (dim - 1) // (4 * k)  # the last support level below dim
    tab = product_table(cfg.model)
    tab.reach(2 * top)
    lf = _live_log_factorials(4 * k * top)
    amps = np.zeros(dim, dtype=np.complex128)
    squares = []
    log_xi = math.log(cfg.xi)
    for n in range(top + 1):
        level = 4 * k * n
        logmag = math.log(2 * k) - log_d_half + level * log_xi - 0.5 * lf[level] - tab.logmag[2 * n]
        c = tab.sign[2 * n] * math.exp(logmag)
        amps[level] = c
        squares.append(c * c)
    tail = 1.0 - math.fsum(squares)  # the captured mass, exactly rounded
    if tail >= 1e-14:
        raise TruncationTooSmall(
            f"dim={dim} leaves tail mass {tail:.3e} >= 1e-14 for k={k}, xi={cfg.xi}"
        )
    return FockVector(dim=dim, amps=amps, tail_mass=max(tail, 0.0))


def support_level(v: FockVector) -> int:
    """Highest occupation number with amplitude magnitude above 1e-14."""
    return v.support


def _shifted(w: np.ndarray, mu: float, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """(X_phi - mu) w, with X_phi given by its lower and upper off-diagonals."""
    out = w * -mu
    out[:-1] += lower * w[1:]
    out[1:] += upper * w[:-1]
    return out


def quadrature_moment(v: FockVector, phi: float, N: int) -> float:
    """Central moment of the rotated quadrature: <(X_phi - <X_phi>)^N>.

    The truncated X_phi = (a e^{-i phi} + a-dagger e^{i phi}) / sqrt(2)
    is Hermitian, so the moment is ||(X_phi - mu)^{N/2} psi||^2: N/2
    applications of (X_phi - mu) to the state and one norm, never a
    binomial expansion of raw moments with its large-N cancellation.
    X_phi is held as its two off-diagonals, built from the vector's
    sqrt(n) once per phase.  The vector keeps (off-diagonals, mu, j,
    (X_phi - mu)^j psi) for its last `_CHAIN_PHASES` phases: a higher
    order continues from there, a lower one starts again from psi, and
    the value is the same either way.  Requires enough guard rows that
    the repeated maps stay clear of the truncation edge.
    """
    positive_int("moment order", N)
    if N % 2:
        raise DomainError(f"moment order must be even, got {N}")
    finite_float("phase", phi)
    if v.dim < v.support + N:
        raise TruncationTooSmall(
            f"dim={v.dim} leaves fewer than N={N} guard rows above "
            f"support level {v.support}"
        )
    amps, half, chains = v.amps, N // 2, v._chains
    chain = chains.pop(phi, None)  # re-inserted as the newest
    if chain is None:
        lower = (np.exp(-1j * phi) / _SQRT2) * v._root  # a e^{-i phi} / sqrt(2)
        upper = (np.exp(1j * phi) / _SQRT2) * v._root  # a-dagger e^{i phi} / sqrt(2)
        mu = np.vdot(amps, _shifted(amps, 0.0, lower, upper)).real
        chain = (lower, upper, mu, 0, amps)
    lower, upper, mu, j, w = chain
    if j > half:
        j, w = 0, amps
    for _ in range(half - j):
        w = _shifted(w, mu, lower, upper)
    chains[phi] = (lower, upper, mu, half, w)
    if len(chains) > _CHAIN_PHASES:
        del chains[next(iter(chains))]
    val = np.vdot(w, w)
    if abs(val.imag) > 1e-12 * max(1.0, abs(val.real)):
        raise ArithmeticError(f"central moment has imaginary residue {val.imag:.3e}")
    return float(val.real)


def moment_oracle(v: FockVector, l: int, m: int) -> complex:
    """Normally-ordered moment from raw amplitudes: <(a-dagger)^l a^m>.

    The inner product of the ladder images a^l psi and a^m psi over
    their common length; serves as the independent check of the series
    route.  The powers are nonnegative ints.
    """
    nonnegative_int("power l", l)
    nonnegative_int("power m", m)
    if v.dim < v.support + l + m:
        raise TruncationTooSmall(
            f"dim={v.dim} too small for powers l={l}, m={m} at "
            f"support level {v.support}"
        )
    n = v.dim - max(l, m)
    xl, yl = v.ladder_image(l)
    xm, ym = v.ladder_image(m)
    if v.real and n > 1:
        # the kernel below with every y zero, bit for bit: a dot of two or
        # more zero products is +0.0 (of one, it keeps that product's sign)
        return complex(np.dot(xl[:n], xm[:n]) + 0.0, 0.0)
    xl, yl, xm, ym = xl[:n], yl[:n], xm[:n], ym[:n]
    # explicit real/imag kernel instead of complex multiply: elementwise
    # float products commute and subtraction negates exactly, so swapping
    # l and m conjugates the result bit for bit (hardware FMA breaks this
    # for the fused complex product)
    re = np.dot(xl, xm) + np.dot(yl, ym)
    im = np.dot(xl, ym) - np.dot(yl, xm)
    return complex(re, im)


def oracle_vector(
    cfg: FanConfig,
    guard: int,
    ctl: SeriesControl = DEFAULT_CONTROL,
) -> FockVector:
    """Fan-state Fock vector sized for oracle use.

    Chooses the smallest support depth whose analytic tail mass is below
    `_TAIL_TARGET`, then adds `guard` extra rows so repeated ladder maps
    never touch the truncation edge.
    """
    nonnegative_int("guard", guard)
    k = cfg.k
    d = normalization(cfg, ctl)
    # walk the support weights until they fall below the target (xi = 0: level 0 only)
    last = 0
    if cfg.xi > 0:
        tab = product_table(cfg.model)
        lead, log_xi, log_d = math.log(4 * k * k), math.log(cfg.xi), math.log(d)
        cut = math.log(_TAIL_TARGET) - math.log(100.0)
        n = 1
        while True:
            tab.reach(2 * n)
            level = 4 * k * n
            logw = (
                lead + 2 * level * log_xi - log_factorial(level) - 2 * tab.logmag[2 * n]
            ) - log_d
            if logw < cut:
                last = n
                break
            n += 1
            if n > ctl.n_max:
                raise TruncationTooSmall(
                    f"support weights not below {_TAIL_TARGET} within {ctl.n_max} levels"
                )
    dim = 4 * k * last + guard + 1
    return fock_coefficients(cfg, dim, ctl)


def eigen_residual(cfg: FanConfig, v: FockVector) -> float:
    """Relative residual of the 4k-quantum eigenvalue relation.

    With G = a^{2k} f(number operator), the fan state satisfies
    G^2 v = xi^{4k} v: each component eigenvalue is a 4k-th root times
    xi, and squaring the 2k-quantum relation makes them all agree.
    Below the quantum order, f is taken as one (those entries are
    annihilated by a^{2k} anyway).  G is one shift by 2k levels:
    (G w)_n = sqrt((n+2k)!/n!) f(n+2k) w_{n+2k}, its weights built once.
    f(m) multiplies only v_m and (G v)_m, zero unless v_{m+2k} is not, so
    f is built at those m >= 2k alone (a fan state's multiples of 2k, the
    factors its series use; the vacuum's none, even at a pole), else one.
    """
    k = cfg.k
    step = 2 * k
    if v.dim < step + 1:
        raise TruncationTooSmall(f"dim={v.dim} cannot hold a {step}-quantum map")
    fvals = np.ones(v.dim)
    used = v.amps != 0
    used[:-step] |= v.amps[step:] != 0
    if not isinstance(cfg.model, Identity):
        idx = np.flatnonzero(used[step:]) + step
        fvals[idx] = nonlinearity_values(cfg.model, idx)
    lf = log_factorials(v.dim)
    weights = np.exp(0.5 * (lf[step : v.dim] - lf[: v.dim - step])) * fvals[step:]

    def apply_g(w: np.ndarray) -> np.ndarray:
        out = np.zeros_like(w)
        out[:-step] = weights * w[step:]
        return out

    gg = apply_g(apply_g(v.amps))
    target = (cfg.xi ** (4 * k)) * v.amps
    num = float(np.linalg.norm(gg - target))
    den = float(np.linalg.norm(v.amps))
    return num / den


def support_check(v: FockVector, k: int) -> bool:
    """True iff amplitudes away from multiples of 4k are below 1e-12."""
    positive_int("fan order k", k)
    mask = np.ones(v.dim, dtype=bool)
    mask[:: 4 * k] = False
    return bool(np.all(np.abs(v.amps[mask]) < 1e-12))
