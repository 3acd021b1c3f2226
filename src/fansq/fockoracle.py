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
it is real, the ladder weights sqrt(n), and, built on first use, the
Gram matrix of its ladder images a^0 psi .. a^P psi and, for its last
few phases, the phase-rotated off-diagonals of X_phi with the
quadrature chains (X_phi - mu)^j psi.  A normally-ordered moment is one
entry of the Gram.  No vector may allocate more than the package's
ceiling of cells (`errors._MAX_CELLS`), for its amplitudes or for its
Gram's image rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import islice
from typing import Sequence

import numpy as np

from .errors import DomainError, FansqError, TruncationTooSmall, _check_cells, finite_float
from .errors import nonnegative_float, nonnegative_int, positive_int
from .fanstate import (
    _LAGUERRE_FLOOR,
    DEFAULT_CONTROL,
    FanConfig,
    Identity,
    SeriesControl,
    TrappedIon,
    _singular_factor,
    normalization,
    product_table,
)
from .specfun import log_factorial, log_factorials

# the live ln(n!) list `_log_amplitudes` indexes; it only reads it
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
    changes nothing here; every amplitude must be finite, and
    `tail_mass` a finite float in [0, 1).  `support` is the support
    level at the default cutoff 1e-14; `real` is true when every
    imaginary part is zero.  `_root` holds sqrt(n) for n = 1 .. dim - 1,
    the weights of a and of the off-diagonals of X_phi.  `_gram` is the
    Gram matrix <a^l psi, a^m psi> of the ladder images a^0 psi ..
    a^P psi, as nested lists, empty until `moment_oracle` first needs
    it; `_gram_rows` is the P + 1 it is then built with at least (0:
    as many as that request needs).  `_chains` holds, by phase and the
    newest last, what `quadrature_moment` keeps of that phase: its two
    off-diagonals, its mean and its chain.  Equality and hashing are by
    identity.
    """

    dim: int
    amps: np.ndarray
    tail_mass: float
    support: int = field(init=False, repr=False)
    real: bool = field(init=False, repr=False)
    _root: np.ndarray = field(init=False, repr=False)
    _gram: list = field(init=False, repr=False)
    _gram_rows: int = field(init=False, repr=False)
    _chains: dict = field(init=False, repr=False)

    def __post_init__(self) -> None:
        positive_int("dim", self.dim)
        nonnegative_float("tail_mass", self.tail_mass)
        if self.tail_mass >= 1.0:
            raise DomainError(f"tail_mass must be below 1, got {self.tail_mass!r}")
        amps = np.array(self.amps, dtype=np.complex128)
        if amps.ndim != 1:
            raise DomainError(f"amps must be one-dimensional, got shape {amps.shape}")
        if self.dim != amps.size:
            raise DomainError(f"dim={self.dim} but amps has size {amps.size}")
        if not np.isfinite(amps).all():
            raise DomainError("amps must be finite, got NaN or +-inf")
        amps.flags.writeable = False
        object.__setattr__(self, "amps", amps)
        idx = np.flatnonzero(np.abs(amps) > _SUPPORT_CUTOFF)
        object.__setattr__(self, "support", int(idx[-1]) if idx.size else 0)
        object.__setattr__(self, "real", not amps.imag.any())
        object.__setattr__(self, "_root", np.sqrt(np.arange(1, self.dim)))
        object.__setattr__(self, "_gram", [])
        object.__setattr__(self, "_gram_rows", 0)
        object.__setattr__(self, "_chains", {})

    @property
    def norm_sq(self) -> float:
        return float(np.vdot(self.amps, self.amps).real)


def vacuum(dim: int) -> FockVector:
    positive_int("dim", dim)
    _check_cells("dim", dim)
    amps = np.zeros(dim, dtype=np.complex128)
    amps[0] = 1.0
    return FockVector(dim=dim, amps=amps, tail_mass=0.0)


def _log_amplitudes(cfg: FanConfig, ctl: SeriesControl):
    """ln|c_{4kn}| for n = 0, 1, 2, ..., of a fan state with xi > 0.

    The one place the amplitude's formula is written; the support walk
    of `oracle_vector` and `fock_coefficients` both read it here.
    """
    k = cfg.k
    tab = product_table(cfg.model)
    lead = math.log(2 * k) - 0.5 * math.log(normalization(cfg, ctl))
    log_xi = math.log(cfg.xi)
    logp, lf = tab.logmag, _live_log_factorials(0)  # both lists grow in place
    n = 0
    while True:
        if 2 * n >= len(logp):
            tab.reach(2 * n)
        level = 4 * k * n
        if level >= len(lf):
            _live_log_factorials(level)
        yield lead + level * log_xi - 0.5 * lf[level] - logp[2 * n]
        n += 1


def _fan_vector(cfg: FanConfig, dim: int, logs) -> FockVector:
    """The fan state on dim levels from its support amplitudes' logs, in order."""
    step = 4 * cfg.k
    sign = product_table(cfg.model).sign
    amps = np.zeros(dim, dtype=np.complex128)
    squares = []
    for n, logmag in enumerate(logs):
        c = sign[2 * n] * math.exp(logmag)
        amps[step * n] = c
        squares.append(c * c)
    tail = 1.0 - math.fsum(squares)  # the captured mass, exactly rounded
    if tail >= 1e-14:
        raise TruncationTooSmall(
            f"dim={dim} leaves tail mass {tail:.3e} >= 1e-14 for k={cfg.k}, xi={cfg.xi}"
        )
    return FockVector(dim=dim, amps=amps, tail_mass=max(tail, 0.0))


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
    _check_cells("dim", dim)
    top = (dim - 1) // (4 * cfg.k)  # the last support level below dim
    return _fan_vector(cfg, dim, islice(_log_amplitudes(cfg, ctl), top + 1))


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
    sqrt(n) once per phase, and its mean is one dot product,
    mu = 2 Re <psi, lower-diagonal part of X_phi psi>.  The vector keeps
    (off-diagonals, mu, j, (X_phi - mu)^j psi) for its last
    `_CHAIN_PHASES` phases: a higher order continues from there, a
    lower one starts again from psi, and the value is the same either
    way.  Requires enough guard rows that the repeated maps stay clear
    of the truncation edge; a norm with an imaginary residue is a
    FansqError.
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
        mu = 2.0 * np.vdot(amps[:-1], lower * amps[1:]).real
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
        raise FansqError(f"central moment has imaginary residue {val.imag:.3e}")
    return float(val.real)


def _build_gram(v: FockVector, rows: int) -> list:
    """The Gram <a^l psi, a^m psi>, l, m < rows, kept on the vector.

    The images a^j psi, zero-padded to dim, are the rows of one array,
    each the previous one shifted down a level and weighted by sqrt(n).
    einsum sums each entry over the levels alone, so its bits do not
    depend on the number of rows; the upper triangle is mirrored as its
    conjugate, so the Gram is Hermitian exactly, and the diagonal is
    taken real.
    """
    dim = v.dim
    _check_cells(f"a Gram of {rows} ladder images", rows * dim)
    if v.real:
        a = np.zeros((rows, dim))
        a[0] = v.amps.real
    else:
        a = np.zeros((rows, dim), dtype=np.complex128)
        a[0] = v.amps
    for j in range(1, rows):
        np.multiply(v._root[: dim - j], a[j - 1, 1 : dim - j + 1], out=a[j, : dim - j])
    g = np.einsum("in,jn->ij", a.conj(), a)
    g = np.triu(g) + np.triu(g, 1).conj().T  # also turns -0.0 into +0.0
    d = np.arange(rows)
    g[d, d] = g[d, d].real
    gram = g.tolist()
    object.__setattr__(v, "_gram", gram)
    return gram


def moment_oracle(v: FockVector, l: int, m: int) -> complex:
    """Normally-ordered moment from raw amplitudes: <(a-dagger)^l a^m>.

    The inner product <a^l psi, a^m psi>, read from the vector's Gram of
    ladder images; serves as the independent check of the series route.
    The Gram is built at the first request with at least the rows
    `oracle_vector` sized it for, else with max(l, m) + 1, and a request
    past it rebuilds it with at least twice as many.  The powers are
    nonnegative ints.
    """
    nonnegative_int("power l", l)
    nonnegative_int("power m", m)
    if v.dim < v.support + l + m:
        raise TruncationTooSmall(
            f"dim={v.dim} too small for powers l={l}, m={m} at "
            f"support level {v.support}"
        )
    gram = v._gram
    if max(l, m) >= len(gram):
        # l + m <= dim, so dim + 1 rows hold every image there is
        rows = max(l + 1, m + 1, v._gram_rows, 2 * len(gram))
        gram = _build_gram(v, min(rows, v.dim + 1))
    return complex(gram[l][m])


def oracle_vector(
    cfg: FanConfig,
    guard: int,
    ctl: SeriesControl = DEFAULT_CONTROL,
) -> FockVector:
    """Fan-state Fock vector sized for oracle use.

    Walks the support levels until the weight of one falls below
    `_TAIL_TARGET` / 100, keeping each level's log-amplitude, then adds
    `guard` extra rows so repeated ladder maps never touch the
    truncation edge; the amplitudes are those of `fock_coefficients`,
    bit for bit.  The vector's Gram is sized for ladder powers up to
    guard // 2, and it and the vector are checked against the ceiling of
    cells before either is allocated.
    """
    nonnegative_int("guard", guard)
    k = cfg.k
    logs = []
    if cfg.xi > 0:  # xi = 0: level 0 only
        amplitudes = _log_amplitudes(cfg, ctl)
        cut = math.log(_TAIL_TARGET) - math.log(100.0)
        logs.append(next(amplitudes))
        for logmag in amplitudes:
            logs.append(logmag)
            if 2 * logmag < cut:
                break
            if len(logs) > ctl.n_max:
                raise TruncationTooSmall(
                    f"support weights not below {_TAIL_TARGET} within {ctl.n_max} levels"
                )
    last = max(len(logs) - 1, 0)
    dim = 4 * k * last + guard + 1
    rows = guard // 2 + 1
    _check_cells(f"dim={dim} with a Gram of {rows} ladder images", rows * dim)
    if not logs:
        v = vacuum(dim)
    else:
        logs.extend(islice(amplitudes, (dim - 1) // (4 * k) - last))
        v = _fan_vector(cfg, dim, logs)
    object.__setattr__(v, "_gram_rows", rows)
    return v


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
