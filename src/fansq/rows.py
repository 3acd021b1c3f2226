"""The row engine: the series of many points of one order k, summed together.

`squeeze_rows` is its one entry point: the decomposition of
`fansq.squeeze` at many points of one order k, each with its own xi
and eta_sq, 0.0 standing for the identity model (the nodes of a grid,
the probes of a root finder's step).  Every series a point needs
becomes one column of a 2-D numpy block of terms over the even
summation indices of `fansq.fanstate`'s series (the odd ones are exact
zeros).  From rho = xi^2 eta^2 `_depth` predicts where each series
stops; the block grows by doubling, for the running columns only, with
one block boundary at their deepest predicted stop.  The products of
the nonlinearity come from a lattice with one column per distinct
eta_sq, built up front to the deepest predicted index from Laguerre
values equal bit for bit to the scalar path's, so both find the same
poles.  Each column replays the scalar path's terms, Neumaier sums
(cumulative sums, `_cumulate`, plus their exact rounding errors), stop
rule and overflow, pole and term-cap checks, so no value depends on
the blocks, the prediction or what shares them.  A failed node gets
the outcome code (SINGULAR, OVERFLOW or CAPPED) of the error the
scalar path raises first, whose words exist there only; the row path
fills none of its memo tables.  A call costs little beyond its points:
`squeeze_rows` checks each input once and passes checked arrays to the
private cores, the series of the pairs are planned once per (k, pairs)
(`_series`), and ln xi and xi^(l - m) (l != m only) are taken once per
axis value.  `_moment_rows` splits R stacked rows into runs of like
depth (`_row_runs`), each one lattice and one `_sum_columns` call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import DomainError, nonnegative_float, positive_int
from .fanstate import _LAGUERRE_FLOOR, _LOG_HUGE, DEFAULT_CONTROL, SeriesControl
from .specfun import _grow_laguerre_pair, log_factorials
from .squeeze import _assemble, _below_bound, _check_order, _cosine_sum, _lower_bound, _moment_pairs

# up to this many pairs the float loop over both orders is about as fast:
# 0.22 us per pair and degree, one numpy step over all pairs 1.4-2.0 us per
# degree from 2 to 32 pairs; they cross at 6-8 pairs at 2,000 degrees and
# 8-10 at 80 (`tools/row_kernel_ab.py`); a scan run has two pairs per row
_FEW_PAIRS = 8


class LaguerreRows:
    """L_0^m(x) .. L_n^m(x) of orders m = 0 and K at many points x[r] at once.

    Pair r < len(x) is (0, x[r]), pair len(x) + r is (K, x[r]); `self.x`
    holds each pair's point.  Row i of `upto(n)` holds degree i of every
    pair.  One numpy step per degree grows all pairs in place in one
    preallocated block, with the operations of `_grow_laguerre_pair` in
    its order, so each value is the float of that loop, which a few
    pairs run themselves.
    """

    def __init__(self, K: int, x: np.ndarray) -> None:
        self.K = K
        self.x = np.concatenate((x, x))
        self._vals = np.ones((1, self.x.size))

    def upto(self, n: int) -> np.ndarray:
        vals = self._vals
        if n < vals.shape[0]:
            return vals[: n + 1]
        x = self.x
        if 0 < x.size <= _FEW_PAIRS:
            cols = vals.T.tolist()
            half = len(cols) // 2
            for den, num, x_r in zip(cols, cols[half:], x[:half].tolist()):
                _grow_laguerre_pair(den, num, self.K, x_r, n)
            vals = np.array(cols).T
        else:
            m = np.repeat([0.0, self.K], x.size // 2)
            old = vals.shape[0]
            grown = np.zeros((n + 2, x.size))  # row d + 1 holds degree d, row 0 L_{-1} = 0
            grown[1 : old + 1] = vals
            # coef[i] multiplies degrees d - 2 and d - 1 (windows[i]) to give degree d = old + i,
            # in floats: every integer here is exact, so the sums are the int sums
            d = np.arange(old, n + 1, dtype=float)[:, None]
            coef = np.empty((n + 1 - old, 2, x.size))
            np.add(d - 1, m, out=coef[:, 0])
            np.subtract(np.add(2 * d - 1, m, out=coef[:, 1]), x, out=coef[:, 1])
            row, item = grown.strides
            windows = np.ndarray(coef.shape, float, grown, (old - 1) * row, (row, row, item))
            products = np.empty((2, x.size))
            down, up = products
            mul, sub, div = np.multiply, np.subtract, np.divide
            for i, c, window, out in zip(d.ravel(), coef, windows, grown[old + 1 :]):
                mul(c, window, products)  # out passed by position: no keyword to parse
                sub(up, down, out)
                div(out, i, out)
            vals = grown[1:]
        self._vals = vals
        return vals


def _nonnegative_array(name: str, values: Sequence[float]) -> np.ndarray:
    """values as a float array, or the DomainError of its first entry not finite and >= 0."""
    arr = np.array(values, dtype=float)
    if not (arr.min(initial=0.0) >= 0 and arr.max(initial=0.0) < math.inf):  # NaN fails the first
        i = int((~(np.isfinite(arr) & (arr >= 0))).argmax())
        nonnegative_float(f"{name}[{i}]", float(arr[i]))
    return arr


_DEPTH_FACTOR = 1.25  # the bare count falls up to 30% short of the deepest stop of a c08 row
_DEPTH_PAD = 8  # summation indices added after the margin


def _depth(k: int, xi: np.ndarray, eta_sq: np.ndarray, ctl: SeriesControl):
    """rho and the predicted stop index of the series of each point (xi[j], eta_sq[j]).

    xi and eta_sq are checked float arrays, and xi broadcasts against
    eta_sq.  For `TrappedIon(eta_sq, 2k)`, Fejer's asymptotics of the
    Laguerre polynomials (Szego, Orthogonal Polynomials, 8.22) give f(m)
    ~ (m eta_sq)^-k, so the terms of every series fall like rho^(2kn) in
    the summation index n, with rho = xi^2 eta_sq: they converge for
    rho < 1 only.  The prediction is

        1.25 (ln(1/rel_tol) + ln(1/(1 - rho^2k))) / (2k ln(1/rho)) + 8,

    the second logarithm standing for the tail past the last term.  At
    rho >= 1 the series diverges, and both engines fail it unsummed; the
    count is then infinite or NaN, so the prediction is n_max.  The
    identity model, eta_sq = 0.0, has entire series (rho = 0): a term
    xi^2m / m! with m = 2kn is below rel_tol once m >= max(e^2 xi^2,
    ln(1/rel_tol)), by ln m! >= m ln(m/e).  Indices are at most n_max.
    The prediction never falls as xi grows at a fixed eta_sq.  The row
    engine sizes its blocks from these; no value depends on them.
    """
    ion = eta_sq > 0
    log_tol = -math.log(ctl.rel_tol)
    with np.errstate(all="ignore"):  # inf or NaN from rho = 1 on: fmin takes n_max
        xi_sq = xi * xi
        rho = np.where(ion, xi_sq * eta_sq, 0.0)
        tail = -np.log1p(-(rho ** (2 * k)))
        geometric = _DEPTH_FACTOR * (log_tol + tail) / (2 * k * np.abs(np.log(rho)))
    depth = np.where(ion, geometric, np.maximum(math.e**2 * xi_sq, log_tol) / (2 * k))
    return rho, np.fmin(np.ceil(depth) + _DEPTH_PAD, ctl.n_max).astype(int)


_RUN_DEPTH = 1.1  # a run's rows predict at most this multiple of its first row's depth
_RUN_NODES = 2048  # nodes per run, unless one row is wider


def _row_runs(depth: list[int], width: int) -> list[range]:
    """Contiguous rows of `width` nodes, split where the predicted depth grows or the run fills.

    A run's lattice grows every eta_sq to the run's deepest row, so a
    row joins only while its depth is at most `_RUN_DEPTH` times that of
    the run's first row, and while the run holds at most `_RUN_NODES`
    nodes, or exactly one row.
    """
    most = max(1, _RUN_NODES // width)
    runs = []
    start = 0
    for i, d in enumerate(depth):
        if i - start == most or d > _RUN_DEPTH * depth[start]:
            runs.append(range(start, i))
            start = i
    runs.append(range(start, len(depth)))
    return runs


# from this many columns on, a block is cumulated one row addition at a
# time: numpy's accumulate along axis 0 walks a C-ordered block column
# by column, at about 3-4 ns a cell, while a row addition costs about
# 0.7 us a call.  The width decides, not the rows: over the c08 term
# blocks the best threshold is 190-210 columns, on lattice shapes of 9
# and 44 rows 200-263 (`tools/row_kernel_ab.py`, section `cumulation`)
_WIDE = 200


def _cumulate(ufunc: np.ufunc, block: np.ndarray, out: Optional[np.ndarray] = None):
    """ufunc.accumulate(block, axis=0, out=out), with the same bits.

    Both forms apply ufunc down each column in row order; a block of at
    least _WIDE columns takes one ufunc call per row, a narrower one
    numpy's accumulate.  out may be block itself, else block is only read.
    """
    if block.shape[1] < _WIDE:
        return ufunc.accumulate(block, axis=0, out=out)
    if out is None:
        out = np.empty_like(block)
    out[:1] = block[:1]
    for prev, row, cur in zip(out, block[1:], out[1:]):
        ufunc(prev, row, cur)
    return out


_FIRST_BLOCK = 8  # even rows (16 indices) in the first block; each later block doubles the total
_NO_POLE = np.iinfo(np.int64).max


class _Lattice:
    """Signed log-products of f at multiples of 2k, one column per distinct eta_sq.

    Index i of group g holds the product that `fanstate.ProductTable`
    holds at index i for eta_sq[g], f(2k) f(4k) ... f(2k i), f = 1 for
    the identity (eta_sq = 0.0), from the same Laguerre values and
    log-factorials in the same order, so only the logs may round
    differently.  pole[g] is the first index whose product is singular,
    or _NO_POLE; entries from there on repeat the last product before
    it, finite and unused.  The flat `log_table` and `sign_table` hold,
    at (3 i + slot) groups + g, the log-products, their doubles and
    zeros, and the signs, ones and ones: a normalization column reads
    its first product doubled and its second as one.
    """

    def __init__(self, eta_sq: np.ndarray, step: int) -> None:
        self.step = step
        # eta_sq ascends: the identity's 0.0 comes first
        self.ion = slice(int(eta_sq.size > 0 and eta_sq[0] == 0.0), eta_sq.size)
        # the quantum order K is 2k = step: both Laguerre orders in one table
        self.laguerre = LaguerreRows(step, eta_sq[self.ion])
        self.pole = np.full(eta_sq.size, _NO_POLE)
        self._log, self._sign = np.zeros((1, 3, eta_sq.size)), np.ones((1, 3, eta_sq.size))
        self.log_table, self.sign_table = self._log.ravel(), self._sign.ravel()

    def extend(self, j: int) -> None:
        """Hold products up to index j."""
        size = self._log.shape[0]
        if j < size:
            return
        # one new block per growth, the new indices written in place
        log, sign = np.zeros((j + 1, 3, self.pole.size)), np.ones((j + 1, 3, self.pole.size))
        log[:size], sign[:size] = self._log, self._sign
        self._log, self._sign = log, sign
        # row 0 carries the last products in, rows 1.. take the factors
        logmag, sign = self._log[size - 1 :, 0], self._sign[size - 1 :, 0]
        step, ion = self.step, self.ion
        count = ion.stop - ion.start
        if count:
            fock = step * np.arange(size, j + 1)
            # factor f(m) divides L^K by L^0, both of degree m - K
            lag = self.laguerre.upto(step * (j - 1))[fock - step]
            den, num = lag[:, :count], lag[:, count:]
            den_size, num_size = np.abs(den), np.abs(num)
            bad = (den_size < _LAGUERRE_FLOOR) | (num_size == 0.0)
            held = self.pole[ion] == _NO_POLE
            first = bad.argmax(axis=0)
            new_pole = bad[first, np.arange(count)] & held
            # unused from the first pole on, and all past an earlier one
            cut = np.where(new_pole, first, np.where(held, fock.size, 0))
            bad |= np.arange(fock.size)[:, None] >= cut
            lf = log_factorials(step * j)
            logf = (
                (lf[fock - step] - lf[fock])[:, None]
                + np.log(np.where(bad, 1.0, num_size))
                - np.log(np.where(bad, 1.0, den_size))
            )
            sign[1:, ion] = np.where(bad | ((num > 0) == (den > 0)), 1.0, -1.0)
            logmag[1:, ion] = np.where(bad, 0.0, logf)
            self.pole[ion][new_pole] = size + first[new_pole]
        _cumulate(np.multiply, sign, out=sign)
        _cumulate(np.add, logmag, out=logmag)
        np.multiply(2, logmag[1:], out=self._log[size:, 1])
        self.log_table, self.sign_table = self._log.ravel(), self._sign.ravel()


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
    """Terms at rows a..b-1 of every column, as in `fanstate._series_sum`, into out.

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
    lf_width = int(p.lf.max()) + 1
    lf = log_factorials(2 * step * (b - 1) + lf_width - 1)
    # 2 ln 2k + 4kn ln xi - ln (2kn - m)! minus the two log-products
    np.add((4.0 * step) * np.arange(a, b)[:, None], p.power, out=out)
    out *= p.log_xi
    out += 2 * math.log(step)
    out -= _rows(lf, 2 * step * a, 2 * step, rows, lf_width).take(p.lf, axis=1)
    products = _rows(lat.log_table, 2 * wide * a, 2 * wide, rows, width)
    out -= products.take(p.first, axis=1)
    out -= products.take(p.second, axis=1)
    fail = np.full(p.first.size, rows)
    if out.max() > _LOG_HUGE:
        fail = _first(out > _LOG_HUGE)
        np.minimum(out, _LOG_HUGE, out=out)
    np.exp(out, out=out)
    signs = _rows(lat.sign_table, 2 * wide * a, 2 * wide, rows, width)
    out *= signs.take(p.first, axis=1)
    out *= signs.take(p.second, axis=1)
    if a == 0:  # the leading normalization term is exactly (2k)^2, as in `fanstate.normalization`
        out[0, p.norm] = float(4 * k * k)
    if lat.pole.min() == _NO_POLE:  # no model of the row meets a pole
        return fail, np.zeros(fail.size, dtype=bool)
    pole = np.maximum(-((p.second // wide - lat.pole[p.g]) // 2) - a, 0)
    return np.minimum(pole, fail), pole <= fail


# how a series ended: it stopped on the stop rule, or failed as the
# scalar path does at a pole, at a term past float range, or at the term cap
RUNNING, STOPPED, SINGULAR, OVERFLOW, CAPPED = range(5)


def _sum_columns(lat: _Lattice, k: int, p: _Columns, ctl: SeriesControl, ends: np.ndarray):
    """Per-column `fanstate._series_sum`: returns the sums and the outcome codes.

    The rows are the even terms.  Each column's Neumaier sum is replayed
    as a sequential cumulative sum with its rounding errors summed the
    same way beside it; an error comes from Knuth's TwoSum, which gives
    the same exact error as Neumaier's branch.  Both sums go through
    `_cumulate` (numpy's accumulate below _WIDE columns, one row
    addition at a time from there on, with the same bits): the partial
    sums into rows of their own, since the terms are read after, the
    compensations in place.  A block's six arrays are views of one flat
    buffer per call, regrown only when a block needs more cells, so the
    carried row is copied out before the next block writes there.  The
    stop rule is the scalar path's, with its three exceptions applied
    only where they can bite: an even n0's first term stops nothing (row
    0 of block 0), a zero sum at n0 + 2 stops there (only when n_max <=
    3), and no stop or failure counts past the term cap (only in the
    block that reaches it).
    ends[c] is the row after the predicted stop of column c: a block
    that would run past the deepest end of the running columns ends
    there, and the blocks double again after it.
    """
    width = p.n0.size
    sums = np.full(width, np.nan)
    outcome = np.full(width, RUNNING)
    cols = np.arange(width)
    acc, comp = np.zeros(width), np.zeros(width)  # Neumaier sum and compensation, carried
    rel_tol, n_max = ctl.rel_tol, ctl.n_max
    last = (n_max + 1) // 2
    a, size, here = 0, _FIRST_BLOCK, p
    deepest = int(ends.max(initial=0))
    work, mask = np.empty(0), np.empty(0, dtype=bool)
    while cols.size:
        b = min(a + size, last)
        if a < deepest < b:
            b = deepest
        rows = b - a
        shape = (rows + 1, cols.size)
        cells = shape[0] * shape[1]
        if 6 * cells > work.size:
            work, mask = np.empty(6 * cells), np.empty(cells, dtype=bool)
        # row 0 of each carries the sums in, rows 1.. take the terms
        terms, partial, c, back, err, bound = work[: 6 * cells].reshape(6, *shape)
        terms[0] = acc
        x = terms[1:]
        fail, singular = _term_block(lat, k, a, b, here, x)
        _cumulate(np.add, terms, out=partial)
        prev, s = partial[:-1], partial[1:]
        # TwoSum: the exact rounding error of each partial sum
        back, err, bound = back[1:], err[1:], bound[1:]
        np.subtract(s, prev, out=back)
        np.subtract(s, back, out=err)
        np.subtract(prev, err, out=err)
        np.subtract(x, back, out=back)
        c[0] = comp
        np.add(err, back, out=c[1:])
        c = _cumulate(np.add, c, out=c)[1:]
        # a small term stops its column at the odd index after it; the
        # last row, all True, makes argmax give `rows` where none is small
        small = mask[:cells].reshape(shape)
        small[-1] = True
        np.abs(np.add(s, c, out=bound), out=bound)
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
        at = stopped.nonzero()[0]
        row = stop[at]
        sums[cols[at]] = s[row, at] + c[row, at]
        if b == last:
            outcome[cols[~ended]] = CAPPED
            break
        acc, comp = s[-1].copy(), c[-1].copy()
        if np.count_nonzero(ended):
            rest = ~ended
            cols = cols[rest]
            acc, comp, here = acc[rest], comp[rest], p.take(cols)
            deepest = int(ends[cols].max(initial=0))
        a, size = b, b
    return sums, outcome


def _xi_power(xi: float, diff: int) -> float:
    """xi**diff, with the scalar path's `**`, or inf past float range.

    A node that far out fails its series first, so its values are NaN.
    """
    try:
        return xi**diff
    except OverflowError:
        return math.inf


@lru_cache(maxsize=64)
def _series(k: int, pairs: tuple[tuple[int, int], ...]) -> tuple[tuple, tuple, np.ndarray]:
    """The pairs as (l >= m), the series they need in the scalar path's order, and a spec.

    That order (the first moment, the normalization None it divides by,
    the others) decides which error a node reports; a moment zero by
    symmetry has no series.  Read-only spec row i holds series i's n0,
    shift, m, norm, lf, power (`_Columns`), e0 (n0 rounded up to even:
    row r of a column is the even index e0 + 2r) and its lattice slots.
    """
    step = 2 * k
    ordered = tuple({(max(l, m), min(l, m)): None for l, m in pairs})
    series = [lm for lm in ordered if (lm[0] - lm[1]) % (2 * step) == 0]
    series[1:1] = [None] if series else []
    spec = []
    for lm in series:
        l, m = lm or (0, 0)
        n0, norm = -(-m // step), lm is None
        e0, shift = n0 + n0 % 2, (l - m) // step
        row = (n0, shift, m, norm, step * e0 - m, 2 * step * e0, e0)
        spec.append(row + (3 * e0 + norm, 3 * (e0 + shift) + 2 * norm))
    spec = np.array(spec, dtype=int).reshape(len(series), 9)
    spec.flags.writeable = False
    return ordered, tuple(series), spec


def _moment_rows(
    k: int, xi: np.ndarray, pairs: Sequence[tuple[int, int]], eta_sq: np.ndarray, ctl: SeriesControl
) -> tuple[dict[tuple[int, int], np.ndarray], np.ndarray]:
    """Normally-ordered moments of R stacked rows of fan states over one xi axis.

    k, the xi axis, the pairs and eta_sq are checked; eta_sq holds R *
    len(xi) values, row-major, 0.0 for the identity: node r * len(xi) +
    j is xi[j] with eta_sq[r * len(xi) + j].  Returns (values, outcome).
    values[(l, m)][i] is `fanstate.moment` of node i up to rounding.
    outcome[i] is STOPPED where every series of node i stopped (xi = 0
    included), else the code of the failure the scalar path raises first
    when it evaluates the pairs in the given order: SINGULAR for its
    `SingularNonlinearity`, OVERFLOW and CAPPED for its
    `SeriesNotConverged` of a term past float range and of the term cap.
    Values are NaN at a failed node.

    Each series the pairs need (the normalization and every moment not
    zero by symmetry) is one column per positive xi, with ln xi and
    xi^(l - m) taken once per axis value by `math.log` and `**`, as the
    scalar path takes them.  A node at rho >= 1 is CAPPED without a term
    summed, as the scalar path raises there at once.  The rows run in
    runs of like depth (`_row_runs`, fed by each row's deepest node),
    each with one lattice over the distinct eta_sq of its summed nodes,
    built up front to the deepest index `_depth` predicts.  A node's
    value does not depend on its run.
    """
    width = xi.size
    reps = eta_sq.size // width if width else 1
    if not reps or eta_sq.size != reps * width:
        raise DomainError(f"need one eta_sq per xi in each row, got {eta_sq.size} for {width}")
    zero = xi == 0.0
    axis_live = (~zero).nonzero()[0]
    per_row = axis_live.size
    xi_live = xi[axis_live].tolist()
    logs = np.array([math.log(x) for x in xi_live])
    ordered, series, spec = _series(k, tuple(map(tuple, pairs)))

    rho, depth = _depth(k, np.concatenate([xi] * reps), eta_sq, ctl)
    live = (np.arange(reps)[:, None] * width + axis_live).ravel()
    sums = np.full((len(series), live.size), np.nan)
    outcome = np.full((len(series), live.size), CAPPED)
    last_row = (ctl.n_max + 1) // 2 - 1
    deepest = depth.reshape(reps, width).max(axis=1, initial=0).tolist()
    # an empty axis is one empty row; with no series nothing is summed
    for run in _row_runs(deepest, max(width, 1)) if series else ():
        part = np.arange(run.start * per_row, run.stop * per_row)  # positions in live
        summed = part[rho[live[part]] < 1]
        nodes = live[summed]
        # distinct eta_sq, ascending; `np.unique` would import numpy.ma on its first call
        sorted_eta = np.sort(eta_sq[nodes])
        new = np.concatenate(([True], sorted_eta[1:] != sorted_eta[:-1]))[: sorted_eta.size]
        eta_run = sorted_eta[new]
        group = eta_run.searchsorted(eta_sq[nodes])
        lat = _Lattice(eta_run, 2 * k)
        # the columns of every summed node: series-major, then node
        n0, shift, m, norm, lf, power, e0, first, second = np.repeat(spec.T, summed.size, axis=1)
        g = np.concatenate([group] * len(series))
        first, second = first * eta_run.size + g, second * eta_run.size + g
        log_xi = np.concatenate([logs[summed % per_row]] * len(series))
        p = _Columns(g, n0, shift, m, norm == 1, log_xi, power.astype(float), lf, first, second)
        # a block ends after the row of the predicted stop, within the term cap
        node_depth = np.concatenate([depth[nodes]] * len(series))
        stop_row = np.minimum(np.maximum((node_depth - e0) // 2, 0), last_row)
        lat.extend(int((e0 + 2 * stop_row + shift).max(initial=0)))
        part_sums, part_outcome = _sum_columns(lat, k, p, ctl, stop_row + 1)
        sums[:, summed] = part_sums.reshape(len(series), summed.size)
        outcome[:, summed] = part_outcome.reshape(len(series), summed.size)

    code = np.full(eta_sq.size, STOPPED)
    values = np.zeros((len(series) + 1, eta_sq.size))  # the last row: pairs zero by symmetry
    if series:  # the first series that did not stop, in the scalar path's order
        code[live] = outcome[(outcome != STOPPED).argmax(axis=0), np.arange(live.size)]
        for i, lm in enumerate(series):
            if lm and lm[0] != lm[1]:  # else xi^0 = 1.0, and 1.0 s = s
                power = np.array([_xi_power(x, lm[0] - lm[1]) for x in xi_live])
                sums[i] *= np.where(code[live] != STOPPED, 0.0, np.concatenate([power] * reps))
        values[:-1, live] = sums / sums[1]
    if (0, 0) in ordered:  # the vacuum at xi = 0
        values[series.index((0, 0)), np.concatenate([zero] * reps)] = 1.0
    values[:, code != STOPPED] = np.nan
    row = {lm: i for i, lm in enumerate(series)}
    return {(l, m): values[row.get((max(l, m), min(l, m)), -1)] for l, m in pairs}, code


@dataclass(frozen=True)
class SqueezeRow:
    """`squeeze.SqueezeCoeffs` of a row of points of one order k, as arrays over the nodes.

    constant[j] and harmonics[p-1][j] belong to node j.  outcome[j] is
    the `_moment_rows` outcome code of node j: STOPPED where its series
    converged, else how the first one failed; its coefficients are NaN
    then.
    """

    k: int
    N: int
    constant: np.ndarray
    harmonics: tuple[np.ndarray, ...]
    outcome: np.ndarray

    @property
    def ok(self) -> np.ndarray:
        """True at the nodes whose series converged."""
        return self.outcome == STOPPED

    def squeeze_parameter(self, phi: float) -> np.ndarray:
        """`squeeze.squeeze_parameter` at every node, bit for bit; NaN where the series failed.

        Raises the FansqError of the first converged node, in row order,
        below the positivity bound.
        """
        s = _cosine_sum(self.constant, self.harmonics, self.k, phi)
        ok = self.ok
        low = ok & ~(s >= _lower_bound(self.N))
        if np.count_nonzero(low):
            raise _below_bound(float(s[low.argmax()]), self.N)
        return np.where(ok, s, np.nan)


def squeeze_rows(
    k: int,
    xi_sq: Sequence[float],
    N: int,
    eta_sq: Sequence[float],
    ctl: SeriesControl = DEFAULT_CONTROL,
) -> SqueezeRow:
    """`squeeze.coefficients` of R stacked rows over one xi_sq axis, as arrays.

    eta_sq holds R * len(xi_sq) values, row-major, 0.0 for the
    identity.  Node r * len(xi_sq) + j holds what
    `coefficients(FanConfig.from_xi_sq(k, xi_sq[j], model), N, ctl)`
    returns for the model of eta_sq[r * len(xi_sq) + j], up to rounding,
    or the outcome code of the error it raises, whichever rows share
    the call.  All series are summed by `_moment_rows`, and no per-node
    object is built.
    """
    _check_order(N)
    xi = np.sqrt(_nonnegative_array("xi_sq", xi_sq))
    positive_int("fan order k", k)  # before `_moment_pairs` divides by it
    eta = _nonnegative_array("eta_sq", eta_sq)
    values, outcome = _moment_rows(k, xi, _moment_pairs(k, N), eta, ctl)
    const, harmonics = _assemble(k, N, values)
    return SqueezeRow(k=k, N=N, constant=const, harmonics=tuple(harmonics), outcome=outcome)
