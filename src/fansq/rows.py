"""The row engine: the series of many points of one order k, summed together.

A row is many points of one order k, each with its own xi and eta_sq,
0.0 standing for the identity model: grid scans pass every eta_sq row
of the grid over one xi axis, boundary refinement one ITP probe per
crossing.  Every series a point needs becomes one column of a 2-D
numpy block of terms over the even summation indices of
`fansq.fanstate`'s series (the odd ones are exact zeros).
`convergence_depth` predicts from rho = xi^2 eta^2 where each point's
series stop.  The block grows by doubling, for the columns still
running only, with one block boundary put at the deepest predicted stop
of those columns.  The products of the nonlinearity come from a lattice
with one column per distinct eta_sq, built once up front to the deepest
predicted index, in numpy, from Laguerre values equal bit for bit to
the scalar path's, so both find the same poles.  Each column replays
the scalar path: the same terms, the same Neumaier sums (sequential
cumulative sums plus their exact rounding errors), the same stop rule
on the same even terms, and the same overflow, pole and term-cap
checks, so its value does not depend on the block sizes, on the
prediction or on which columns or eta_sq share the block.  A cumulative
sum or product runs down the rows of a block as numpy's accumulate
where the block is narrow and as one addition per row where it is wide
(`_cumulate`); both add each column in row order, so both give the
same bits.  A node whose series fail gets the outcome code (SINGULAR,
OVERFLOW or CAPPED) of the failure the scalar path would raise first;
the words of that error exist on the scalar path only.  The row path
fills none of the scalar path's memo tables.  `moment_rows` takes what
depends on the xi axis alone once per call (the checks, the series and
their order, ln xi, the column parameters and xi^(l - m)) and tiles it
over R rows of eta_sq.  It predicts every node's depth once and splits
the rows into runs of contiguous rows of like predicted depth
(`_row_runs`), since the lattice grows every eta_sq of a run to its
deepest row; each run is one lattice and one `_sum_columns` call.
`squeeze_rows` assembles the decomposition of `fansq.squeeze` from
those moments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import DomainError, nonnegative_float, nonnegative_int, positive_int
from .fanstate import _LAGUERRE_FLOOR, _LOG_HUGE, DEFAULT_CONTROL, SeriesControl
from .specfun import _grow_laguerre, log_factorials
from .squeeze import _assemble, _below_bound, _check_order, _cosine_sum, _lower_bound, _moment_pairs

# up to this many pairs the float loop per pair is faster: it costs about
# 0.22 us per pair and degree, one numpy step over all pairs 2.1-2.4 us
# per degree from 2 to 32 pairs, so they cross at about 10 pairs
# (`tools/row_kernel_ab.py`); a scan run has two pairs per row of one model
_FEW_PAIRS = 8


class LaguerreRows:
    """L_0^m[r](x[r]) .. L_n^m[r](x[r]) for many pairs (m[r], x[r]) at once.

    Row i of `upto(n)` holds degree i of every pair.  The recurrence of
    `_grow_laguerre` runs on all pairs together, one numpy step per
    degree written in place into one preallocated block, with the
    same operations in the same order, so each value is the float the
    scalar loop gives.  A few pairs run that loop itself.
    """

    def __init__(self, m: np.ndarray, x: np.ndarray) -> None:
        self.m = np.asarray(m)
        self.x = np.asarray(x, dtype=float)
        self._vals = np.ones((1, self.x.size))

    def upto(self, n: int) -> np.ndarray:
        vals = self._vals
        if n < vals.shape[0]:
            return vals[: n + 1]
        m, x = self.m, self.x
        if 0 < x.size <= _FEW_PAIRS:
            cols = vals.T.tolist()
            for col, m_r, x_r in zip(cols, m.tolist(), x.tolist()):
                _grow_laguerre(col, m_r, x_r, n)
            vals = np.array(cols).T
        else:
            old = vals.shape[0]
            grown = np.empty((n + 1, x.size))
            grown[:old] = vals
            d = np.arange(old, n + 1)[:, None]  # degrees to add
            rise = ((2 * d - 1) + m) - x
            fall = (d - 1 + m).astype(float)
            prev = grown[old - 2] if old > 1 else np.zeros(x.size)  # L_{-1} = 0 gives degree 1
            term = np.empty(x.size)
            for i, up, down in zip(range(old, n + 1), rise, fall):
                row, cur = grown[i], grown[i - 1]
                np.multiply(up, cur, out=row)
                row -= np.multiply(down, prev, out=term)
                row /= i
                prev = cur
            vals = grown
        self._vals = vals
        return vals


def _nonnegative_array(name: str, values: Sequence[float]) -> np.ndarray:
    """values as a float array, or the DomainError of its first entry not finite and >= 0."""
    arr = np.array(values, dtype=float)
    bad = ~(np.isfinite(arr) & (arr >= 0))
    if bad.any():
        i = int(bad.argmax())
        nonnegative_float(f"{name}[{i}]", float(arr[i]))
    return arr


_DEPTH_FACTOR = 1.25  # the bare count falls up to 30% short of the deepest stop of a c08 row
_DEPTH_PAD = 8  # summation indices added after the margin


def convergence_depth(
    k: int,
    xi: Sequence[float],
    eta_sq: Sequence[float],
    ctl: SeriesControl = DEFAULT_CONTROL,
) -> tuple[np.ndarray, np.ndarray]:
    """rho and the predicted stop index of the series of each point (xi[j], eta_sq[j]).

    For `TrappedIon(eta_sq, 2k)`, Fejer's asymptotics of the Laguerre
    polynomials (Szego, Orthogonal Polynomials, 8.22) give f(m) ~
    (m eta_sq)^-k, so the terms of every series fall like rho^(2kn) in
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
    positive_int("fan order k", k)
    xi_arr = _nonnegative_array("xi", xi)
    eta_arr = _nonnegative_array("eta_sq", eta_sq)
    if eta_arr.size != xi_arr.size:
        raise DomainError(f"need one eta_sq per xi, got {eta_arr.size} for {xi_arr.size}")
    ion = eta_arr > 0
    log_tol = -math.log(ctl.rel_tol)
    with np.errstate(all="ignore"):  # inf or NaN from rho = 1 on: fmin takes n_max
        xi_sq = xi_arr * xi_arr
        rho = np.where(ion, xi_sq * eta_arr, 0.0)
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


def _cumulate(ufunc: np.ufunc, block: np.ndarray) -> np.ndarray:
    """ufunc.accumulate(block, axis=0) as a new array, with the same bits.

    Both forms apply ufunc down each column in row order; a block of at
    least _WIDE columns takes one ufunc call per row, a narrower one
    numpy's accumulate.  block itself is only read.
    """
    if block.shape[1] < _WIDE:
        return ufunc.accumulate(block, axis=0)
    out = np.empty_like(block)
    out[:1] = block[:1]
    for prev, row, cur in zip(out, block[1:], out[1:]):
        ufunc(prev, row, out=cur)
    return out


_FIRST_BLOCK = 8  # even rows (16 indices) in the first block; each later block doubles the total
_NO_POLE = np.iinfo(np.int64).max


class _Lattice:
    """Signed log-products of f at multiples of 2k, one column per distinct eta_sq.

    Entry [i, g] holds the product that `fanstate.ProductTable` holds at
    index i for eta_sq[g], f(2k) f(4k) ... f(2k i), with f = 1 for the
    identity (eta_sq = 0.0).  It is built from the same Laguerre values
    and log-factorials in the same order, so only the logs may round
    differently.  pole[g] is the first index whose
    product is singular, or _NO_POLE; entries from there on repeat the
    last product before it, finite and unused.
    """

    def __init__(self, eta_sq: np.ndarray, step: int) -> None:
        self.step = step
        self.ion = np.flatnonzero(eta_sq > 0)
        # the quantum order K is 2k = step: both Laguerre orders in one table
        self.laguerre = LaguerreRows(np.repeat([0, step], self.ion.size), np.tile(eta_sq[self.ion], 2))
        self.sign = np.ones((1, eta_sq.size))
        self.logmag = np.zeros((1, eta_sq.size))
        self.pole = np.full(eta_sq.size, _NO_POLE)
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
        self.sign = np.vstack(
            (self.sign, _cumulate(np.multiply, np.vstack((self.sign[-1], sign)))[1:])
        )
        self.logmag = np.vstack(
            (self.logmag, _cumulate(np.add, np.vstack((self.logmag[-1], logmag)))[1:])
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
    `_cumulate`: numpy's accumulate below _WIDE columns, one row
    addition at a time from there on, with the same bits, and into a
    new array, since the terms are read from the block's rows after.
    The stop rule is the scalar path's, with its three exceptions
    applied only where they can bite: an even n0's first term stops
    nothing (row 0 of block 0), a zero sum at n0 + 2 stops there (only
    when n_max <= 3), and no stop or failure counts past the term cap
    (only in the block that reaches it).  ends[c] is the row after the predicted stop of column c: a
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
        partial = _cumulate(np.add, partial)
        prev, s = partial[:-1], partial[1:]
        # TwoSum: the exact rounding error of each partial sum
        back = s - prev
        err = s - back
        np.subtract(prev, err, out=err)
        np.subtract(x, back, out=back)
        c = np.empty_like(partial)
        c[0] = comp
        np.add(err, back, out=c[1:])
        c = _cumulate(np.add, c)[1:]
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


def _xi_power(xi: float, diff: int) -> float:
    """xi**diff, with the scalar path's `**`, or inf past float range.

    A node that far out fails its series first, so its values are NaN.
    """
    try:
        return xi**diff
    except OverflowError:
        return math.inf


def moment_rows(
    k: int,
    xi: Sequence[float],
    pairs: Sequence[tuple[int, int]],
    eta_sq: Sequence[float],
    ctl: SeriesControl = DEFAULT_CONTROL,
) -> tuple[dict[tuple[int, int], np.ndarray], np.ndarray]:
    """Normally-ordered moments of R stacked rows of fan states over one xi axis.

    eta_sq holds R * len(xi) values, row-major, 0.0 for the identity:
    node r * len(xi) + j is xi[j] with eta_sq[r * len(xi) + j].  Returns
    (values, outcome).  values[(l, m)][i] is `fanstate.moment` of node i
    up to rounding.  outcome[i] is STOPPED where every series of node i
    stopped (xi = 0 included), else the code of the failure the scalar
    path raises first when it evaluates the pairs in the given order:
    SINGULAR for its `SingularNonlinearity`, OVERFLOW and CAPPED for its
    `SeriesNotConverged` of a term past float range and of the term cap.
    Values are NaN at a failed node.

    Each series the pairs need (the normalization and every moment not
    zero by symmetry) is one column per positive xi.  What depends on
    the axis alone is taken once and tiled R times: the checks, the
    series and their order, ln xi and the column parameters, and
    xi^(l - m), with `math.log` and `**` as the scalar path takes them.
    A node at rho >= 1 is CAPPED without a term summed, as the scalar
    path raises there at once.  The rows run in runs of like depth
    (`_row_runs`, fed by each row's deepest node), each with one lattice
    over the distinct eta_sq of its summed nodes, built up front to the
    deepest index `convergence_depth` predicts.  A node's value does not
    depend on its run.
    """
    positive_int("fan order k", k)
    xi_arr = _nonnegative_array("xi", xi)
    xi_list = xi_arr.tolist()
    for l, m in pairs:
        nonnegative_int("moment power l", l)
        nonnegative_int("moment power m", m)
    eta_arr = _nonnegative_array("eta_sq", eta_sq)
    width = len(xi_list)
    reps = eta_arr.size // width if width else 1
    if not reps or eta_arr.size != reps * width:
        raise DomainError(f"need one eta_sq per xi in each row, got {eta_arr.size} for {width}")
    step = 2 * k
    zero = xi_arr == 0.0
    axis_live = np.flatnonzero(~zero)
    ordered = {(max(l, m), min(l, m)): None for l, m in pairs}
    series = [lm for lm in ordered if (lm[0] - lm[1]) % (2 * step) == 0]
    # the scalar path sums the first moment, then the normalization it
    # divides by, then the others: that order decides which error a
    # node reports
    if series:
        series.insert(1, None)

    def per_column(f):
        return np.repeat([f(lm) for lm in series], axis_live.size)

    n0 = per_column(lambda lm: 0 if lm is None else -(-lm[1] // step))
    m_col = per_column(lambda lm: 0 if lm is None else lm[1])
    e0_axis = n0 + n0 % 2  # row r of a column is the even index e0 + 2r
    unset = np.zeros_like(n0)  # g and the lattice positions come with each run
    columns = _Columns(
        g=unset,
        n0=n0,
        shift=per_column(lambda lm: 0 if lm is None else (lm[0] - lm[1]) // step),
        m=m_col,
        norm=per_column(lambda lm: lm is None),
        log_xi=np.tile([math.log(xi_list[j]) for j in axis_live], len(series)),
        power=(2 * step * e0_axis).astype(float),
        lf=step * e0_axis - m_col,
        first=unset,
        second=unset,
    )

    rho, depth = convergence_depth(k, np.tile(xi_arr, reps), eta_arr, ctl)
    per_row = axis_live.size
    live = (np.arange(reps)[:, None] * width + axis_live).ravel()
    sums = np.full((len(series), live.size), np.nan)
    outcome = np.full((len(series), live.size), CAPPED)
    last_row = (ctl.n_max + 1) // 2 - 1
    deepest = depth.reshape(reps, width).max(axis=1, initial=0).tolist()
    for run in _row_runs(deepest, max(width, 1)):  # an empty axis is one empty row
        part = np.arange(run.start * per_row, run.stop * per_row)  # positions in live
        summed = part[rho[live[part]] < 1]
        eta_run, group = np.unique(eta_arr[live[summed]], return_inverse=True)
        lat = _Lattice(eta_run, step)
        # the axis columns of every summed node: series-major, then node
        cols = (np.arange(len(series))[:, None] * per_row + summed % per_row).ravel()
        params, e0 = columns.take(cols), e0_axis[cols]
        g = np.tile(group, len(series))
        first, second = lat.positions(e0, e0 + params.shift, params.norm, g)
        params = params._replace(g=g, first=first, second=second)
        # a block ends after the row of the predicted stop, within the term cap
        stop_row = np.clip((np.tile(depth[live[summed]], len(series)) - e0) // 2, 0, last_row)
        lat.extend(int((e0 + 2 * stop_row + params.shift).max(initial=0)))
        part_sums, part_outcome = _sum_columns(lat, k, params, ctl, stop_row + 1)
        sums[:, summed] = part_sums.reshape(len(series), summed.size)
        outcome[:, summed] = part_outcome.reshape(len(series), summed.size)

    code = np.full(eta_arr.size, STOPPED)
    if series:  # the first series that did not stop, in the scalar path's order
        code[live] = outcome[(outcome != STOPPED).argmax(axis=0), np.arange(live.size)]
    failed = code != STOPPED
    powers = {lm: [_xi_power(xi_list[j], lm[0] - lm[1]) for j in axis_live] for lm in series if lm}
    values = {}
    for l, m in pairs:
        lm = (max(l, m), min(l, m))
        v = np.tile(np.where(zero, float(lm == (0, 0)), 0.0), reps)  # the vacuum at xi = 0
        if lm in powers:
            scale = np.where(failed[live], 0.0, np.tile(powers[lm], reps))
            v[live] = scale * sums[series.index(lm)] / sums[1]
        v[failed] = np.nan
        values[(l, m)] = v
    return values, code


@dataclass(frozen=True)
class SqueezeRow:
    """`squeeze.SqueezeCoeffs` of a row of points of one order k, as arrays over the nodes.

    constant[j] and harmonics[p-1][j] belong to node j.  outcome[j] is
    the `moment_rows` outcome code of node j: STOPPED where its series
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
        if low.any():
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
    the call.  All series are summed by `moment_rows`, and no per-node
    object is built.
    """
    _check_order(N)
    xi = np.sqrt(_nonnegative_array("xi_sq", xi_sq))
    positive_int("fan order k", k)  # before `_moment_pairs` divides by it
    values, outcome = moment_rows(k, xi, _moment_pairs(k, N), eta_sq, ctl)
    const, harmonics = _assemble(k, N, values)
    return SqueezeRow(k=k, N=N, constant=const, harmonics=tuple(harmonics), outcome=outcome)
