"""The row engine's kernel as it was before its passes were cut, for the tests.

`moment_rows` calls the engine's moment core with float arrays, as
`squeeze_rows` does, for any pairs.

`_term_block`, `_first` and `_sum_columns` below are the earlier
kernel, kept verbatim: each term block returns full-size masks of where
the scalar path raises, and each Neumaier error comes from Neumaier's
branch on the larger magnitude.  The package's kernel must give the
same sums and outcome codes bit for bit on the same lattice and
columns.
"""

import math

import numpy as np

from fansq.fanstate import _LOG_HUGE, DEFAULT_CONTROL, SeriesControl
from fansq.rows import (
    _FIRST_BLOCK,
    CAPPED,
    OVERFLOW,
    RUNNING,
    SINGULAR,
    STOPPED,
    _Columns,
    _Lattice,
    _moment_rows,
)
from fansq.specfun import log_factorials


def moment_rows(k, xi, pairs, eta_sq, ctl=DEFAULT_CONTROL):
    """`_moment_rows` of the xi axis and eta_sq as float arrays: (values by pair, outcome)."""
    return _moment_rows(k, np.array(xi, dtype=float), pairs, np.array(eta_sq, dtype=float), ctl)


def _term_block(lat: _Lattice, k: int, a: int, b: int, p: _Columns):
    """Terms at rows a..b-1 of every column, as in `_series_sum`.

    Row r is the even summation index n0 + 2r, n0 rounded up to even.
    Returns (terms, singular, overflow): the terms, with zeros where the
    scalar path raises, and where it raises which error.
    """
    n = 2 * np.arange(a, b)[:, None] + (p.n0 + p.n0 % 2)
    top = n + p.shift
    lat.extend(int(top.max()))
    singular = top >= lat.pole[p.g]
    ok = ~singular
    # flat positions of the two products in the lattice
    groups = lat.pole.size
    i1 = np.where(ok, n, 0) * groups + p.g
    i2 = np.where(ok, top, 0) * groups + p.g
    # the lattice's first slot of each index holds the products themselves
    lat_logmag, lat_sign = (
        t.reshape(-1, 3, groups)[:, 0].ravel() for t in (lat.log_table, lat.sign_table)
    )
    lf = log_factorials(2 * k * int(n.max()))
    logmag = (2 * math.log(2 * k) + (4 * k * n) * p.log_xi) - lf[2 * k * n - p.m]
    p1 = lat_logmag[i1]
    logmag = np.where(p.norm, logmag - 2 * p1, (logmag - p1) - lat_logmag[i2])
    overflow = ok & (logmag > _LOG_HUGE)
    ok &= ~overflow
    terms = np.exp(np.where(ok, logmag, -np.inf)) * (lat_sign[i1] * lat_sign[i2])
    # leading normalization term is exactly (2k)^2, as in `normalization`
    terms[(n == 0) & p.norm] = float(4 * k * k)
    return terms, singular, overflow


def _first(mask: np.ndarray) -> np.ndarray:
    """Row of the first True in each column, or the row count if none."""
    return np.where(mask.any(axis=0), mask.argmax(axis=0), mask.shape[0])


def _sum_columns(lat: _Lattice, k: int, p: _Columns, ctl: SeriesControl, ends: np.ndarray):
    """Per-column `_series_sum`: returns the sums and the outcome codes.

    The rows are the even terms, and the stop rule is the scalar path's,
    the exception at an even n0 included.  ends[c] is the row after the
    predicted stop of column c: a block that would run past the deepest
    end of the running columns ends there, and the blocks double again
    after it.
    """
    width = p.n0.size
    sums = np.full(width, np.nan)
    outcome = np.full(width, RUNNING)
    cols = np.arange(width)
    acc = np.zeros(width)  # Neumaier sum and compensation, carried
    comp = np.zeros(width)
    last = (ctl.n_max + 1) // 2
    a = 0
    size = _FIRST_BLOCK
    while cols.size:
        b = min(a + size, last)
        deepest = int(ends[cols].max())
        if a < deepest < b:
            b = deepest
        here = p.take(cols)
        x, singular, overflow = _term_block(lat, k, a, b, here)
        partial = np.cumsum(np.vstack((acc, x)), axis=0)
        prev, s = partial[:-1], partial[1:]
        err = np.where(np.abs(prev) >= np.abs(x), (prev - s) + x, (x - s) + prev)
        c = np.cumsum(np.vstack((comp, err)), axis=0)[1:]
        value = s + c
        offset = 2 * np.arange(a, b)[:, None] + here.n0 % 2  # index - n0
        fail_at = _first((singular | overflow) & (offset < ctl.n_max))
        # a small term stops its column at the odd index after it, but
        # not at an even n0; a zero sum at n0 + 2 means both terms there
        # underflowed, and the column stops at n0 + 2 itself
        end = offset + 1 - ((offset == 2) & (value == 0.0))
        small = np.abs(x) <= ctl.rel_tol * np.abs(value)
        stop_at = _first(small & (offset > 0) & (end < ctl.n_max))
        # a failing term raises before it is added, so it beats a stop there
        failed = (fail_at < b - a) & (fail_at <= stop_at)
        stopped = stop_at < fail_at
        idx = np.arange(cols.size)
        outcome[cols[failed]] = np.where(
            singular[fail_at[failed], idx[failed]], SINGULAR, OVERFLOW
        )
        outcome[cols[stopped]] = STOPPED
        sums[cols[stopped]] = value[stop_at[stopped], idx[stopped]]
        rest = ~(failed | stopped)
        if b == last:
            outcome[cols[rest]] = CAPPED
            break
        cols = cols[rest]
        acc, comp = s[-1, rest], c[-1, rest]
        a, size = b, b
    return sums, outcome
