"""Numerically stable special functions shared by every series in the package.

Provides generalized Laguerre polynomials via the ascending three-term
recurrence, a cumulative-sum log-factorial table and double factorials.
"""

from __future__ import annotations

import math
import numpy as np


class _LogFactorialTable:
    """Cumulative-sum table of ln(n!), grown on demand.

    Rounding accumulates along the sum: against 40-digit loggamma entry
    n is off by 7.9e-12 at n = 1,000 and by 2.0e-10 at n = 10,000.
    """

    def __init__(self) -> None:
        self._table = [0.0, 0.0]  # ln 0!, ln 1!
        self._array = np.zeros(0)

    def __call__(self, n: int) -> float:
        if n < 0:
            raise ValueError(f"factorial of negative index {n}")
        t = self._table
        if n >= len(t):
            for i in range(len(t), n + 1):
                t.append(t[-1] + math.log(i))
        return t[n]

    def live(self, n: int) -> list[float]:
        """The live table itself, not a copy, grown to hold ln(n!).

        For hot loops that index it directly.  A write to it would change
        every later value of this table, so callers only read it.
        """
        self(n)
        return self._table

    def upto(self, n: int) -> np.ndarray:
        """ln(0!) .. ln(n!) as a read-only array holding the table's values.

        The array copy is rebuilt at (at least) twice its size when it
        runs short, so slicing it costs no per-element Python work.
        """
        arr = self._array
        if n >= arr.size:
            self(max(n, 2 * arr.size))
            arr = np.array(self._table)
            arr.flags.writeable = False
            self._array = arr
        return arr[: n + 1]


log_factorial = _LogFactorialTable()
log_factorials = log_factorial.upto


def double_factorial(n: int) -> int:
    """n!! = n (n-2) (n-4) ... down to 1 or 2; 0!! = (-1)!! = 1."""
    if n < -1:
        raise ValueError(f"double factorial of {n}")
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def _grow_laguerre_pair(den, num, K: int, x: float, n: int) -> None:
    """Append degrees up to n to L_j^0(x) in den and L_j^K(x) in num, which hold as many.

    One loop over local variables keeps each recurrence's expression in
    its one order; degree 1 comes from L_{-1} = 0, which gives 1 + m - x
    exactly, so every value is the float of `tests/laguerre_ref.py`,
    however the lists were grown.
    """
    i = len(den) - 1
    d_prev, d_cur = (den[i - 1] if i else 0.0), den[i]
    n_prev, n_cur = (num[i - 1] if i else 0.0), num[i]
    for i in range(i, n):
        d_prev, d_cur = d_cur, ((2 * i + 1 - x) * d_cur - i * d_prev) / (i + 1)
        n_prev, n_cur = n_cur, ((2 * i + 1 + K - x) * n_cur - (i + K) * n_prev) / (i + 1)
        den.append(d_cur)
        num.append(n_cur)
