"""Laguerre values by the plain ascending recurrence, for the reference paths of the tests.

The package keeps Laguerre values in tables (the lists of
`fanstate.ProductTable`, and `rows.LaguerreRows`).  The tests check
those tables against this plain evaluation of the same recurrence, and
use it to locate poles.
"""

# ascending lists L_0^m(x), L_1^m(x), ... of `laguerre_upto`, by (m, x)
_ascending: dict = {}


def laguerre(n: int, m: int, x: float) -> float:
    """Generalized Laguerre polynomial L_n^m(x), ascending recurrence in n.

    The recurrence is well-conditioned for the small arguments used here
    (x = eta^2 of order one).
    """
    if n < 0 or m < 0:
        raise ValueError(f"Laguerre indices must be nonnegative, got n={n}, m={m}")
    prev = 1.0
    if n == 0:
        return prev
    cur = 1.0 + m - x
    for i in range(1, n):
        prev, cur = cur, ((2 * i + 1 + m - x) * cur - (i + m) * prev) / (i + 1)
    return cur


def laguerre_upto(n: int, m: int, x: float) -> list:
    """L_0^m(x) .. L_n^m(x) (or more): `laguerre` at each degree, kept per (m, x).

    The same operations in the same order as `laguerre`, so each value
    is the float it returns, at O(1) per new degree.
    """
    vals = _ascending.setdefault((m, x), [1.0, 1.0 + m - x])
    while len(vals) <= n:
        i = len(vals) - 1
        vals.append(((2 * i + 1 + m - x) * vals[i] - (i + m) * vals[i - 1]) / (i + 1))
    return vals
