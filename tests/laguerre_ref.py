"""Laguerre values by the plain ascending recurrence, for the reference paths of the tests.

The package keeps Laguerre values in tables (the lists of
`fanstate.ProductTable`, and `rows.LaguerreRows`).  The tests check
those tables against this plain evaluation of the same recurrence, and
use it to locate poles.  `grow_laguerre` is the package's loop for one
order, which grew each of the two orders of a table on its own.
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


def grow_laguerre(vals, m: int, x: float, n: int) -> None:
    """Append degrees up to n to the values L_0^m(x), L_1^m(x), ... in vals.

    One loop over local variables, with the recurrence's expression in
    its one order.  Degree 1 comes from L_{-1} = 0, which gives
    1 + m - x exactly, so every value is the float of `laguerre`,
    however the list was grown.
    """
    i = len(vals) - 1
    prev, cur = (vals[i - 1] if i else 0.0), vals[i]
    for i in range(i, n):
        prev, cur = cur, ((2 * i + 1 + m - x) * cur - (i + m) * prev) / (i + 1)
        vals.append(cur)
