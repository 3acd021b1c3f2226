"""One Laguerre value at a time, for the reference paths of the tests.

The package keeps Laguerre values in tables (`LaguerreTable`,
`LaguerreRows`).  The tests check those tables against this plain
evaluation of the same ascending recurrence, and use it to locate poles.
"""


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
