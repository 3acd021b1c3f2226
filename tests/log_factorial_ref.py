"""ln n! grown one entry at a time, the loop `specfun._LogFactorialTable` ran before, for the tests.

Entry n is entry n - 1 plus `math.log(n)`, added left to right in
floats; the package's table must hold these values bit for bit, however
it is grown.
"""

import math


def log_factorial_table(n: int) -> list[float]:
    """ln 0!, ln 1!, ..., ln n! (at least the first two), one float addition per entry."""
    table = [0.0, 0.0]
    for i in range(2, n + 1):
        table.append(table[-1] + math.log(i))
    return table
