"""Scalar bisection.

Hand-rolled so tolerance semantics are exactly what the callers state
(absolute interval widths, no hidden relative tolerances).
"""

from __future__ import annotations

from typing import Callable


def bisect_root(
    f: Callable[[float], float],
    a: float,
    b: float,
    xtol: float,
    fa: float | None = None,
    fb: float | None = None,
) -> float:
    """Root of f in [a, b] by bisection; f(a) and f(b) must differ in sign."""
    if not a < b:
        raise ValueError(f"need a < b, got [{a}, {b}]")
    fa = f(a) if fa is None else fa
    fb = f(b) if fb is None else fb
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa > 0) == (fb > 0):
        raise ValueError(f"no sign change on [{a}, {b}]: f(a)={fa}, f(b)={fb}")
    while b - a > xtol:
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:  # interval below float resolution
            break
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm > 0) == (fa > 0):
            a, fa = mid, fm
        else:
            b, fb = mid, fm
    return 0.5 * (a + b)

