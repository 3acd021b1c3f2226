"""Bracketed root finding: scalar bisection and the ITP probe.

Hand-rolled so tolerance semantics are exactly what the callers state
(absolute interval widths, no hidden relative tolerances).
"""

from __future__ import annotations

from typing import Callable

import numpy as np


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


# ITP constants (Oliveira & Takahashi, ACM TOMS 47(1), 2020):
# kappa1 = _ITP_KAPPA1_WIDTH / (b0 - a0), kappa2 = 2, n0 = 0
_ITP_KAPPA1_WIDTH = 0.4
_ITP_KAPPA2 = 2
_ITP_N0 = 0
# the projection radius uses eps a little below xtol/2, so that rounding
# at widths near xtol never costs a step beyond bisection's count
_ITP_EPS_MARGIN = 1e-3


def itp_probe(
    a: np.ndarray,
    b: np.ndarray,
    fa: np.ndarray,
    fb: np.ndarray,
    width0: np.ndarray,
    step: int,
    xtol: float,
) -> np.ndarray:
    """The ITP probe of each bracket [a, b] at step `step` (0 for the first).

    fa and fb are nonzero and of opposite signs; width0 is each
    bracket's initial width.  The regula falsi point is truncated toward
    the midpoint and projected into the radius that keeps every bracket
    within ceil(log2(width0 / xtol)) + n0 steps of width xtol.  A probe
    not strictly inside (a, b) falls back to the midpoint.
    """
    mid = 0.5 * (a + b)
    width = b - a
    x_f = (fb * a - fa * b) / (fb - fa)
    sigma = np.sign(mid - x_f)
    delta = _ITP_KAPPA1_WIDTH / width0 * width**_ITP_KAPPA2
    x_t = np.where(delta <= np.abs(mid - x_f), x_f + sigma * delta, mid)
    n_max = np.ceil(np.log2(width0 / xtol)).astype(int) + _ITP_N0
    eps = 0.5 * xtol * (1.0 - _ITP_EPS_MARGIN)
    r = np.maximum(np.ldexp(eps, n_max - step) - 0.5 * width, 0.0)
    x = np.where(np.abs(x_t - mid) <= r, x_t, mid - sigma * r)
    return np.where((a < x) & (x < b), x, mid)
