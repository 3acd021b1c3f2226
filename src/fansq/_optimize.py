"""Bracketed root finding: ITP probes, stepped in lockstep over many brackets.

Hand-rolled so tolerance semantics are exactly what the callers state
(absolute interval widths, no hidden relative tolerances).  Given only
the signs of f (+-1 at both ends) the ITP probe is the midpoint, bit for
bit, so a caller gets bisection's probes by passing signs.
"""

from __future__ import annotations

from typing import Callable

import numpy as np


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


def refine_brackets(
    a: np.ndarray, b: np.ndarray, fa: np.ndarray, fb: np.ndarray,
    evaluate: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]], xtol: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Roots of every bracket [a, b] by ITP in lockstep, one `evaluate` call per step.

    fa and fb, f at the ends, differ in sign; an end where f is exactly
    0.0 (fa first) is the root.  `evaluate(x, rows)` gives f at the
    probes x of the brackets `rows` and where it failed; a failed bracket
    stops.  A bracket stops at a probe where f is exactly 0.0 (the root),
    or at width xtol or once its midpoint is no longer strictly inside
    (the root is the midpoint), never later than bisection would.
    Returns the roots and the failed mask, in input order.
    """
    a, b, fa, fb = (np.array(v, dtype=float) for v in (a, b, fa, fb))
    width0 = b - a
    failed = np.zeros(len(a), dtype=bool)
    root = np.where(fa == 0.0, a, np.where(fb == 0.0, b, np.nan))
    step = 0
    while True:
        mid = 0.5 * (a + b)
        rows = (np.isnan(root) & ~failed & (b - a > xtol) & (mid > a) & (mid < b)).nonzero()[0]
        if not rows.size:
            break
        x = itp_probe(a[rows], b[rows], fa[rows], fb[rows], width0[rows], step, xtol)
        fx, fail = evaluate(x, rows)
        failed[rows[fail]] = True
        zero = ~fail & (fx == 0.0)
        root[rows[zero]] = x[zero]
        to_a = ~fail & ~zero & ((fx > 0) == (fa[rows] > 0))
        to_b = ~fail & ~zero & ~to_a
        a[rows[to_a]], fa[rows[to_a]] = x[to_a], fx[to_a]
        b[rows[to_b]], fb[rows[to_b]] = x[to_b], fx[to_b]
        step += 1
    return np.where(np.isnan(root), 0.5 * (a + b), root), failed
