"""Scalar ITP and bisection root finding, one bracket at a time, for the
reference paths of the tests.

The package computes the ITP probes of many brackets at once
(`_optimize.itp_probe`) and steps them in lockstep
(`_optimize.refine_brackets`).  The tests check both against this plain
transcription of the method of Oliveira & Takahashi, "An Enhancement of
the Bisection Method Average Performance Preserving Minmax Optimality",
ACM TOMS 47(1), 2020, and the roots against plain bisection.

Three details go beyond the paper's pseudocode, as in the package: the
projection radius uses eps = xtol/2 * (1 - eps_margin), clamped at 0,
while n_max and the stopping width use xtol itself; a probe that is not
strictly inside (a, b) falls back to the midpoint; and the loop also
stops when the midpoint is no longer strictly inside (a, b), as
`bisect_root` below does.
"""

import math


def itp_root(f, a, b, xtol, fa, fb, kappa1_width=0.4, kappa2=2, n0=0, eps_margin=1e-3):
    """Root of f in [a, b] to width xtol, and the brackets it probed.

    fa = f(a) and fb = f(b) must be nonzero and of opposite signs.
    Returns (root, probes), where probes lists (a, b, fa, fb, j, x) for
    the probe x of step j.  kappa1 is kappa1_width / (b - a).
    """
    width0 = b - a
    kappa1 = kappa1_width / width0
    n_max = math.ceil(math.log2(width0 / xtol)) + n0
    eps = 0.5 * xtol * (1.0 - eps_margin)
    probes = []
    j = 0
    while b - a > xtol:
        x_half = 0.5 * (a + b)
        if not a < x_half < b:  # interval below float resolution
            break
        r = max(math.ldexp(eps, n_max - j) - 0.5 * (b - a), 0.0)
        delta = kappa1 * (b - a) ** kappa2
        # interpolation: regula falsi
        x_f = (fb * a - fa * b) / (fb - fa)
        # truncation toward the midpoint
        sigma = (x_half > x_f) - (x_half < x_f)
        x_t = x_f + sigma * delta if delta <= abs(x_half - x_f) else x_half
        # projection into the minmax radius
        x = x_t if abs(x_t - x_half) <= r else x_half - sigma * r
        if not a < x < b:
            x = x_half
        probes.append((a, b, fa, fb, j, x))
        y = f(x)
        if y == 0.0:
            return x, probes
        if (y > 0) == (fa > 0):
            a, fa = x, y
        else:
            b, fb = x, y
        j += 1
    return 0.5 * (a + b), probes


def bisect_root(f, a, b, xtol, fa=None, fb=None):
    """Root of f in [a, b] by bisection; f(a) and f(b) must differ in sign.

    An end where f is exactly 0.0 is the root; so is a midpoint where it
    is.  Otherwise the loop halves [a, b] until it is at most xtol wide
    or its midpoint is no longer strictly inside, and returns the
    midpoint.
    """
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
