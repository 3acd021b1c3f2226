"""Bracketed root finding: the ITP probe against the scalar reference,
and its step bound against bisection."""

import math

import numpy as np
import pytest

from fansq._optimize import bisect_root, itp_probe
from itp_ref import itp_root

SMOOTH = {
    "cos": (lambda x: math.cos(x) - x, 0.0, 1.0),
    "cubic": (lambda x: x**3 - 2 * x - 5, 2.0, 3.0),
    "exp": (lambda x: math.exp(x) - 2.0, 0.6, 0.7),
    "steep-tan": (lambda x: math.tan(x) - 10.0, 1.4, 1.5),
}
KINKED = {
    "kink-at-root": (lambda x: x - 0.3 if x < 0.3 else 8.0 * (x - 0.3), 0.0, 1.0),
    "kink-off-root": (lambda x: max(x - 0.37, 4.0 * (x - 0.4)), 0.0, 1.0),
    "cube-root": (lambda x: math.copysign(abs(x - 0.3) ** (1 / 3), x - 0.3), 0.0, 1.0),
    "step": (lambda x: -1.0 if x < 0.123456789 else 2.0, 0.0, 1.0),
}
CASES = {**SMOOTH, **KINKED}


@pytest.mark.parametrize("xtol", [1e-12, 1e-6])
@pytest.mark.parametrize("name", list(CASES))
def test_array_probe_matches_scalar_itp_bit_for_bit(name, xtol):
    f, a, b = CASES[name]
    _, probes = itp_root(f, a, b, xtol, f(a), f(b))
    assert probes
    for j in sorted({p[4] for p in probes}):
        rows = np.array([p[:4] for p in probes if p[4] == j])
        want = [p[5] for p in probes if p[4] == j]
        width0 = np.full(len(rows), b - a)
        got = itp_probe(*rows.T, width0, j, xtol)
        assert got.tolist() == want


@pytest.mark.parametrize("xtol", [1e-12, 1e-6])
@pytest.mark.parametrize("name", list(CASES))
def test_itp_keeps_the_bisection_step_bound_and_tolerance(name, xtol):
    f, a, b = CASES[name]
    root, probes = itp_root(f, a, b, xtol, f(a), f(b))
    assert len(probes) <= math.ceil(math.log2((b - a) / xtol))
    assert abs(root - bisect_root(f, a, b, xtol)) <= xtol


@pytest.mark.parametrize("name", list(SMOOTH))
def test_itp_beats_bisection_on_smooth_functions(name):
    f, a, b = SMOOTH[name]
    _, probes = itp_root(f, a, b, 1e-12, f(a), f(b))
    assert len(probes) <= 0.6 * math.ceil(math.log2((b - a) / 1e-12))


def test_probe_falls_back_to_the_midpoint_when_it_leaves_the_bracket():
    # regula falsi lands on a itself: f(a) is far smaller than f(b), and
    # the truncation step is below the float spacing at a
    a, b = np.array([0.5]), np.array([0.5 + 1e-9])
    got = itp_probe(a, b, np.array([-1e-30]), np.array([1.0]), np.array([1.0]), 0, 1e-12)
    assert got.tolist() == [0.5 * (a[0] + b[0])]
