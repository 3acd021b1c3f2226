"""Bracketed root finding: the ITP probe and the lockstep loop against
the scalar reference, and their step bound against bisection."""

import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from fansq._optimize import itp_probe, refine_brackets
from itp_ref import bisect_root, itp_root

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


@given(
    a=st.floats(-1e6, 1e6),
    width=st.floats(1e-300, 1e6),
    width0=st.floats(1e-300, 1e6),
    step=st.integers(0, 200),
    xtol=st.floats(1e-300, 1.0),
    rising=st.booleans(),
)
def test_probe_of_signs_alone_is_the_midpoint(a, width, width0, step, xtol, rising):
    # f known only by its signs at the ends: regula falsi is the midpoint,
    # so a caller that passes signs gets bisection's probes
    b = a + width
    assume(a < b)
    s = 1.0 if rising else -1.0
    got = itp_probe(
        np.array([a]), np.array([b]), np.array([-s]), np.array([s]),
        np.array([max(width0, b - a)]), step, xtol,
    )
    assert got.tolist() == [0.5 * (a + b)]


def _evaluate(fs, signs_only=False):
    """An `evaluate` over the functions fs, with the calls it took."""
    calls = []

    def evaluate(x, rows):
        calls.append(rows.tolist())
        f = np.array([fs[r](v) for r, v in zip(rows.tolist(), x.tolist())])
        return (np.sign(f) if signs_only else f), np.zeros(len(rows), dtype=bool)

    return evaluate, calls


@pytest.mark.parametrize("xtol", [1e-12, 1e-6])
def test_lockstep_loop_gives_scalar_itp_per_bracket(xtol):
    fs, a, b = zip(*CASES.values())
    fa, fb = [f(x) for f, x in zip(fs, a)], [f(x) for f, x in zip(fs, b)]
    evaluate, calls = _evaluate(fs)
    root, failed = refine_brackets(a, b, fa, fb, evaluate, xtol)
    want = [itp_root(*args, xtol, *ends) for args, ends in zip(zip(fs, a, b), zip(fa, fb))]
    assert root.tolist() == [r for r, _ in want]
    assert not failed.any()
    assert len(calls) == max(len(probes) for _, probes in want)  # one call per step


@pytest.mark.parametrize("xtol", [1e-9, 1e-12])
def test_lockstep_loop_on_signs_alone_is_bisection(xtol):
    fs, a, b = zip(*CASES.values())
    fa, fb = [np.sign(f(x)) for f, x in zip(fs, a)], [np.sign(f(x)) for f, x in zip(fs, b)]
    evaluate, _ = _evaluate(fs, signs_only=True)
    root, _ = refine_brackets(a, b, fa, fb, evaluate, xtol)
    assert root.tolist() == [bisect_root(f, lo, hi, xtol) for f, lo, hi in zip(fs, a, b)]


def test_lockstep_loop_takes_a_zero_end_as_the_root_and_stops_a_failed_bracket():
    f = CASES["cubic"][0]
    a, b = [2.0, 0.5, 1.0, 2.0], [3.0, 1.5, 2.0, 3.0]
    fa, fb = [f(2.0), 0.0, -1.0, f(2.0)], [f(3.0), 1.0, 0.0, f(3.0)]
    seen = []

    def evaluate(x, rows):
        seen.extend(rows.tolist())
        return np.array([f(v) for v in x.tolist()]), rows == 3  # bracket 3 fails at once

    root, failed = refine_brackets(a, b, fa, fb, evaluate, 1e-12)
    assert root.tolist()[:3] == [itp_root(f, 2.0, 3.0, 1e-12, fa[0], fb[0])[0], 0.5, 2.0]
    assert failed.tolist() == [False, False, False, True]
    assert set(seen) == {0, 3} and seen.count(3) == 1
