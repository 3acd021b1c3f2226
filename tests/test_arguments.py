"""Every public callable that takes numbers fails on a bad one with a FansqError.

The argument rules live in `fansq.errors`: an int is a Python int that
is not a bool, a float is an int or a float, never a bool, NaN or
+-inf.  Here each numeric parameter of each callable in `fansq.__all__`
is drawn from valid values and from the kinds no rule accepts; whatever
the mix, a call returns or raises a FansqError, never a TypeError,
IndexError, ZeroDivisionError or the like.  Size and count parameters
are drawn from small values only (at most 64).
"""

import inspect
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import fansq
from fansq import (
    AxisRange,
    DriveParams,
    FanConfig,
    FansqError,
    FockVector,
    GridSpec,
    Identity,
    SeriesControl,
    SqueezeCoeffs,
    TrappedIon,
    coefficients,
    find_intersections,
    fock_coefficients,
    leading_order_squeeze,
    leading_order_terms,
    min_order,
    moment,
    moment_oracle,
    oracle_vector,
    polar_profile,
    quadrature_moment,
    squeeze_approx,
    squeeze_parameter,
    support_check,
    vacuum,
    vacuum_benchmark,
)

# the kinds no rule accepts where an int, or a float, is expected
NOT_INTS = [True, False, 2.0, 2.5, math.nan, math.inf, -math.inf, -1, 0]
NOT_FLOATS = [True, False, math.nan, math.inf, -math.inf, -1.0, 0.0]


def ints(*valid):
    """Half the draws valid, half of a kind an int parameter may reject."""
    return st.one_of(st.sampled_from(valid), st.sampled_from(NOT_INTS))


def floats(*valid):
    """Half the draws valid, half of a kind a float parameter may reject."""
    return st.one_of(st.sampled_from(valid), st.sampled_from(NOT_FLOATS))


CFG = FanConfig.from_xi_sq(1, 0.5, Identity())
ION = FanConfig.from_xi_sq(1, 0.2, TrappedIon(eta_sq=0.3, quantum_order=2))
VEC = vacuum(16)
COEFFS = SqueezeCoeffs(k=1, N=8, constant=0.3, harmonics=(-0.1, 0.02))
AXIS = AxisRange(0.1, 0.5, 3)

# name -> (callable, leading non-numeric arguments, strategy per numeric parameter)
SPECS = {
    "DriveParams": (DriveParams, (), dict(
        omega0=floats(1.0), omega1=floats(2.0), eta=floats(0.3), quantum_order=ints(1, 2))),
    "FanConfig": (FanConfig, (), dict(k=ints(1, 2), xi=floats(0.5), model=st.just(Identity()))),
    "FanConfig.from_xi_sq": (FanConfig.from_xi_sq, (), dict(
        k=ints(1, 2), xi_sq=floats(0.25), model=st.just(Identity()))),
    "SeriesControl": (SeriesControl, (), dict(
        rel_tol=floats(1e-16, 1e-8, 0.5, 1.0), n_max=ints(8, 64))),
    "TrappedIon": (TrappedIon, (), dict(eta_sq=floats(0.3), quantum_order=ints(2, 4))),
    "moment": (moment, (ION,), dict(l=ints(4, 5), m=ints(0, 1))),
    "FockVector": (FockVector, (), dict(
        dim=ints(4), amps=st.just(np.eye(4)[0]), tail_mass=floats(0.0, 1e-20))),
    "fock_coefficients": (fock_coefficients, (CFG,), dict(dim=ints(1, 16, 64))),
    "moment_oracle": (moment_oracle, (VEC,), dict(l=ints(0, 2), m=ints(0, 2))),
    "oracle_vector": (oracle_vector, (ION,), dict(guard=ints(0, 8, 64))),
    "quadrature_moment": (quadrature_moment, (VEC,), dict(phi=floats(0.3), N=ints(2, 4))),
    "support_check": (support_check, (VEC,), dict(k=ints(1, 2))),
    "vacuum": (vacuum, (), dict(dim=ints(1, 16, 64))),
    "coefficients": (coefficients, (ION,), dict(N=ints(4, 6, 8))),
    "leading_order_squeeze": (leading_order_squeeze, (), dict(
        k=ints(1), N=ints(4, 8), xi=floats(0.1), phi=floats(0.3))),
    "leading_order_terms": (leading_order_terms, (), dict(k=ints(1), N=ints(4, 8), xi=floats(0.1))),
    "min_order": (min_order, (), dict(k=ints(1, 3))),
    "squeeze_approx": (squeeze_approx, (COEFFS,), dict(phi=floats(0.3))),
    "squeeze_parameter": (squeeze_parameter, (COEFFS,), dict(phi=floats(0.3))),
    "vacuum_benchmark": (vacuum_benchmark, (), dict(N=ints(2, 4))),
    "AxisRange": (AxisRange, (), dict(min=floats(0.1), max=floats(0.5, 1.0), count=ints(2, 64))),
    "GridSpec": (GridSpec, (AXIS, AXIS), dict(k=ints(1), N=ints(4), phi=floats(0.3))),
    "find_intersections": (find_intersections, (), dict(
        xi_sq=floats(0.3), k=ints(1), N=ints(4, 6), eta_range=st.just(AXIS))),
    "polar_profile": (polar_profile, (ION,), dict(N=ints(4), samples=ints(8, 64))),
}

# value holders store what they are given; the rest take no number
HOLDERS = {"ApproxResult", "DirectionReport", "IntersectionSet", "LeadingOrderTerms",
           "PhaseDiagram", "PolarProfile", "SqueezeCoeffs"}
NO_NUMBERS = {"Identity", "NonlinearModel", "Regime", "classify_directions", "eigen_residual",
              "normalization", "scan", "support_level", "trace_boundary", "xi_from_drive"}


@settings(max_examples=100)
@given(data=st.data())
def test_a_bad_number_is_a_fansq_error_and_nothing_else(data):
    public = {
        name for name in fansq.__all__
        if callable(getattr(fansq, name))
        and not (inspect.isclass(getattr(fansq, name))
                 and issubclass(getattr(fansq, name), BaseException))
    }
    specified = {name.split(".")[0] for name in SPECS}
    assert specified | HOLDERS | NO_NUMBERS == public
    for name, (fn, fixed, params) in SPECS.items():
        kwargs = {p: data.draw(strategy, label=f"{name}.{p}") for p, strategy in params.items()}
        try:
            fn(*fixed, **kwargs)
        except FansqError:
            pass
