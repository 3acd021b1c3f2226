"""The numpy build of `squeeze._stationary_values`, kept as the bit-for-bit
reference of the tests.

The package builds the coefficients of dS/dx with Python floats and
solves a linear dS/dx itself.  This transcription builds them as numpy
arrays, one Chebyshev U polynomial per harmonic, and hands every trimmed
polynomial of degree 1 or more to `np.roots`.  Both must give the same
stationary values, bit for bit.
"""

import math

import numpy as np

from fansq.squeeze import SqueezeCoeffs, squeeze_parameter


def stationary_values(coeffs: SqueezeCoeffs) -> list[float]:
    """S at phi = 0, at pi/4k, then at every other stationary point of a period."""
    k, harmonics = coeffs.k, coeffs.harmonics
    angles = [0.0, math.pi / (4 * k)]
    if len(harmonics) > 1:  # a single harmonic has no interior stationary point
        # ascending powers of x, from U_{-1} = 0 and U_0 = 1 by
        # U_p = 2x U_{p-1} - U_{p-2}
        u_prev, u, dsdx = np.zeros(len(harmonics)), np.eye(1, len(harmonics))[0], 0.0
        for p, b in enumerate(harmonics, start=1):
            dsdx = dsdx + p * b * u
            u_prev, u = u, np.append(0.0, 2.0 * u[:-1]) - u_prev
        # a leading coefficient at rounding level of the largest moves no
        # root in [-1, 1] beyond rounding, and np.roots would overflow on it
        big = np.flatnonzero(np.abs(dsdx) > 2.0**-52 * np.abs(dsdx).max())
        roots = np.roots(dsdx[big[-1] :: -1]) if big.size else np.zeros(0)
        inside = roots.real[(roots.imag == 0) & (np.abs(roots.real) < 1.0)]
        angles += [math.acos(x) / (4 * k) for x in inside.tolist()]
    return [squeeze_parameter(coeffs, phi) for phi in angles]
