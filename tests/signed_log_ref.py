"""`SignedLog` values and their arithmetic, for the reference paths of the tests.

The package reads signs and log-magnitudes straight from its product
tables.  The references in the tests still build products and powers
one `SignedLog` at a time, the way the earlier series code did, with
these functions, and take each factor of the nonlinearity from
`ref_nonlinearity_value`.
"""

import math
from typing import NamedTuple

from fansq.errors import SingularNonlinearity
from fansq.fanstate import Identity
from fansq.specfun import log_factorial
from laguerre_ref import laguerre_upto


class SignedLog(NamedTuple):
    """A real number stored as (sign, ln|value|).

    sign is -1, 0 or +1; logmag is meaningless when sign == 0.
    """

    sign: int
    logmag: float


SL_ONE = SignedLog(1, 0.0)
SL_ZERO = SignedLog(0, float("-inf"))


def signed_log(x: float) -> SignedLog:
    """Encode an ordinary float as a SignedLog."""
    if x == 0.0:
        return SL_ZERO
    return SignedLog(1 if x > 0 else -1, math.log(abs(x)))


def to_real(a: SignedLog) -> float:
    if a.sign == 0:
        return 0.0
    return a.sign * math.exp(a.logmag)


def mul(a: SignedLog, b: SignedLog) -> SignedLog:
    s = a.sign * b.sign
    if s == 0:
        return SL_ZERO
    return SignedLog(s, a.logmag + b.logmag)


def div(a: SignedLog, b: SignedLog) -> SignedLog:
    if b.sign == 0:
        raise ZeroDivisionError("division by a zero SignedLog")
    if a.sign == 0:
        return SL_ZERO
    return SignedLog(a.sign * b.sign, a.logmag - b.logmag)


def pow_int(a: SignedLog, e: int) -> SignedLog:
    # 0**0 == ONE by convention, so xi = 0 flows through series terms
    # the same way any other value does.
    if e == 0:
        return SL_ONE
    if a.sign == 0:
        if e < 0:
            raise ZeroDivisionError("negative power of a zero SignedLog")
        return SL_ZERO
    sign = a.sign if e % 2 else 1
    return SignedLog(sign, a.logmag * e)


def ref_nonlinearity_value(model, m: int, floor: float = 1e-12) -> SignedLog:
    """f(m) = (m-K)! L_j^K / (m! L_j^0) at j = m - K, as one SignedLog.

    One factor at a time: the denominator is checked against the floor
    first, a zero numerator gives SL_ZERO, and the log-magnitude is
    ln j! - ln m! + ln|L_j^K| - ln|L_j^0| in that order.
    """
    if isinstance(model, Identity):
        return SL_ONE
    K = model.quantum_order
    if m < K:
        raise ValueError(f"nonlinearity argument {m} below quantum order {K}")
    j = m - K
    den = laguerre_upto(j, 0, model.eta_sq)[j]
    if abs(den) < floor:
        raise SingularNonlinearity(
            f"denominator Laguerre polynomial of degree {j} vanishes at "
            f"eta_sq={model.eta_sq} (|value|={abs(den):.3e} below floor {floor})",
            index=m,
        )
    num = laguerre_upto(j, K, model.eta_sq)[j]
    if num == 0.0:
        return SL_ZERO
    sign = (1 if num > 0 else -1) * (1 if den > 0 else -1)
    logmag = log_factorial(j) - log_factorial(m) + math.log(abs(num)) - math.log(abs(den))
    return SignedLog(sign, logmag)
