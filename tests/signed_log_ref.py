"""Arithmetic on `SignedLog` values, for the reference paths of the tests.

The package reads signs and log-magnitudes straight from its product
tables.  The references in the tests still build products and powers
one `SignedLog` at a time, the way the earlier series code did, with
these functions.
"""

import math

from fansq.specfun import SL_ONE, SL_ZERO, SignedLog


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
