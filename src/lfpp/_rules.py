"""The rules for every number that comes from outside the package.

Couplings, scales, lattice sizes and spacings, trial counts and seeds reach
lfpp from library callers and from experiment configs.  Each is checked by
one of three rules, so an input means the same thing wherever it enters:

- a whole number is a `numbers.Integral` that is not a bool;
- a finite real is a `numbers.Real` that is not a bool and is finite (an
  int too large for a float is not);
- a boolean is exactly a bool.

A string is never a number, and neither is a bool.  Each number rule takes
the range its caller admits and the error class its caller raises; every
rule returns the value unchanged: constructors check but never convert.
The config readers `read_whole` and `read_real` convert after the check,
and admit one more spelling: a float with no fractional part, such as
JSON's 64.0, is a whole number.
"""

from __future__ import annotations

import math
import numbers
import reprlib

from .errors import InvalidArgument


def _shown(value) -> str:
    """The value for an error message, shortened when its repr is long."""
    try:
        return reprlib.repr(value)
    except ValueError:    # an int past the interpreter's digit limit
        return "an int too long to print"


def whole(value, what: str, lo=None, hi=None, error=InvalidArgument):
    """`value` when it is a whole number in lo..hi (None leaves an end
    open); `error` naming `what` otherwise."""
    if (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and (lo is None or value >= lo) and (hi is None or value <= hi)):
        return value
    span = (f" in {lo}..{hi}" if lo is not None and hi is not None
            else f" >= {lo}" if lo is not None
            else f" <= {hi}" if hi is not None else "")
    raise error(f"{what} must be a whole number{span}, got {_shown(value)}")


def _finite(value) -> bool:
    try:
        return math.isfinite(value)
    except OverflowError:   # an int beyond the largest float
        return False


def real(value, what: str, *, gt=None, lt=None, le=None, error=InvalidArgument):
    """`value` when it is a finite real above `gt` and below `lt` or at
    most `le` (None leaves a bound out); `error` naming `what` otherwise."""
    if (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and _finite(value) and (gt is None or value > gt)
            and (lt is None or value < lt) and (le is None or value <= le)):
        return value
    terms = ["finite", "real"] + [f"{op} {bound}" for op, bound in
                                  ((">", gt), ("<", lt), ("<=", le)) if bound is not None]
    raise error(f"{what} must be {', '.join(terms[:-1])} and {terms[-1]}, "
                f"got {_shown(value)}")


def boolean(value, what: str) -> bool:
    """`value` when it is exactly a bool; InvalidArgument naming `what`
    otherwise."""
    if isinstance(value, bool):
        return value
    raise InvalidArgument(f"{what} must be true or false, got {_shown(value)}")


def uint64(value, what: str, error=InvalidArgument) -> int:
    """The seed rule: a whole number in 0..2^64 - 1."""
    return whole(value, what, 0, 2 ** 64 - 1, error)


def read_whole(raw, what: str, lo=None, hi=None) -> int:
    """A config's whole number, as an int: `whole` after reading a float
    with no fractional part as the int it equals."""
    if isinstance(raw, float) and raw.is_integer():
        raw = int(raw)
    return whole(raw, what, lo, hi)


def read_real(raw, what: str) -> float:
    """A config's finite real, as a float."""
    return float(real(raw, what))
