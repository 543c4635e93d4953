"""Global work budget for the enumeration-heavy operations.

The cap is read from the WORKBENCH_MAX_OPS environment variable on first
use (default 10**8 primitive term operations); a value that is not an
integer raises ValueError naming the variable.  Heavy loops charge the
counter in coarse chunks; exceeding the cap raises WorkBudgetExceeded
instead of letting a runaway enumeration eat the machine.  Work sized
before it starts is admitted instead (`admit`, `admit_bits`), refused past
the cap at no charge; no other module compares work with the cap.
"""

import os

DEFAULT_CAP = 10**8
_RAISE = "(raise WORKBENCH_MAX_OPS to allow more work)"  # ends every budget error


class WorkBudgetExceeded(RuntimeError):
    """An enumeration exceeded the configured operation cap."""


def _cap_from_env():
    raw = os.environ.get("WORKBENCH_MAX_OPS")
    if raw is None:
        return DEFAULT_CAP
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"WORKBENCH_MAX_OPS must be an integer, got {raw!r}") from None


_FROM_ENV = object()  # sentinel: the cap is read from the environment on first use
_cap = _FROM_ENV
_used = 0


def set_cap(cap):
    """Set the operation cap (None disables the limit) and reset the counter."""
    global _cap, _used
    _cap = cap
    _used = 0


def cap():
    """The operation cap; reads WORKBENCH_MAX_OPS if no cap is set yet."""
    global _cap
    if _cap is _FROM_ENV:
        _cap = _cap_from_env()
    return _cap


def reset():
    """Zero the usage counter without touching the cap."""
    global _used
    _used = 0


def used():
    return _used


def words(n: int) -> int:
    """Size of an integer in 64-bit words, the unit powers and difference
    tables are charged in."""
    return n.bit_length() // 64 + 1


def charge(n=1):
    """Account for n primitive term operations."""
    global _used
    _used += n
    limit = _cap if _cap is not _FROM_ENV else cap()
    if limit is not None and _used > limit:
        raise WorkBudgetExceeded(f"operation budget exhausted: {_used} > {limit} {_RAISE}")


def admit(cost: int, what: str) -> None:
    """Refuse work of `cost` ops past the cap before it starts: `what` (say,
    "field degree 20") exceeds the operation budget.  Charges nothing."""
    limit = cap()
    if limit is not None and cost > limit:
        raise WorkBudgetExceeded(f"{what} exceeds the operation budget {limit} {_RAISE}")


def admit_bits(bits: int, what: str) -> None:
    """`admit` for a cost too large to form, known to be at least 2**bits:
    refused exactly when 2**bits exceeds the cap (a cap of 0 or more)."""
    limit = cap()
    if limit is not None and bits >= limit.bit_length():
        admit(limit + 1, what)  # a cost past the cap, refused in admit's words
