"""Exception types and the integer checks shared across the package.

checked_at_least states every lower bound on an integer argument: no other
module raises a range error of its own, bar oeis's offset rule, which names
the sequence.  The checks live here so no module imports a route for them.
"""


class GesselError(Exception):
    """Base class for errors raised by this package."""


class MalformedWordError(GesselError, ValueError):
    """A token or letter does not belong to the declared alphabet."""


class CapExceededError(GesselError, RuntimeError):
    """A request exceeds the configured enumeration or DP size cap."""


class PathConstraintError(GesselError, ValueError):
    """A path violates a floor constraint.

    Carries enough context to name the offending segment: ``segment`` is the
    1-based index of the violated floor (None for the global floor 0),
    ``abscissa`` the position along the path, ``height`` the ordinate found
    and ``floor`` the minimum that was required there.
    """

    def __init__(self, message, *, segment=None, abscissa=None, floor=None, height=None):
        super().__init__(message)
        self.segment = segment
        self.abscissa = abscissa
        self.floor = floor
        self.height = height


class IntegralityError(GesselError, ArithmeticError):
    """An exact rational that must reduce to an integer failed to."""


class FixtureError(GesselError, ValueError):
    """A vendored data fixture is missing or malformed."""


def checked_ints(values, rule) -> tuple[int, ...]:
    """values as a tuple of ints; ValueError stating rule if int() would
    change any of them.  Integral values of other types (1.0, numpy ints)
    pass as ints."""
    values = tuple(values)
    try:
        out = tuple(map(int, values))
    except OverflowError:  # int(inf)
        out = None
    if out != values:
        raise ValueError(f"{rule}, got {values!r}")
    return out


def checked_at_least(value, low, name) -> int:
    """value as an int; ValueError if int() would change it, or
    "<name> must be >= <low>, got <value>" if it is below low."""
    (value,) = checked_ints((value,), f"{name} must be an integer")
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    return value
