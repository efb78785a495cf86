"""Exception types and the integer checks shared across the package."""


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
    pass as ints.  It lives here so no module imports a route to reach it."""
    values = tuple(values)
    try:
        out = tuple(map(int, values))
    except OverflowError:  # int(inf)
        out = None
    if out != values:
        raise ValueError(f"{rule}, got {values!r}")
    return out


def checked_positive(n) -> int:
    """n as an int; ValueError if int() would change it or it is below 1.
    The one statement of the n >= 1 rule of the closed forms and norton."""
    (n,) = checked_ints((n,), "n must be an integer")
    if n < 1:
        raise ValueError("n must be >= 1")
    return n
