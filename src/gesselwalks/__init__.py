"""Counting words over a barred alphabet and the confined lattice walks they encode.

Importing the package runs none of its layer modules.  Each layer is put in
``sys.modules`` (and bound here) through ``importlib.util.LazyLoader``, so its
code runs on the first attribute read.  A public name is looked up in its
layer on first use and then bound here, so later reads are plain lookups.
"""

import importlib.util
import sys

from .exceptions import (
    CapExceededError,
    FixtureError,
    GesselError,
    IntegralityError,
    MalformedWordError,
    PathConstraintError,
)

__version__ = "0.1.0"

_LAYERS = ("cli", "verify", "enumeration", "words", "dyck", "walks", "formulas", "norton", "oeis")

# public name -> the layer that defines it, in the order of __all__
_PUBLIC = {
    "words": (
        "Letter",
        "LetterProfile",
        "GesselWord",
        "is_gessel_word",
        "is_complete",
        "letter_profile",
    ),
    "enumeration": (
        "iter_complete_words",
        "count_complete_words",
        "profile_triangle_row",
        "marker_position_triangle",
        "triangle_rows",
    ),
    "dyck": (
        "ballot_count",
        "catalan",
        "PHConstraint",
        "MarkerLists",
        "marker_floors",
        "marker_lists",
        "word_to_markers",
        "word_steps",
        "markers_to_word",
        "count_ph_paths",
    ),
    "walks": ("gessel_steps", "count_confined_walks", "g_sequence"),
    "formulas": (
        "gessel_closed_form",
        "one_pair_closed",
        "catalan_triangle",
        "triangle_ext",
        "bar_first_pair_count",
        "diamond_equal",
        "count_words_fixed_markers",
        "adjacent_marker_sum_direct",
        "adjacent_marker_sum_closed",
        "even_marker_sum_free_direct",
        "even_marker_sum_free_closed",
        "even_marker_sum_reflected_direct",
        "even_marker_sum_reflected_closed",
        "bar_first_total",
        "one_first_total",
    ),
    "norton": (
        "stats",
        "max_suffix_balance",
        "achievable_odd_sums",
        "norton_count",
        "table_counts",
        "diagonal_columns",
    ),
}
_HOME = {name: layer for layer, names in _PUBLIC.items() for name in names}

__all__ = [
    "GesselError",
    "MalformedWordError",
    "CapExceededError",
    "PathConstraintError",
    "IntegralityError",
    "FixtureError",
    *_HOME,
    "__version__",
]


def _lazy(layer):
    """Register the layer module, to run on its first attribute read."""
    spec = importlib.util.find_spec(f"{__name__}.{layer}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


globals().update({layer: _lazy(layer) for layer in _LAYERS})


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(globals()[_HOME[name]], name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
