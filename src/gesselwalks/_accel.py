"""Environment probe kept for benchmark report metadata."""

import importlib.util


def numba_available():
    """Whether numba is installed; nothing in the package imports it."""
    return importlib.util.find_spec("numba") is not None
