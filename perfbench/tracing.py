"""In-memory span tracer that wraps the package's public functions.

Every public module-level function of each layer module is replaced, in
every ``gesselwalks`` module namespace that binds it, by a wrapper that
records one span per call.  From-imports get their own binding replaced
too: ``formulas`` calls ``dyck.ballot_count`` through its own name, so that
binding is swapped as well.  Public generator functions return an iterator
whose every ``next()`` is a span, so enumeration time lands on the word
that was produced.  Per-letter methods (``Letter.from_code``) stay
unwrapped to keep the overhead low; the word-level constructors
``GesselWord.parse`` and ``GesselWord.from_codes`` are wrapped.

Spans live in flat arrays (about 30 bytes each) until ``save`` writes them
out.  A layer's self time is its spans' durations minus the durations of
their direct children; calls run on one thread, so children of a span
never overlap.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from pathlib import Path

import numpy as np

LAYERS = ("cli", "verify", "enumeration", "words", "dyck", "walks", "formulas", "norton", "oeis")
CLASS_METHODS = (("words", "GesselWord", "parse"), ("words", "GesselWord", "from_codes"))

RETURNED, RAISED, EXHAUSTED = 0, 1, 2


class Tracer:
    """Install with ``install()``, remove with ``uninstall()``; set ``request``
    to the id of the request being served before each request."""

    def __init__(self):
        self.names: list[str] = []
        self.layers: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.req = array("i")
        self.outcome = array("b")
        self.stack = [-1]
        self.request = -1
        self._restore: list[tuple[object, str, object]] = []

    def _name_id(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.layers.append(layer)
        return len(self.names) - 1

    def _open(self, nid: int) -> int:
        sid = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.req.append(self.request)
        self.outcome.append(RETURNED)
        self.start.append(0.0)
        self.end.append(0.0)
        self.stack.append(sid)
        return sid

    def _wrap_function(self, fn, nid):
        open_, end, outcome, stack = self._open, self.end, self.outcome, self.stack
        start, clock = self.start, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = open_(nid)
            start[sid] = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                outcome[sid] = RAISED
                raise
            finally:
                end[sid] = clock()
                stack.pop()

        return traced

    def _wrap_generator(self, fn, nid):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return _TracedIterator(tracer, fn(*args, **kwargs), nid)

        return traced

    def install(self) -> None:
        import gesselwalks.cli  # noqa: F401  (imports verify and oeis as well)

        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"gesselwalks.{layer}"]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                if inspect.isgeneratorfunction(obj):
                    nid = self._name_id(f"{layer}.{attr}.next", layer)
                    wrappers[obj] = self._wrap_generator(obj, nid)
                else:
                    nid = self._name_id(f"{layer}.{attr}", layer)
                    wrappers[obj] = self._wrap_function(obj, nid)
        for name, mod in list(sys.modules.items()):
            if name != "gesselwalks" and not name.startswith("gesselwalks."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        for layer, cls_name, meth in CLASS_METHODS:
            cls = getattr(sys.modules[f"gesselwalks.{layer}"], cls_name)
            descriptor = cls.__dict__[meth]
            nid = self._name_id(f"{layer}.{cls_name}.{meth}", layer)
            self._restore.append((cls, meth, descriptor))
            setattr(cls, meth, classmethod(self._wrap_function(descriptor.__func__, nid)))

    def uninstall(self) -> None:
        while self._restore:
            target, attr, original = self._restore.pop()
            setattr(target, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- analysis ---------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        start = np.array(self.start, dtype=np.float64)
        end = np.array(self.end, dtype=np.float64)
        name = np.array(self.name, dtype=np.int32)
        parent = np.array(self.parent, dtype=np.int32)
        dur = end - start
        child = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        return {
            "name": name,
            "parent": parent,
            "request": np.array(self.req, dtype=np.int32),
            "outcome": np.array(self.outcome, dtype=np.int8),
            "start": start,
            "end": end,
            "dur": dur,
            "self": dur - child,
        }

    def save(self, path: Path) -> None:
        """Write every span (and the name and layer tables) to ``path`` (.npz)."""
        s = self.spans()
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(json.dumps(self.names)),
            layers=np.array(json.dumps(self.layers)),
            **{k: s[k] for k in ("name", "parent", "request", "outcome", "start", "end")},
        )


class _TracedIterator:
    """Iterator proxy that records each ``next()`` of a wrapped generator."""

    __slots__ = ("_tracer", "_it", "_nid")

    def __init__(self, tracer, it, nid):
        self._tracer = tracer
        self._it = it
        self._nid = nid

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self._tracer
        sid = tracer._open(self._nid)
        tracer.start[sid] = time.perf_counter()
        try:
            return next(self._it)
        except StopIteration:
            tracer.outcome[sid] = EXHAUSTED
            raise
        except BaseException:
            tracer.outcome[sid] = RAISED
            raise
        finally:
            tracer.end[sid] = time.perf_counter()
            tracer.stack.pop()
