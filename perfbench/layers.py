"""Per-layer host time for the traced run, measured from outside ``src/``.

:func:`instrument` wraps the public entry points of each
``repro.<layer>`` package -- module-level functions, and the public
methods plus ``__init__``/``__call__`` of classes defined there -- with
a timer. Nothing inside ``src/`` is edited; the wrappers are installed
on the imported modules and removed again afterwards.

Self time: every wrapped call pushes a child-time accumulator, reads
the clock on entry and exit, and charges ``elapsed - children`` to its
own layer while adding ``elapsed`` to its caller's accumulator. Time in
code that is not wrapped (private helpers, numpy, other packages) is
therefore charged to the nearest wrapped caller.

Simulation processes are generators the event kernel resumes. A
generator returned by a wrapped call, or handed to
``repro.sim.kernel.Process``, is replaced by a proxy that times each
resumption (``send``/``throw``/``next``) the same way and charges it to
the layer whose module defined the generator. Each resumption counts as
one call of that layer.
"""

from __future__ import annotations

import enum
import functools
import importlib
import pkgutil
import sys
import time
import types
from contextlib import contextmanager
from typing import Dict, List

#: The layers the benchmark reports, as ``repro`` subpackage names.
LAYERS = ("sim", "noc", "soc", "accelerators", "hls4ml_flow", "fixed",
          "runtime", "serve", "fleet", "control", "trace", "metrics")

#: Dunder methods treated as entry points (constructors and callables).
_ENTRY_DUNDERS = ("__init__", "__call__")


class LayerClock:
    """Self time (ns) and call counts per layer, filled by the wrappers."""

    def __init__(self) -> None:
        self.self_ns: Dict[str, int] = {layer: 0 for layer in LAYERS}
        self.calls: Dict[str, int] = {layer: 0 for layer in LAYERS}
        #: One child-time accumulator per wrapped call in progress.
        self.stack: List[int] = []


def layer_of(module_name: str):
    """``repro.soc.dma`` -> ``soc``; ``None`` outside the layers."""
    parts = module_name.split(".")
    if len(parts) >= 2 and parts[0] == "repro" and parts[1] in LAYERS:
        return parts[1]
    return None


class TimedGenerator:
    """A generator proxy timing each resumption against one layer."""

    def __init__(self, generator, layer: str, clock: LayerClock) -> None:
        self.send = _timed(generator.send, layer, clock)
        self.throw = _timed(generator.throw, layer, clock)
        self.close = generator.close
        self.__name__ = getattr(generator, "__name__", "process")

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)


def _timed(function, layer: str, clock: LayerClock):
    self_ns, calls, stack = clock.self_ns, clock.calls, clock.stack
    counter = time.perf_counter_ns

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        calls[layer] += 1
        stack.append(0)
        start = counter()
        try:
            result = function(*args, **kwargs)
        finally:
            elapsed = counter() - start
            self_ns[layer] += elapsed - stack.pop()
            if stack:
                stack[-1] += elapsed
        if type(result) is types.GeneratorType:
            return TimedGenerator(result, layer, clock)
        return result

    return wrapper


def _import_layers() -> None:
    """Import every module of every layer, so all entry points exist."""
    for layer in LAYERS:
        package = importlib.import_module(f"repro.{layer}")
        for info in pkgutil.walk_packages(package.__path__,
                                          prefix=f"repro.{layer}."):
            importlib.import_module(info.name)


def _is_function(value) -> bool:
    return (isinstance(value, types.FunctionType)
            or hasattr(value, "cache_info"))   # functools.lru_cache


def _entry_points(module):
    """(owner, attribute, member) for each entry point of ``module``."""
    name = module.__name__
    for attr, value in list(vars(module).items()):
        if attr.startswith("_") or getattr(value, "__module__", None) != name:
            continue
        if _is_function(value):
            yield module, attr, value
        elif isinstance(value, type) and not issubclass(
                value, (BaseException, enum.Enum)):
            for method, member in list(vars(value).items()):
                if method.startswith("_") and method not in _ENTRY_DUNDERS:
                    continue
                if isinstance(member, (staticmethod, classmethod)) \
                        or _is_function(member):
                    yield value, method, member


def _wrap_member(member, layer, clock):
    if isinstance(member, staticmethod):
        return staticmethod(_timed(member.__func__, layer, clock))
    if isinstance(member, classmethod):
        return classmethod(_timed(member.__func__, layer, clock))
    return _timed(member, layer, clock)


@contextmanager
def instrument(clock: LayerClock):
    """Install the wrappers for the duration of the ``with`` block."""
    _import_layers()
    from repro.sim.kernel import Process

    patched = []   # (owner, attribute, original)
    wrapped = {}   # id(original function) -> wrapper
    for module_name, module in sorted(sys.modules.items()):
        layer = layer_of(module_name)
        if layer is None or module is None:
            continue
        for owner, attr, member in _entry_points(module):
            replacement = _wrap_member(member, layer, clock)
            patched.append((owner, attr, member))
            setattr(owner, attr, replacement)
            if owner is module:
                wrapped[id(member)] = replacement
    # Modules that imported a function by name hold the original.
    for module_name, module in sorted(sys.modules.items()):
        if not module_name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            replacement = wrapped.get(id(value))
            if replacement is not None and replacement is not value:
                patched.append((module, attr, value))
                setattr(module, attr, replacement)

    # Processes built from raw generators (private process bodies).
    process_init = Process.__init__

    def init(self, env, generator, name=None):
        if not isinstance(generator, TimedGenerator):
            frame = getattr(generator, "gi_frame", None)
            layer = frame and layer_of(frame.f_globals.get("__name__", ""))
            if layer is not None:
                generator = TimedGenerator(generator, layer, clock)
        process_init(self, env, generator, name)

    patched.append((Process, "__init__", vars(Process)["__init__"]))
    Process.__init__ = init
    try:
        yield clock
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)
