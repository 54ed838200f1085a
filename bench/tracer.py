"""Outside-in layer tracing for one traced CLI run, from the benchmark's files.

``install()`` replaces every public function of every ``filamentlab``
module, every public ``write_*`` method of its classes and the
``numpy.fft`` / ``scipy.fft`` transform entry points with timing wrappers.
A wrapper is bound wherever the original was: in its own module and in
every ``filamentlab`` module that imported it by name. Spans nest per
thread, so a function's self time is its duration minus that of the
wrapped calls it made.

Layers are modules, except that ``geometry`` belongs to ``integrators``,
the ``dataio`` functions and the ``write_*`` methods form ``io``, and the
FFT entry points form ``fft``. A function that no longer exists simply
reports ``calls = 0``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import threading
import time

LAYER_OF_MODULE = {"geometry": "integrators", "dataio": "io"}
FFT_NAMES = (
    "fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft",
    "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft", "hfft2", "ihfft2",
    "hfftn", "ihfftn", "dct", "idct", "dst", "idst", "dctn", "idctn",
    "dstn", "idstn",
)


class Stat:
    __slots__ = ("calls", "busy", "self_time", "counters", "active")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0        # wall time with at least one call active
        self.self_time = 0.0   # duration minus wrapped callees
        self.counters = {}
        self.active = 0


def _argument(fn, args, kwargs, name):
    """Value of parameter ``name`` in a call, defaults applied, or None."""
    try:
        bound = inspect.signature(fn).bind(*args, **kwargs)
    except (TypeError, ValueError):
        return None
    bound.apply_defaults()
    return bound.arguments.get(name)


def _fine_steps(fn, args, kwargs, result):
    out_every = _argument(fn, args, kwargs, "out_every")
    if out_every is None:
        return {}
    return {"fine_steps": (len(result[0]) - 1) * max(1, int(out_every))}


def _evolve_steps(fn, args, kwargs, result):
    n_steps = _argument(fn, args, kwargs, "n_steps")
    return {} if n_steps is None else {"steps": int(n_steps)}


def _spiral_rows(fn, args, kwargs, result):
    return {"rows": len(result.curve.s_grid)}


def _fft_points(fn, args, kwargs, result):
    import numpy
    return {"points": int(numpy.size(args[0]))} if args else {}


# counters read from a call: (fn, args, kwargs, result) -> increments
EXTRACTORS = {
    "integrators.propagate_frame": _fine_steps,
    "nls.evolve": _evolve_steps,
    "spiral.spiral_profile": _spiral_rows,
}


class Tracer:
    def __init__(self):
        self.stats = {}         # "layer.function" and "layer" -> Stat
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def stat(self, key):
        return self.stats.setdefault(key, Stat())

    def wrap(self, key, layer, fn, extract=None):
        own, lay = self.stat(key), self.stat(layer)
        stack_of = self._stack
        lock = self._lock
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            stack.append(0.0)
            with lock:
                own.active += 1
                lay.active += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                callees = stack.pop()
                if stack:
                    stack[-1] += dt
                with lock:
                    own.active -= 1
                    lay.active -= 1
                    own.calls += 1
                    own.self_time += dt - callees
                    if own.active == 0:
                        own.busy += dt
                    if lay.active == 0:
                        lay.calls += 1
                        lay.busy += dt
            if extract is not None:
                counts = extract(fn, args, kwargs, result)
                with lock:
                    for name, n in counts.items():
                        own.counters[name] = own.counters.get(name, 0) + n
            return result

        return wrapper

    def report(self):
        return {
            key: {"calls": s.calls, "busy_s": s.busy, "self_s": s.self_time,
                  **s.counters}
            for key, s in self.stats.items()
        }


def _rebind(original, wrapper, namespaces):
    """Point every name bound to ``original`` in ``namespaces`` at ``wrapper``."""
    for ns in namespaces:
        for name, value in list(vars(ns).items()):
            if value is original:
                setattr(ns, name, wrapper)


def install(package="filamentlab"):
    """Wrap the package's layers and the FFT entry points; return the Tracer."""
    import numpy.fft
    import scipy.fft

    pkg = importlib.import_module(package)
    modules = [importlib.import_module(f"{package}.{m.name}")
               for m in pkgutil.iter_modules(pkg.__path__)]
    namespaces = [pkg, *modules]
    tracer = Tracer()

    for mod in modules:
        short = mod.__name__.rsplit(".", 1)[1]
        layer = LAYER_OF_MODULE.get(short, short)
        for name, obj in list(vars(mod).items()):
            if name.startswith("_"):
                continue
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                key = f"{layer}.{name}"
                extract = EXTRACTORS.get(key)
                _rebind(obj, tracer.wrap(key, layer, obj, extract), namespaces)
            elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for meth, fn in list(vars(obj).items()):
                    if meth.startswith("write_") and inspect.isfunction(fn):
                        setattr(obj, meth, tracer.wrap(
                            f"io.{obj.__name__}.{meth}", "io", fn))

    for fft_mod in (numpy.fft, scipy.fft):
        for name in FFT_NAMES:
            fn = getattr(fft_mod, name, None)
            if fn is None:
                continue
            key = f"fft.{fft_mod.__name__}.{name}"
            _rebind(fn, tracer.wrap(key, "fft", fn, _fft_points),
                    [fft_mod, *namespaces])
    return tracer
