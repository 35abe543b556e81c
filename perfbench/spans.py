"""In-memory span recorder that instruments fdwiretap from outside.

Every public function of the instrumented modules is replaced, as a module
attribute, by a wrapper that records a span: name, start, end, parent span
and trial.  The package calls its collaborators through module attributes
(``maxdet.solve``, ``maxdet.project_feasible``, ``linalg.hermitize``, ...),
so replacing the attribute also catches the calls made inside the package.
Functions of count-only modules get a call counter instead of a span,
because they are too cheap and too frequent to time one by one.

Spans stay in memory until the run ends; nothing under ``src/`` changes.
"""

import functools
import inspect
import time
from contextlib import contextmanager


@contextmanager
def patched(replacements):
    """Set ``(module, attribute, value)`` triples, restoring them on exit."""
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in replacements]
    try:
        for mod, attr, value in replacements:
            setattr(mod, attr, value)
        yield
    finally:
        for mod, attr, value in reversed(saved):
            setattr(mod, attr, value)


def public_functions(module, package: str):
    """``(attribute, function)`` pairs bound in ``module`` whose function is
    defined in ``package``: its own public functions and the ones it
    imported by name, such as ``harness.draw_channels``."""
    out = []
    for attr, obj in sorted(vars(module).items()):
        if (not attr.startswith("_") and inspect.isfunction(obj)
                and obj.__module__.startswith(package + ".")
                and not obj.__name__.startswith("_")):
            out.append((attr, obj))
    return out


def layer_name(fn) -> str:
    """``<module>.<function>``, e.g. ``maxdet.solve``."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    """Spans and call counts for one traced pass.

    ``spans`` holds ``[name, start, end, parent, trial]`` lists in start
    order; ``parent`` is an index into ``spans`` or -1 for a root.  The
    caller sets ``trial`` while a trial runs; spans outside a trial carry -1.
    ``probes`` maps a span name to a callback ``(args, kwargs, result)`` run
    after the span closes, for reading counts off returned objects.
    """

    def __init__(self, probes=None):
        self.spans = []
        self.counts = {}
        self.trial = -1
        self.probes = dict(probes or {})
        self._stack = []

    def span_wrapper(self, name: str, fn):
        spans, stack = self.spans, self._stack
        probe = self.probes.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.trial]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if probe is not None:
                probe(args, kwargs, result)
            return result
        return wrapper

    def count_wrapper(self, name: str, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def replacements(self, span_modules, count_modules, package: str):
        """Module-attribute replacements for :func:`patched`."""
        out = []
        for module in span_modules:
            for attr, fn in public_functions(module, package):
                out.append((module, attr, self.span_wrapper(layer_name(fn), fn)))
        for module in count_modules:
            for attr, fn in public_functions(module, package):
                out.append((module, attr, self.count_wrapper(layer_name(fn), fn)))
        return out


def self_times(spans) -> list:
    """Self time of each span: its duration minus the part of its interval
    that its direct children cover."""
    children = [[] for _ in spans]
    for idx, rec in enumerate(spans):
        if rec[3] >= 0:
            children[rec[3]].append(idx)
    out = []
    for idx, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for child in sorted(children[idx], key=lambda c: spans[c][1]):
            lo = max(spans[child][1], reach)
            hi = min(spans[child][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def totals(spans, trials_only: bool = False) -> dict:
    """Per span name: ``calls``, inclusive ``s`` and ``self_s``.

    With ``trials_only`` only spans recorded inside a trial count.
    """
    out = {}
    for rec, self_s in zip(spans, self_times(spans)):
        if trials_only and rec[4] < 0:
            continue
        agg = out.setdefault(rec[0], {"calls": 0, "s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["s"] += rec[2] - rec[1]
        agg["self_s"] += self_s
    return out
