"""Span tracing of qlesim's public functions, from outside the package.

A :class:`Tracer` replaces each target function with a timing wrapper at
every place the program reaches it: the defining module, every qlesim
module that imported it by name (``from .sde import trajectory_seeds``),
or the class that owns it.  Each call records a span (name, start, end,
parent) and counts computed from its arguments and return value.  Spans
stay in memory; :func:`layer_metrics` turns one pass's spans into the
per-layer figures.

Only public names are wrapped, so a refactor that keeps them keeps the
trace.  A target that no longer exists is skipped and reads as zero, and
so does a count whose argument or return field is gone.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from dataclasses import dataclass, field

PACKAGE = "qlesim"


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    counts: dict = field(default_factory=dict)
    raised: str = ""
    count_error: str = ""


def covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Per span: its duration minus the part its direct children cover."""
    children = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return [
        (span.end - span.start) - covered(children.get(i, ()))
        for i, span in enumerate(spans)
    ]


class Tracer:
    """Installs timing wrappers on the targets; records spans in memory.

    ``targets`` is a list of (span_name, owner, attribute, count_fn),
    where ``owner`` is a module or class and ``count_fn(args, result,
    exc)`` returns a dict of counts for one call (or None).
    """

    def __init__(self, targets):
        self.targets = targets
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, name, original, count_fn):
        signature = inspect.signature(original) if count_fn else None
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = Span(name, time.perf_counter(),
                        parent=tracer._stack[-1] if tracer._stack else -1)
            index = len(tracer.spans)
            tracer.spans.append(span)
            tracer._stack.append(index)
            result = exc = None
            try:
                result = original(*args, **kwargs)
                return result
            except Exception as error:
                exc = error
                span.raised = type(error).__name__
                raise
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
                if count_fn is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    try:
                        span.counts = count_fn(bound.arguments, result, exc) or {}
                    except (KeyError, AttributeError, TypeError) as error:
                        # a refactor renamed what the count reads: keep the
                        # span and its time, read the counts as zero
                        span.count_error = repr(error)

        return wrapper

    def install(self):
        modules = [mod for key, mod in list(sys.modules.items())
                   if mod is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for name, owner, attr, count_fn in self.targets:
            original = inspect.getattr_static(owner, attr, None)
            if original is None:
                continue
            wrapper = self._wrap(name, original, count_fn)
            if inspect.isclass(owner):
                self._replace(owner, attr, original, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, key, original, wrapper)
        return self

    def _replace(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc_info):
        self.uninstall()


def layer_metrics(spans, names, peak_keys=()):
    """Per span name: total time, self time and calls, plus the counts.

    Returns '<name>.s', '<name>.self_s' and '<name>.calls' for every name
    in ``names`` (zero when absent).  Counts are summed over calls, except
    those in ``peak_keys``, which keep their largest single value.
    """
    out = {}
    for name in names:
        out[f"{name}.s"] = 0.0
        out[f"{name}.self_s"] = 0.0
        out[f"{name}.calls"] = 0
    for span, own in zip(spans, self_times(spans)):
        out[f"{span.name}.s"] = out.get(f"{span.name}.s", 0.0) + span.end - span.start
        out[f"{span.name}.self_s"] = out.get(f"{span.name}.self_s", 0.0) + own
        out[f"{span.name}.calls"] = out.get(f"{span.name}.calls", 0) + 1
        for key, value in span.counts.items():
            if key in peak_keys:
                out[key] = max(out.get(key, value), value)
            else:
                out[key] = out.get(key, 0) + value
    return out
