"""Spans around the calls each crosscap module makes into its own and lower layers.

The tracer replaces, for the length of a traced run, the names a module
calls (`verify.cf_expand`, `torus_knots.bredon_wood_N`, ...) with wrappers
that time each call. A span is keyed by (caller module, callee): the caller
is the module whose name was replaced, the callee is the function's own
module and name. Spans are not stored one by one: each closed span adds its
duration and its self time (duration minus the time its child spans cover)
to its key's totals, so a traced sweep needs constant memory.
"""

from __future__ import annotations

import inspect
import time
from contextlib import contextmanager

#: Names each module calls, whether imported from a lower layer or its own.
#: A name a later version no longer has is skipped; its spans read as absent.
#: `torus_knots.TorusKnot` is left alone because torus_knots tests isinstance
#: against it; `verify` only constructs knots, so its TorusKnot is wrapped.
CALLS = {
    "continued_fractions": ("make_rational", "cf_expand", "skipped_sum", "cf_canonicalize"),
    "torus_knots": ("bredon_wood_N", "crosscap", "bounds_for"),
    "verify": (
        "bredon_wood_N", "cf_expand", "cf_value", "coefficient_sum", "lemma9_expansions",
        "make_rational", "TorusKnot", "invariants", "q3_closed_form",
        "q3_congruence_selector", "check_knot",
    ),
    "cli": (
        "cf_expand", "coefficient_sum", "make_rational", "skipped_sum", "invariants",
        "normalize", "check_knot", "enumerate_coprime", "run_verification", "serialize_report",
    ),
}


class Totals:
    """Accumulated spans of one (caller, callee) key."""

    __slots__ = ("calls", "seconds", "self_seconds", "items")

    def __init__(self) -> None:
        self.calls = 0
        self.seconds = 0.0
        self.self_seconds = 0.0
        self.items = 0


def callee_name(fn) -> str:
    """`module.name` of a function or class, with the package prefix dropped."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.totals: dict[tuple[str, str], Totals] = {}
        # Child time covered so far, one entry per open span, under a root entry.
        self._open = [0.0]

    def _close(self, key: tuple[str, str], start: float) -> Totals:
        elapsed = self.clock() - start
        children = self._open.pop()
        self._open[-1] += elapsed
        totals = self.totals.get(key)
        if totals is None:
            totals = self.totals[key] = Totals()
        totals.calls += 1
        totals.seconds += elapsed
        totals.self_seconds += elapsed - children
        return totals

    def wrap(self, caller: str, fn, size=None):
        """`fn` with each call recorded as a span of `caller`.

        `size`, if given, maps a result to a count added to the key's items.
        A generator function's span covers each step, not the consumer's work.
        """
        key = (caller, callee_name(fn))
        open_, clock, close = self._open, self.clock, self._close

        if inspect.isgeneratorfunction(fn):
            def traced_steps(*args, **kwargs):
                steps = fn(*args, **kwargs)
                while True:
                    open_.append(0.0)
                    start = clock()
                    try:
                        item = next(steps)
                    except StopIteration:
                        close(key, start)
                        return
                    except BaseException:
                        close(key, start)
                        raise
                    close(key, start)
                    yield item
            return traced_steps

        def traced(*args, **kwargs):
            open_.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                close(key, start)
                raise
            totals = close(key, start)
            if size is not None:
                totals.items += size(result)
            return result
        return traced

    def by_callee(self) -> dict[str, Totals]:
        """Totals summed over callers, keyed by callee."""
        out: dict[str, Totals] = {}
        for (_, callee), t in self.totals.items():
            acc = out.setdefault(callee, Totals())
            acc.calls += t.calls
            acc.seconds += t.seconds
            acc.self_seconds += t.self_seconds
            acc.items += t.items
        return out

    def self_seconds(self, module: str) -> float:
        """Self time of every span whose callee lives in `module`."""
        return sum(
            t.self_seconds for (_, callee), t in self.totals.items()
            if callee.split(".", 1)[0] == module
        )


@contextmanager
def installed(tracer: Tracer, modules: dict):
    """Replace the names in CALLS with traced wrappers; restore them on exit."""
    saved = []
    try:
        for caller, names in CALLS.items():
            module = modules[caller]
            for name in names:
                fn = getattr(module, name, None)
                if fn is None:
                    continue
                size = len if name == "cf_expand" else None
                saved.append((module, name, fn))
                setattr(module, name, tracer.wrap(caller, fn, size))
        yield tracer
    finally:
        for module, name, fn in reversed(saved):
            setattr(module, name, fn)
