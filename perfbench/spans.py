"""Span tracing of the liepoisson package, installed from outside the program.

``install`` wraps every plain function named in the ``__all__`` of the nine
package modules and rebinds each wrapped function under every name that
holds it in any ``liepoisson.*`` namespace, so a name brought in with
``from .operators import as_matrix`` is traced as well.  It also wraps

* ``Trajectory.to_csv``                       as ``integrators.to_csv``;
* the closures returned by ``lax_rhs`` and ``canonical_rhs``
                                              as ``toda.lax_rhs.rhs`` and
                                                 ``toda.canonical_rhs.rhs``;
* the monitor callables passed to ``evolve``  as ``integrators.monitor``;
* the seven check groups ``run_all`` iterates as ``verification.<group>``.

Classes are not wrapped: ``isinstance`` checks and ``except`` clauses in the
package need the real types.  A span is (name, start, end, parent); spans
stay in memory until ``Tracer.dump`` writes them out.  The first dotted part
of a span's name is the module it is charged to.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

MODULES = ("operators", "brackets", "reduction", "orbits", "integrators",
           "toda", "fixtures", "verification", "cli")

VERIFY_GROUPS = ("operator_checks", "bracket_checks", "variant_bracket_checks",
                 "reduction_checks", "orbit_checks", "dynamics_checks",
                 "toda_checks")


class Tracer:
    """In-memory span recorder for one CLI invocation."""

    def __init__(self, invocation: str):
        self.invocation = invocation
        self.names: list = []
        self._name_ids: dict = {}
        self.spans: list = []  # [name id, start, end, parent index]
        self._stack: list = []
        self.states_recorded = 0

    def wrap(self, name: str, fn):
        name_id = self._name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name_id, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"invocation": self.invocation, "names": self.names,
                       "spans": self.spans,
                       "states_recorded": self.states_recorded}, fh)


def _wrap_factory(tracer: Tracer, name: str, factory):
    """Trace a function that returns a closure, and the closure too."""
    def make(*args, **kwargs):
        return tracer.wrap(f"{name}.rhs", factory(*args, **kwargs))
    return tracer.wrap(name, functools.wraps(factory)(make))


def _wrap_evolve(tracer: Tracer, evolve):
    signature = inspect.signature(evolve)

    def run(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        monitors = bound.arguments.get("monitors")
        if monitors:
            bound.arguments["monitors"] = {
                key: tracer.wrap("integrators.monitor", fn)
                for key, fn in monitors.items()}
        traj = evolve(*bound.args, **bound.kwargs)
        tracer.states_recorded += len(traj)
        return traj

    return tracer.wrap("integrators.evolve", functools.wraps(evolve)(run))


def rebind(wrapped: dict) -> None:
    """Replace each object whose id is a key of ``wrapped`` by its value,
    under every name that holds it in any ``liepoisson.*`` namespace."""
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "liepoisson" and not mod_name.startswith("liepoisson."):
            continue
        for attr, value in list(vars(mod).items()):
            if id(value) in wrapped:
                setattr(mod, attr, wrapped[id(value)])


def install(tracer: Tracer) -> None:
    """Wrap the package's public functions; import it first."""
    mods = {m: sys.modules[f"liepoisson.{m}"] for m in MODULES}
    wrapped = {}  # id(original) -> wrapper
    for mod in mods.values():
        for attr in mod.__all__:
            fn = getattr(mod, attr)
            if not inspect.isfunction(fn) or id(fn) in wrapped:
                continue
            home = fn.__module__.rsplit(".", 1)[-1]
            name = f"{home}.{fn.__name__}"
            if name in ("toda.lax_rhs", "toda.canonical_rhs"):
                wrapped[id(fn)] = _wrap_factory(tracer, name, fn)
            elif name == "integrators.evolve":
                wrapped[id(fn)] = _wrap_evolve(tracer, fn)
            else:
                wrapped[id(fn)] = tracer.wrap(name, fn)
    verification = mods["verification"]
    for group in VERIFY_GROUPS:
        fn = getattr(verification, f"_{group}", None)
        if fn is not None:
            wrapped[id(fn)] = tracer.wrap(f"verification.{group}", fn)

    rebind(wrapped)

    trajectory = mods["integrators"].Trajectory
    trajectory.to_csv = tracer.wrap("integrators.to_csv", trajectory.to_csv)


def self_times(payload: dict) -> dict:
    """Per span name: [calls, self seconds, total seconds] from a dumped trace.

    Spans of one process nest strictly, so the part of a span covered by its
    children is the sum of its direct children's durations.
    """
    names, spans = payload["names"], payload["spans"]
    child_time = [0.0] * len(spans)
    for name_id, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict = {}
    for (name_id, start, end, _), covered in zip(spans, child_time):
        entry = out.setdefault(names[name_id], [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += (end - start) - covered
        entry[2] += end - start
    return out
