"""Span tracing of polyball from outside the package.

``Tracer.install`` replaces, with ``setattr``, every public function of the
package modules, the public and arithmetic methods of ``MultiPoly``,
``ResultTable``, ``RunConfig`` and ``BoundaryData``, every other module
attribute bound to one of those functions by ``from .x import y``, and the
entries of module-level dispatch tables (``SUITES``, ``_RUNNERS``) that hold
them.  ``uninstall`` puts every original back.

Each call of a wrapped function records a span (name, start, end, parent
span, request id, work count) in memory.  The program has no queues or
threads, so no wait time exists to record.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import time

import numpy as np

MODULES = ("geometry", "gegenbauer", "polyalg", "kernels", "quadrature",
           "solver", "suites", "cli")

# (module, class) -> wrapped method names; dunders are the ring operations.
CLASSES = {
    ("polyalg", "MultiPoly"): ("__add__", "__sub__", "__mul__", "__rmul__",
                               "__neg__", "__pow__"),
    ("cli", "ResultTable"): (),
    ("cli", "RunConfig"): (),
    ("solver", "BoundaryData"): (),
}


def _size(value) -> int:
    return int(np.size(value))


# Work counted per call, from the arguments and the result.
COUNTERS = {
    "geometry.principal_power": lambda a, k, r: _size(a[0]),
    "kernels.poisson_from_products": lambda a, k, r: _size(r),
    "kernels.boundary_form_values": lambda a, k, r: _size(r),
    "kernels.zonal_from_products": lambda a, k, r: (_size(r) if np.ndim(r)
                                                    else 0),
    "kernels.poisson_kernel_series": lambda a, k, r: r.terms_used,
    "kernels.truncation_degree": lambda a, k, r: r,
    "quadrature.sphere_rule": lambda a, k, r: r.count,
    "quadrature.compensated_sum": lambda a, k, r: _size(a[0]),
    "polyalg.MultiPoly.eval_at": lambda a, k, r: _size(r),
    "polyalg.MultiPoly.evaluate": lambda a, k, r: 1,
    "cli.ResultTable.render": lambda a, k, r: len(r),
    "solver.dirichlet_solve": lambda a, k, r: len(r.values),
    "solver.polyharmonic_limit_experiment": lambda a, k, r: len(r.rows) + 1,
}


class Tracer:
    """Wrappers and the spans they record."""

    def __init__(self, package):
        self.package = package
        self.names: list = []
        self.spans: list = []  # (name id, start, end, parent, request, count)
        self._request = [-1]  # id of the request being traced
        self._stack: list = [-1]  # open spans; -1 stands for no parent
        self._installed = False
        self._plan_cache = self._plan()

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        counter = COUNTERS.get(name)
        spans, stack, request = self.spans, self._stack, self._request
        append, push, pop = spans.append, stack.append, stack.pop
        clock = time.perf_counter

        # The span slot is taken before the call, so a parent's index is
        # always lower than its children's.
        if counter is None:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                idx = len(spans)
                append(None)
                parent = stack[-1]
                push(idx)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    pop()
                    spans[idx] = (nid, start, clock(), parent, request[0], 1)
            return wrapper

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            idx = len(spans)
            append(None)
            parent = stack[-1]
            push(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                pop()
                spans[idx] = (nid, start, end, parent, request[0], 0)
            spans[idx] = (nid, start, end, parent, request[0],
                          counter(args, kwargs, result))
            return result
        return counted

    def _plan(self):
        """Every (owner, key, original, wrapper, is_item) to patch."""
        modules = {m: getattr(self.package, m) for m in MODULES}
        plan = []
        wrappers = {}  # id(original function) -> wrapper
        for mname, mod in modules.items():
            for attr, value in vars(mod).items():
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__ == mod.__name__):
                    wrapper = self._wrap(f"{mname}.{attr}", value)
                    wrappers[id(value)] = wrapper
                    plan.append((mod, attr, value, wrapper, False))
        for (mname, cname), dunders in CLASSES.items():
            cls = getattr(modules[mname], cname)
            for attr, raw in vars(cls).items():
                if attr.startswith("_") and attr not in dunders:
                    continue
                kind = type(raw) if isinstance(raw, (classmethod,
                                                     staticmethod)) else None
                fn = raw.__func__ if kind else raw
                if not inspect.isfunction(fn):
                    continue
                wrapper = self._wrap(f"{mname}.{cname}.{attr}", fn)
                plan.append((cls, attr, raw, kind(wrapper) if kind
                             else wrapper, False))
        # names bound by `from .x import y`, and dispatch-table entries
        planned = {(id(owner), key) for owner, key, *_ in plan}
        for mod in [self.package, *modules.values()]:
            for attr, value in vars(mod).items():
                if id(value) in wrappers and (id(mod), attr) not in planned:
                    plan.append((mod, attr, value, wrappers[id(value)],
                                 False))
                elif isinstance(value, dict):
                    for key, entry in value.items():
                        if (id(entry) in wrappers
                                and (id(value), key) not in planned):
                            planned.add((id(value), key))
                            plan.append((value, key, entry,
                                         wrappers[id(entry)], True))
        return plan

    def install(self):
        """Put every wrapper in place."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        for owner, key, _, wrapper, item in self._plan_cache:
            if item:
                owner[key] = wrapper
            else:
                setattr(owner, key, wrapper)
        self._installed = True

    def uninstall(self):
        """Restore every patched attribute and table entry."""
        for owner, key, original, _, item in reversed(self._plan_cache):
            if item:
                owner[key] = original
            else:
                setattr(owner, key, original)
        del self._stack[1:]
        self._installed = False

    @property
    def request(self) -> int:
        return self._request[0]

    @request.setter
    def request(self, value: int):
        self._request[0] = value

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- output ------------------------------------------------------------

    def dump(self, path, origin: float):
        """Write the spans as gzipped JSON lines [name, start, end, parent,
        request, count], times in seconds from ``origin``."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fp:
            for nid, start, end, parent, request, count in self.spans:
                fp.write(json.dumps([self.names[nid], round(start - origin, 9),
                                     round(end - origin, 9), parent, request,
                                     count]) + "\n")
