"""Per-layer tracing from outside the library.

Each traced function is replaced, for the duration of a ``Tracer.active()``
block, in every ``eigenalign`` namespace that binds it: the defining module
(so ``closed_form.build_stacked`` and ``linalg.*`` are caught where callers
look them up through the module) and every module or package namespace that
imported it with ``from ... import`` (``analysis.iterate``,
``analysis.generate``, ...). No library file changes.

Spans are kept in memory as ``(id, parent_id, name, t0, t1, counts)`` and
written out once at the end; self time is derived from them afterwards.
"""

import json
import sys
import time
from contextlib import contextmanager

#: Functions traced, by module. A name missing from its module is reported
#: as absent, so a later refactor that deletes or renames one does not crash
#: the benchmark. ``as_complex_matrix`` is left out: it is a validation helper
#: called hundreds of times per solve, and wrapping it would dominate the
#: overhead.
TRACED = {
    "linalg": ["eig_general", "solve", "condition_estimate",
               "null_space_orthonormal", "inverse"],
    "channel": ["generate", "serialize", "deserialize"],
    "closed_form": ["build_stacked", "solve_eigen_method", "solve_loop_method",
                    "loop_matrix", "cube_relation_check",
                    "solution_to_document", "solution_from_document"],
    "iterative": ["iterate", "warm_start_check"],
    "analysis": ["verify", "sum_rate_curve", "infeasibility_demo",
                 "feasibility_sweep"],
    "cli": ["main", "cmd_gen", "cmd_solve", "cmd_verify", "cmd_rates",
            "cmd_infeasible", "cmd_sweep"],
}


def _iterate_counts(args, kwargs, result):
    return {"iterations": int(result.iterations),
            "converged": int(bool(result.converged))}


def _sweep_counts(args, kwargs, result):
    records = result.records
    return {"iterations": sum(int(r.iterations) for r in records),
            "runs": len(records),
            "converged": sum(r.verdict == "feasible" for r in records),
            "capped_iterations": sum(int(r.iterations) for r in records
                                     if r.verdict != "feasible")}


def _serialize_counts(args, kwargs, result):
    return {"bytes": len(result)}


def _deserialize_counts(args, kwargs, result):
    data = args[0] if args else kwargs.get("data")
    return {"bytes": len(data)}


#: Counts recorded at a function's boundary from its arguments and result.
COUNTERS = {
    "iterative.iterate": _iterate_counts,
    "analysis.feasibility_sweep": _sweep_counts,
    "channel.serialize": _serialize_counts,
    "channel.deserialize": _deserialize_counts,
}


class Tracer:
    """Collects spans of the traced functions while ``active()``."""

    def __init__(self, package):
        self.package = package
        self.spans = []
        self.absent = []
        self._stack = []
        self._next_id = 1
        self._originals = {}
        for mod_name, names in TRACED.items():
            module = getattr(package, mod_name, None)
            for name in names:
                func = getattr(module, name, None)
                if callable(func):
                    self._originals[f"{mod_name}.{name}"] = func
                else:
                    self.absent.append(f"{mod_name}.{name}")

    def _wrap(self, qualname, func):
        counter = COUNTERS.get(qualname)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else 0
            self._stack.append(span_id)
            t0 = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                t1 = clock()
                self._stack.pop()
            try:
                counts = counter(args, kwargs, result) if counter else None
            except (AttributeError, TypeError):   # the result changed shape
                counts = None
            self.spans.append((span_id, parent, qualname, t0, t1, counts))
            return result

        wrapper.__wrapped__ = func
        wrapper.__name__ = func.__name__
        return wrapper

    def _bindings(self):
        """Every (namespace, attribute, original) that binds a traced
        function anywhere in the package."""
        prefix = self.package.__name__
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if m is not None
                      and (n == prefix or n.startswith(prefix + "."))]
        by_id = {id(f): q for q, f in self._originals.items()}
        found = []
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                qualname = by_id.get(id(value))
                if qualname is not None:
                    found.append((ns, attr, qualname))
        return found

    @contextmanager
    def active(self):
        """Install the wrappers in every binding; restore them on exit."""
        wrappers = {q: self._wrap(q, f) for q, f in self._originals.items()}
        patched = []
        try:
            for ns, attr, qualname in self._bindings():
                setattr(ns, attr, wrappers[qualname])
                patched.append((ns, attr, self._originals[qualname]))
            yield self
        finally:
            for ns, attr, original in patched:
                setattr(ns, attr, original)

    def summary(self):
        """Per-function calls, inclusive and self time (ms) and counts."""
        child_time = {}
        for span_id, parent, _, t0, t1, _ in self.spans:
            if parent:
                child_time[parent] = child_time.get(parent, 0.0) + (t1 - t0)
        out = {q: {"calls": 0, "ms": 0.0, "self_ms": 0.0, "counts": {}}
               for q in self._originals}
        for span_id, _, qualname, t0, t1, counts in self.spans:
            row = out[qualname]
            dur = t1 - t0
            row["calls"] += 1
            row["ms"] += dur * 1e3
            row["self_ms"] += (dur - child_time.get(span_id, 0.0)) * 1e3
            for key, value in (counts or {}).items():
                row["counts"][key] = row["counts"].get(key, 0) + value
        return out

    def top_level_iterate_counts(self):
        """Counts of ``iterate`` calls made outside any sweep (the sweep's
        own records already account for the runs inside it)."""
        by_id = {s[0]: s for s in self.spans}
        totals = {"iterations": 0, "runs": 0, "converged": 0,
                  "capped_iterations": 0, "ms": 0.0}
        for span_id, parent, qualname, t0, t1, counts in self.spans:
            if qualname != "iterative.iterate":
                continue
            ancestor = parent
            inside_sweep = False
            while ancestor:
                node = by_id[ancestor]
                if node[2] == "analysis.feasibility_sweep":
                    inside_sweep = True
                    break
                ancestor = node[1]
            if inside_sweep:
                continue
            totals["iterations"] += counts["iterations"]
            totals["runs"] += 1
            totals["converged"] += counts["converged"]
            if not counts["converged"]:
                totals["capped_iterations"] += counts["iterations"]
            totals["ms"] += (t1 - t0) * 1e3
        return totals

    def write_spans(self, path):
        with open(path, "w") as fh:
            for span_id, parent, qualname, t0, t1, counts in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent,
                                     "name": qualname, "t0": t0, "t1": t1,
                                     "counts": counts}) + "\n")

