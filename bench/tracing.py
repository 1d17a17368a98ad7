"""Per-layer tracing of gyrokit from outside the library.

``install`` wraps the public functions and methods each layer metric
names.  A module-level function is replaced in every ``gyrokit.*``
namespace that binds it, because ``cli`` and the package import names
directly.  Spans (name, start, end, parent, job) are kept in memory and
written once at the end; a layer's self time is its spans' durations
minus the durations of their child spans.  Methods called ~10^6 times a
job get count-only wrappers.  An untraced run installs nothing.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

# (module, function) wrapped with spans, in every namespace that binds it
SPAN_FUNCTIONS = [
    ("cli", "main"),
    ("core", "check_axioms"),
    ("core", "check_identities"),
    ("models", "table_load"),
    ("cosets", "is_subgyrogroup"),
    ("cosets", "is_L_subgyrogroup"),
    ("cosets", "left_cosets"),
    ("cosets", "homogeneity_translate"),
    ("prenorm", "admissible_hull"),
    ("prenorm", "admissible_intersection"),
    ("prenorm", "admissible_quotient_inclusion_check"),
    ("prenorm", "build_dyadic_family"),
    ("prenorm", "validate_chain"),
    ("prenorm", "prenorm_laws_check"),
    ("prenorm", "coset_invariant_N_check"),
    ("prenorm", "quotient_metric"),
    ("prenorm", "micro_assoc_check"),
]
# (module, class, method) wrapped with spans
SPAN_METHODS = [
    ("sets", "FiniteSet", "oplus"),
    ("sets", "FiniteSet", "gyr_invariance_witness"),
    ("models", "EinsteinModel", "op"),
    ("models", "EinsteinModel", "gyr"),
    ("models", "MobiusModel", "op"),
    ("models", "MobiusModel", "gyr"),
]
# (module, class or None, name, count broadcast output elements too)
COUNTED = [
    ("sets", "FiniteSet", "gyr_image", False),
    ("models", "FiniteTable", "gyr", False),
    ("models", "FiniteTable", "contains", False),
    ("models", "FiniteTable", "op", True),
    ("prenorm", None, "rho_N", False),
]


class Tracer:
    """Span and count recorder; ``job`` tags the spans of the current job."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index, job]
        self.counts: dict[str, float] = defaultdict(int)
        self.job = -1
        self._stack: list[int] = []
        self._span_names: set[str] = set()

    def span(self, name, fn, after=None, rejects=()):
        spans, stack, counts = self.spans, self._stack, self.counts
        self._span_names.add(name)
        if rejects:
            counts[name + ".rejected"] = 0

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except rejects:
                counts[name + ".rejected"] += 1
                raise
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(result)
            return result
        return wrapper

    def counter(self, name, fn, elems: bool):
        counts = self.counts
        calls = name + ".calls"
        counts[calls] = 0
        if not elems:
            def wrapper(*args, **kwargs):
                counts[calls] += 1
                return fn(*args, **kwargs)
            return wrapper
        sizes = name + ".elems"
        counts[sizes] = 0

        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            counts[calls] += 1
            counts[sizes] += np.size(out)
            return out
        return wrapper

    def metrics(self) -> dict[str, float]:
        """``<name>.self_s`` and ``<name>.calls`` of every wrapped name, plus
        the counts; names that never ran read 0."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for name in self._span_names:
            out[name + ".self_s"] = 0.0
            out[name + ".calls"] = 0
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name + ".self_s"] += (end - start) - child[i]
            out[name + ".calls"] += 1
        out.update(self.counts)
        return out

    def write(self, path: str):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w") as fh:
            json.dump({"names": names,
                       "fields": ["name", "start", "end", "parent", "job"],
                       "spans": [[index[s[0]], *s[1:]] for s in self.spans]}, fh)


def _modules():
    return [m for k, m in list(sys.modules.items())
            if k == "gyrokit" or k.startswith("gyrokit.")]


def _rebind(orig, wrapped):
    """Replace ``orig`` by ``wrapped`` in every gyrokit namespace binding it."""
    for m in _modules():
        for attr, value in list(vars(m).items()):
            if value is orig:
                setattr(m, attr, wrapped)


def install(tracer: Tracer) -> None:
    """Wrap every traced name of the imported gyrokit modules in place."""
    mod = {m.__name__.rpartition(".")[2]: m for m in _modules()}
    core = mod["core"]

    tracer.counts["core.check_axioms.samples"] = 0

    def add_samples(report):
        tracer.counts["core.check_axioms.samples"] += sum(
            r.samples for r in report.results)

    hooks = {"core.check_axioms": {"after": add_samples},
             "models.table_load": {"rejects": core.TableError}}
    for module, func in SPAN_FUNCTIONS:
        name = f"{module}.{func}"
        orig = getattr(mod[module], func)
        _rebind(orig, tracer.span(name, orig, **hooks.get(name, {})))
    for module, cls_name, meth in SPAN_METHODS:
        cls = getattr(mod[module], cls_name)
        setattr(cls, meth, tracer.span(f"{module}.{cls_name}.{meth}",
                                       getattr(cls, meth)))
    for module, cls_name, attr, elems in COUNTED:
        owner = getattr(mod[module], cls_name) if cls_name else None
        if owner is not None:
            setattr(owner, attr, tracer.counter(f"{module}.{cls_name}.{attr}",
                                                getattr(owner, attr), elems))
            continue
        orig = getattr(mod[module], attr)
        _rebind(orig, tracer.counter(f"{module}.{attr}", orig, elems))
