"""Outside-in span tracing of the signedvoter layers.

The tracer replaces each listed public function with a wrapper that records
one span per call: (id, name, start, end, parent id, run id).  A function is
replaced in every loaded ``signedvoter`` module namespace that holds it, so
calls made through ``from .graph import apply_p`` in another module are seen
too; methods are replaced on their class.  Spans stay in memory until
``write_spans`` is called.  A listed name that no longer exists raises
``MissingTarget``, so a rename cannot silently drop a layer metric.
"""

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

# layer module -> traced names; "Class.method" names are patched on the class
TARGETS = {
    "graph": ["parse_snap", "from_edge_list", "apply_p", "apply_p_transpose"],
    "structure": ["decompose", "is_aperiodic", "classify_balance", "stationary",
                  "Block.apply", "Block.apply_t"],
    "dynamics": ["step", "propagate", "solve_coupling", "steady_state"],
    "maximize": ["contribution_longterm", "contribution_average", "svim_l", "svim_s",
                 "select_top", "heuristic_seeds"],
    "simulate": ["build_alias_tables", "mc_run"],
    "cli": ["main"],
}


def _mc_node_updates(bound: inspect.BoundArguments) -> float:
    args = bound.arguments
    return float(args["G"].n) * args["t"] * args["trials"]


# span name -> (counter name, function of the bound call arguments)
COUNTERS = {"simulate.mc_run": ("simulate.node_updates", _mc_node_updates)}


class MissingTarget(RuntimeError):
    pass


class Tracer:
    """Records spans of wrapped calls; ``enabled`` pauses recording."""

    def __init__(self):
        self.spans = []  # (id, name, start, end, parent, run)
        self.counters = defaultdict(float)
        self.run_id = 0
        self.enabled = True
        self._stack = []
        self._next_id = 0

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            if counter:
                self.counters[counter[0]] += counter[1](signature.bind(*args, **kwargs))
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append((span_id, name, start, end, parent, self.run_id))

        traced.__wrapped_original__ = fn
        return traced

    def summary(self) -> dict:
        """Per span name: call count, total seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children.  Names in TARGETS that were never called report zeros.
        """
        child_time = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = {f"{layer}.{name}": {"calls": 0, "s": 0.0, "self_s": 0.0}
               for layer, names in TARGETS.items() for name in names}
        for span_id, name, start, end, _, _ in self.spans:
            rec = out[name]
            rec["calls"] += 1
            rec["s"] += end - start
            rec["self_s"] += end - start - child_time[span_id]
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, run in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start": start, "end": end,
                                     "parent": parent, "run": run}) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap every TARGETS entry at its home module and every namespace importing it.

    All names are resolved before anything is patched, so a missing one
    leaves the library untouched.
    """
    found = []
    for layer, names in TARGETS.items():
        home = importlib.import_module(f"signedvoter.{layer}")
        for qualname in names:
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(home, owner_name, None) if owner_name else home
            original = getattr(owner, attr, None) if owner is not None else None
            if not callable(original):
                raise MissingTarget(f"signedvoter.{layer}.{qualname} not found; "
                                    "update the tracing targets for the renamed layer")
            if hasattr(original, "__wrapped_original__"):
                raise RuntimeError(f"signedvoter.{layer}.{qualname} is already traced")
            found.append((f"{layer}.{qualname}", owner if owner_name else None, attr, original))
    namespaces = [mod for name, mod in list(sys.modules.items())
                  if mod is not None and (name == "signedvoter" or name.startswith("signedvoter."))]
    for name, cls, attr, original in found:
        traced = tracer.wrap(name, original)
        if cls is not None:
            setattr(cls, attr, traced)
            continue
        for mod in namespaces:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)
