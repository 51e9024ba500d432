"""Per-layer tracer that wraps ``bagconsist`` functions from outside.

Each function is replaced under the name its caller looks up (a module
global such as ``consistency.max_flow``, or a method on ``Bag`` or
``Hypergraph``) and restored on exit. A span's self time is its duration
minus the durations of the spans it directly contains, so the self times of
one job add up to its ``cli.run`` span.
"""
from __future__ import annotations

import importlib
from time import perf_counter

# (span name, module, class or None, attribute)
SPANS = [
    ("cli.run", "cli", None, "run"),
    ("cli.parse", "consistency", "BagDatabase", "from_json_dict"),
    ("cli.parse", "hypergraph", "Hypergraph", "from_json_dict"),
    ("cli.parse", "bags", "Bag", "from_json_dict"),
    ("consistency.global_consistent", "cli", None, "global_consistent"),
    ("consistency.inconsistent_pairs", "cli", None, "inconsistent_pairs"),
    ("consistency.inconsistent_pairs", "consistency", None, "inconsistent_pairs"),
    ("consistency.minimal_two_bag_witness", "consistency", None,
     "minimal_two_bag_witness"),
    ("flow.build_network", "consistency", None, "build_network"),
    ("flow.max_flow", "consistency", None, "max_flow"),
    ("flow.suppress_middle_arc", "consistency", None, "suppress_middle_arc"),
    ("flow.kernel", "flow", None, "dinic"),
    ("hypergraph.join_tree", "hypergraph", "Hypergraph", "join_tree"),
    ("hypergraph.running_intersection_order", "hypergraph", "Hypergraph",
     "running_intersection_order"),
    ("hypergraph.is_chordal", "hypergraph", "Hypergraph", "is_chordal"),
    ("hypergraph.is_conformal", "hypergraph", "Hypergraph", "is_conformal"),
    ("hypergraph.find_bad_witness", "cli", None, "find_bad_witness"),
    ("bags.marginal", "bags", "Bag", "marginal"),
    ("bags.join", "bags", "Bag", "join"),
    ("oracle.solve_feasibility", "consistency", None, "solve_feasibility"),
]

# counted, not timed: a span per Bag construction would cost more than the
# constructor itself
COUNTED = [("bags.Bag.init", "bags", "Bag", "__init__")]


class Tracer:
    """Install with ``with Tracer() as t:``; read ``t.stats`` (span name ->
    [calls, self seconds]) and ``t.counts`` afterwards."""

    def __init__(self):
        self.stats = {name: [0, 0.0] for name, *_ in SPANS}
        self.counts = {"bags.Bag.init.calls": 0, "flow.middle_arcs": 0,
                       "consistency.witness_rows": 0, "oracle.exhausted": 0}
        self._stack = []
        self._saved = []
        self._exhausted = importlib.import_module("bagconsist.oracle").EXHAUSTED

    def __enter__(self):
        for name, mod, cls, attr in SPANS:
            self._patch(mod, cls, attr, lambda fn, name=name: self._span(name, fn))
        for name, mod, cls, attr in COUNTED:
            self._patch(mod, cls, attr, lambda fn, name=name: self._counter(name, fn))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)
        return False

    def _patch(self, mod, cls, attr, make):
        owner = importlib.import_module("bagconsist." + mod)
        if cls is not None:
            owner = getattr(owner, cls)
            raw = owner.__dict__[attr]
        else:
            raw = getattr(owner, attr)
        self._saved.append((owner, attr, raw))
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(make(raw.__func__)))
        else:
            setattr(owner, attr, make(raw))

    def _span(self, name, fn):
        stack, stat = self._stack, self.stats[name]
        hook = {"flow.kernel": self._count_arcs,
                "consistency.global_consistent": self._count_witness_rows,
                "oracle.solve_feasibility": self._count_exhausted}.get(name)

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                stat[0] += 1
                stat[1] += dur - frame[0]
            if hook is not None:
                hook(args, result)
            return result
        return wrapper

    def _counter(self, name, fn):
        counts, key = self.counts, name + ".calls"

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    # hooks run after their span closes; their small cost is charged to
    # the caller's self time

    def _count_arcs(self, args, result):
        # every node but source and sink has one source or sink arc; the
        # other arcs are middle arcs
        num_nodes, arcs = args[0], args[1]
        self.counts["flow.middle_arcs"] += len(arcs) - (num_nodes - 2)

    def _count_witness_rows(self, args, report):
        if report.witness is not None:
            self.counts["consistency.witness_rows"] += len(report.witness)

    def _count_exhausted(self, args, result):
        if result is self._exhausted:
            self.counts["oracle.exhausted"] += 1

    def self_total(self):
        """Self seconds of every span so far."""
        return sum(s for _, s in self.stats.values())
