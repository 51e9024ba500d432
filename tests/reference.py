"""Test-only reference implementations.

``reference_search`` is the oracle's depth-first search as it was written
before its per-node cost was cut: a ``pending`` count per constraint row,
updated on every placement and undo, an ``assignment`` array beside the
value stack, and the bounds set by a ``push`` closure. The production
search must visit the same nodes in the same order and return the same
answers, so the tests compare the two at many node budgets.
"""
import time

from bagconsist import Bag
from bagconsist.oracle import EXHAUSTED, _build_system


def reference_search(db, budget, want_all):
    """Complete DFS over join-row multiplicities: the solutions found (the
    first one only, unless ``want_all``), or EXHAUSTED."""
    deadline = time.monotonic() + budget.max_seconds
    sys_ = _build_system(db, budget, deadline)
    if sys_ is EXHAUSTED:
        return EXHAUSTED
    demands = sys_.demands
    if not sys_.join_rows:
        if all(d == 0 for d in demands):
            return [Bag(sys_.union_schema, {})]
        return []
    if any(d > 0 and c == 0 for d, c in zip(demands, sys_.incident)):
        return []
    totals = {sum(bag.entries.values()) for bag in db.bags}
    if len(totals) > 1:
        return []

    cap = max(demands, default=0)
    n = len(sys_.join_rows)
    # per join row: the constraint rows it touches (the slack is not used)
    row_tuples = [[r for r, _ in hit] for hit in sys_.slack]
    rem = list(demands)
    # per constraint row: how many join rows at position >= p still touch it
    pending = list(sys_.incident)
    assignment = [0] * n
    solutions = []
    nodes = 0

    # iterative DFS, descending value order: the next value to try at each
    # depth, and the lowest value the slack still allows there
    value_stack = []
    lb_stack = []

    def push(p):
        ub = cap
        lb = 0
        for r in row_tuples[p]:
            if rem[r] < ub:
                ub = rem[r]
            floor = rem[r] - (pending[r] - 1) * cap
            if floor > lb:
                lb = floor
        value_stack.append(ub)
        lb_stack.append(lb)

    push(0)
    while value_stack:
        nodes += 1
        if nodes > budget.max_nodes or (nodes % 1024 == 0
                                        and time.monotonic() > deadline):
            return EXHAUSTED
        p = len(value_stack) - 1
        val = value_stack[p]
        if val < lb_stack[p]:
            # no value left at this depth: take back the parent's
            value_stack.pop()
            lb_stack.pop()
            if not p:
                break
            p -= 1
            val = assignment[p]
        else:
            assignment[p] = val
            for r in row_tuples[p]:
                rem[r] -= val
                pending[r] -= 1
            if p + 1 < n:
                push(p + 1)
                continue
            if all(x == 0 for x in rem):
                solutions.append(Bag(sys_.union_schema, {
                    row: m for row, m in zip(sys_.join_rows, assignment)
                    if m}))
                if not want_all:
                    break
        # take back val at depth p and step to the next lower value
        for r in row_tuples[p]:
            rem[r] += val
            pending[r] += 1
        assignment[p] = 0
        value_stack[p] -= 1
    return solutions
