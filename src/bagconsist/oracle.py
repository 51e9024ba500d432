"""Ground-truth integer-feasibility solver for witness systems.

Solves the marginal-equation system over the join of the supports by
exhaustive depth-first search with slack propagation: join rows in
canonical order, values tried from high to low within the bounds the
remaining demands allow (so no placement is tested afterwards), one
backtrack path. A join row's slack depends only on its position, so it is
built once per system: per join row, (constraint row, cap times the later
join rows touching it). The search keeps the remaining demands and two flat
per-depth arrays, the value and its lowest allowed value. Each loop
iteration is one search node, so ``OracleBudget.max_nodes`` stops the
search at the same node on every run, unless ``max_seconds`` (checked every
1,024 nodes) trips first. The clock starts before the join, which stops at
``max_join_support`` + 1 rows and checks the clock every 1,024 rows.
Exponential in the worst case by design: this module exists to certify
small instances and to cross-check every other decision path.
"""
from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from typing import Optional, Union

from .bags import Bag, SchemaMismatchError, _row_key


class _Exhausted:
    """Singleton return value for budget exhaustion."""

    def __repr__(self):
        return "EXHAUSTED"


EXHAUSTED = _Exhausted()


@dataclass(frozen=True)
class OracleBudget:
    max_join_support: int = 10 ** 6
    max_nodes: int = 10 ** 8
    max_seconds: float = 60.0

    def __post_init__(self):
        # the class of a bool is not int, and NaN fails every comparison
        counts = (self.max_join_support, self.max_nodes)
        if any(c.__class__ is not int for c in counts):
            raise ValueError("budget counts must be integers")
        if not (min(counts) > 0 and self.max_seconds > 0):
            raise ValueError("budget limits must be positive")


def check_witness(w: Bag, db) -> bool:
    """True iff the bag's marginals reproduce every bag of the database:
    per bag, the witness's rows are summed through one getter of the bag's
    attribute positions and compared with the bag's entries exactly."""
    union = set()
    for bag in db.bags:
        union |= set(bag.schema)
    if set(w.schema) != union:
        raise SchemaMismatchError(
            "witness schema %r != union schema %r" % (w.schema, tuple(sorted(union))))
    at = {a: k for k, a in enumerate(w.schema)}
    rows, mults = w.entries.keys(), w.entries.values()
    for bag in db.bags:
        pick = _row_key([at[a] for a in bag.schema])
        sums: dict = {}
        for key, mult in zip(map(pick, rows), mults):
            sums[key] = sums.get(key, 0) + mult
        if sums != bag.entries:
            return False
    return True


@dataclass
class _System:
    union_schema: tuple
    join_rows: list                 # candidate witness rows, canonical order
    demands: list                   # one per constraint row
    incident: list                  # per constraint row: count of incident join rows
    cap: int                        # the largest demand
    slack: list                     # per join row p: (r, cap * later rows touching r)


def _support_join(db, budget: OracleBudget, deadline: float):
    """The join of the supports, one bag at a time, or EXHAUSTED as soon
    as a step's join passes ``max_join_support`` rows or the deadline
    passes: no step builds more than that many rows plus one."""
    joined = None
    for bag in db.bags:
        rel = Bag._trusted(bag.schema, dict.fromkeys(bag.entries, 1))
        if joined is not None:
            schema, rows = joined._join_rows(rel)
            entries: dict = {}
            for row, mult in itertools.islice(rows, budget.max_join_support + 1):
                entries[row] = mult
                if not len(entries) % 1024 and time.monotonic() > deadline:
                    return EXHAUSTED
            rel = Bag._trusted(schema, entries)
        if len(rel) > budget.max_join_support:
            return EXHAUSTED
        joined = rel
    return joined


def _build_system(db, budget: OracleBudget,
                  deadline: float) -> Union[_System, _Exhausted]:
    """Join the supports and set up the marginal-equation rows, or
    EXHAUSTED when the join outgrows the budget."""
    union_schema = tuple(sorted({a for bag in db.bags for a in bag.schema}))
    joined = _support_join(db, budget, deadline)
    if joined is EXHAUSTED:
        return EXHAUSTED
    join_rows = [] if joined is None else joined.rows()

    demands = []
    row_index: dict[tuple[int, tuple], int] = {}
    for i, bag in enumerate(db.bags):
        for r in bag.rows():
            row_index[(i, r)] = len(demands)
            demands.append(bag.entries[r])

    # each bag's attribute positions in a join row (over the union schema)
    at = {a: k for k, a in enumerate(union_schema)}
    cols = [_row_key([at[a] for a in bag.schema]) for bag in db.bags]
    # per join row: the constraint rows it touches, then, walking back from
    # the last join row, each one paired with cap * the later rows touching it
    slack = [[row_index[(i, col(jrow))] for i, col in enumerate(cols)]
             for jrow in join_rows]
    cap = max(demands, default=0)
    after = [0] * len(demands)
    for p in range(len(slack) - 1, -1, -1):
        hit = slack[p]
        slack[p] = tuple([(r, after[r] * cap) for r in hit])
        for r in hit:
            after[r] += 1
    return _System(union_schema, join_rows, demands, after, cap, slack)


def _search(db, budget: OracleBudget, want_all: bool):
    """Complete DFS over join-row multiplicities: the solutions found (the
    first one only, unless ``want_all``), or EXHAUSTED."""
    deadline = time.monotonic() + budget.max_seconds
    sys_ = _build_system(db, budget, deadline)
    if sys_ is EXHAUSTED:
        return EXHAUSTED
    demands = sys_.demands
    if not demands:  # no bag has a row: the empty bag is the witness
        return [Bag(sys_.union_schema, {})]
    # every demand is positive, so a row no join row touches cannot be met;
    # each join row adds once to every bag's total, so the totals must agree
    if (0 in sys_.incident
            or len({sum(bag.entries.values()) for bag in db.bags}) > 1):
        return []

    cap, slack = sys_.cap, sys_.slack
    last = len(slack) - 1
    rem = list(demands)
    max_nodes, clock = budget.max_nodes, time.monotonic
    # iterative DFS over flat per-depth state, descending value order: the
    # value placed (or next tried) at each depth, and the lowest value the
    # slack allows there
    value = [0] * len(slack)
    low = [0] * len(slack)
    solutions: list[Bag] = []
    nodes = 0
    p = 0
    while True:
        # enter depth p: no touched row may go below 0, and the join rows
        # after p must still be able to cover what it leaves (<= cap each)
        ub = cap
        lb = 0
        for r, s in slack[p]:
            d = rem[r]
            if d < ub:
                ub = d
            d -= s
            if d > lb:
                lb = d
        value[p] = ub
        low[p] = lb
        while True:
            nodes += 1
            if nodes > max_nodes or (not nodes & 1023 and clock() > deadline):
                return EXHAUSTED
            val = value[p]
            if val < low[p]:
                # no value left at this depth: take back the parent's
                if not p:
                    return solutions
                p -= 1
                val = value[p]
            else:
                # lb <= val <= ub keeps every touched row at 0 <= rem[r] <=
                # cap * (later rows touching r): the placement needs no test
                for r, _ in slack[p]:
                    rem[r] -= val
                if p < last:
                    p += 1
                    break
                # every leaf is a solution (rem is all 0): the last join row
                # touching row r has slack 0, so its bounds force val = rem[r];
                # rows that no join row touches were refused by the early-out
                solutions.append(Bag(sys_.union_schema, {
                    row: m for row, m in zip(sys_.join_rows, value) if m}))
                if not want_all:
                    return solutions
            # take back val at depth p and step to the next lower value
            for r, _ in slack[p]:
                rem[r] += val
            value[p] = val - 1


def solve_feasibility(db, budget: Optional[OracleBudget] = None
                      ) -> Union[Bag, None, _Exhausted]:
    """A witness bag, None when provably infeasible, or EXHAUSTED."""
    sols = _search(db, budget or OracleBudget(), want_all=False)
    if sols is EXHAUSTED:
        return EXHAUSTED
    return sols[0] if sols else None


def enumerate_witnesses(db, budget: Optional[OracleBudget] = None
                        ) -> Union[list, _Exhausted]:
    """All distinct witnesses, by complete enumeration, each re-checked."""
    sols = _search(db, budget or OracleBudget(), want_all=True)
    if sols is not EXHAUSTED and not all(check_witness(w, db) for w in sols):
        raise AssertionError("enumerated an invalid witness")
    return sols


@dataclass(frozen=True)
class BoundsReport:
    """The witness-size inequalities, evaluated exactly (logs carry a
    relative tolerance)."""
    mult_bound: int
    mult_bound_limit: int
    support_size: int
    unary_limit: int
    binary_limit: float
    mult_bound_ok: bool = field(init=False)
    unary_ok: bool = field(init=False)
    binary_ok: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "mult_bound_ok",
                           self.mult_bound <= self.mult_bound_limit)
        object.__setattr__(self, "unary_ok",
                           self.support_size <= self.unary_limit)
        tol = 1e-9 * max(1.0, abs(self.binary_limit))
        object.__setattr__(self, "binary_ok",
                           self.support_size <= self.binary_limit + tol)

    @property
    def all_ok(self) -> bool:
        return self.mult_bound_ok and self.unary_ok and self.binary_ok


def verify_bounds(db, w: Bag) -> BoundsReport:
    """Evaluate the three witness-size bounds for a (minimal) witness.

    The binary bound only holds for support-minimal witnesses; the caller
    decides which flags are load-bearing.
    """
    if not check_witness(w, db):
        raise ValueError("bag is not a witness for the database")
    wn = w.norms()
    norms = [bag.norms() for bag in db.bags]
    return BoundsReport(
        mult_bound=wn.multiplicity_bound,
        mult_bound_limit=max((n.multiplicity_bound for n in norms), default=0),
        support_size=wn.support_size,
        unary_limit=sum(n.unary_size for n in norms),
        binary_limit=math.fsum(n.binary_size for n in norms),
    )
