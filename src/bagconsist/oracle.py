"""Ground-truth integer-feasibility solver for witness systems.

Solves the marginal-equation system over the join of the supports, which
it builds itself as plain rows grown bag by bag: one unknown per join row,
one equation (constraint row) per bag row, held as two incidence lists:
per bag, a column mapping each join row to its constraint row, and per
constraint row, its join rows in ascending order. A complete fail-first
search solves it. After each placement it propagates on the rows touched:
a row with nothing left sets its free join rows to 0, a row with one free
join row sets it, and a row below 0, short with nothing free, or wanting
more than its free join rows' upper bounds fails the branch. It branches
on the row with the fewest free join rows (then the smallest demand left,
then the lowest index), at its free join row with the smallest upper
bound, and steps through that join row's values nearest the row's even
share first; a trail undoes placements. The constraint rows sit in buckets
keyed by their count of free join rows, which each placement and undo
keep current, so a branch point scans only the first non-empty bucket;
the buckets cost one set entry per constraint row. A node is one value
tried at a branch point, so ``OracleBudget.max_nodes`` stops the search at
the same node on every run, unless ``max_seconds`` (checked at every node)
trips first. An enumeration also stops once the witnesses it holds pass
``max_join_support`` rows in all. The clock starts before the join, which
stops at ``max_join_support`` + 1 rows and checks the clock every 1,024
rows; the clock is read again after the join's rows are sorted, after each
bag's column, every 4,096 join rows while the per-row lists are filled,
and every 4,096 constraint rows of the first propagation.
Exponential in the worst case by design: this module exists to certify
small instances and to cross-check every other decision path.
"""
from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Optional, Union

from .bags import Bag, SchemaMismatchError, _group_key, _row_key, _summed_rows


class _Exhausted:
    """Singleton return value for budget exhaustion."""

    def __repr__(self):
        return "EXHAUSTED"

    def __reduce__(self):  # copies and unpickles as the module's singleton
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
        if self.max_seconds.__class__ not in (int, float):
            raise ValueError("the budget's seconds must be a number")
        if not (min(counts) > 0 and self.max_seconds > 0):
            raise ValueError("budget limits must be positive")


def check_witness(w: Bag, db) -> bool:
    """True iff the bag's marginals reproduce every bag of the database:
    per bag, the witness's rows are summed onto the bag's attribute
    positions by :func:`bags._summed_rows`, which ``Bag.marginal`` calls
    too, and compared with the bag's entries exactly."""
    union = set().union(*(bag.schema for bag in db.bags))
    if set(w.schema) != union:
        raise SchemaMismatchError(
            "witness schema %r != union schema %r" % (w.schema, tuple(sorted(union))))
    at = {a: k for k, a in enumerate(w.schema)}
    return all(_summed_rows([at[a] for a in bag.schema], w.entries)
               == bag.entries for bag in db.bags)


@dataclass
class _System:
    union_schema: tuple
    join_rows: list                 # candidate witness rows, canonical order
    demands: list                   # one per constraint row
    columns: list                   # per bag: join row -> its constraint row
    users: list                     # per constraint row: its join rows, ascending


def _support_join(db, budget: OracleBudget, deadline: float):
    """The join of the supports, its rows sorted over the union schema, or
    EXHAUSTED once a step passes ``max_join_support`` rows or the deadline
    passes. Plain rows grow bag by bag: each row so far gets the new cells
    of every bag row that agrees with it on the attributes so far (no step
    builds more than the cap plus one row), and are permuted into schema
    order once, at the end. No bags join to no rows."""
    at: dict = {}  # attribute -> its position in a row so far
    rows = [()] if db.bags else []
    for bag in db.bags:
        shared = [k for k, a in enumerate(bag.schema) if a in at]
        new = [k for k, a in enumerate(bag.schema) if a not in at]
        bag_key, new_cells = _group_key(shared), _row_key(new)
        buckets: dict = {}
        for row in bag.entries:
            buckets.setdefault(bag_key(row), []).append(new_cells(row))
        key = _group_key([at[bag.schema[k]] for k in shared])
        grown = (row + cells for row in rows
                 for cells in buckets.get(key(row), ()))
        rows = []
        for row in itertools.islice(grown, budget.max_join_support + 1):
            rows.append(row)
            if not len(rows) % 1024 and time.monotonic() > deadline:
                return EXHAUSTED
        if len(rows) > budget.max_join_support:
            return EXHAUSTED
        for k in new:
            at[bag.schema[k]] = len(at)
    return sorted(map(_row_key([at[a] for a in sorted(at)]), rows))


def _build_system(db, budget: OracleBudget,
                  deadline: float) -> Union[_System, _Exhausted]:
    """Join the supports and set up the marginal-equation rows, or
    EXHAUSTED when the join outgrows the budget or the deadline passes."""
    union_schema = tuple(sorted({a for bag in db.bags for a in bag.schema}))
    join_rows = _support_join(db, budget, deadline)
    if join_rows is EXHAUSTED or time.monotonic() > deadline:
        return EXHAUSTED

    # one constraint row per bag row, in each bag's canonical order, and
    # each bag's attribute positions in a join row (over the union schema)
    at = {a: k for k, a in enumerate(union_schema)}
    demands = []
    columns = []
    for bag in db.bags:
        rows = bag.rows()
        index = {r: len(demands) + k for k, r in enumerate(rows)}
        demands.extend(map(bag.entries.__getitem__, rows))
        key = _row_key([at[a] for a in bag.schema])
        columns.append([index[key(jrow)] for jrow in join_rows])
        if time.monotonic() > deadline:
            return EXHAUSTED
    users = [[] for _ in demands]
    hits = enumerate(zip(*columns))
    for _ in range(0, len(join_rows), 4096):
        for j, hit in itertools.islice(hits, 4096):
            for r in hit:
                users[r].append(j)
        if time.monotonic() > deadline:
            return EXHAUSTED
    return _System(union_schema, join_rows, demands, columns, users)


def _values(lb: int, ub: int, share: int):
    """The values lb..ub, nearest ``share`` first, the higher on a tie."""
    up, down = max(share, lb), min(share - 1, ub)
    while up <= ub or down >= lb:
        if up <= ub and (down < lb or up - share <= share - down):
            yield up
            up += 1
        else:
            yield down
            down -= 1


def _branch_row(by_free, rem):
    """(k, r): the constraint row r with the fewest free join rows k >= 1,
    then the smallest demand left, then the lowest index, found in the
    first non-empty bucket ``by_free[k]``; (0, None) when no row has a
    free join row."""
    for k in range(1, len(by_free)):
        bucket = by_free[k]
        if bucket:
            return k, min(zip(map(rem.__getitem__, bucket), bucket))[1]
    return 0, None


def _search(db, budget: OracleBudget, want_all: bool):
    """Complete fail-first search over join-row multiplicities: the
    solutions found (the first one only, unless ``want_all``), or
    EXHAUSTED, also once the solutions held pass ``max_join_support`` rows
    in all."""
    deadline = time.monotonic() + budget.max_seconds
    sys_ = _build_system(db, budget, deadline)
    if sys_ is EXHAUSTED:
        return EXHAUSTED
    demands, columns, users = sys_.demands, sys_.columns, sys_.users
    if not demands:  # no bag has a row: the empty bag is the witness
        return [Bag(sys_.union_schema, {})]
    # every demand is positive, so a row no join row touches cannot be met;
    # each join row adds once to every bag's total, so the totals must agree
    free = list(map(len, users))
    if (0 in free
            or len({sum(bag.entries.values()) for bag in db.bags}) > 1):
        return []

    rem = list(demands)
    value: list = [None] * len(sys_.join_rows)  # None while free
    trail = []  # the join rows placed, in order

    # by_free[k]: the constraint rows with k free join rows
    by_free = [set() for _ in range(max(free) + 1)]
    for r, k in enumerate(free):
        by_free[k].add(r)

    def place(j, v, touched):
        value[j] = v
        trail.append(j)
        for col in columns:
            r = col[j]
            rem[r] -= v
            k = free[r]
            free[r] = k - 1
            by_free[k].remove(r)
            by_free[k - 1].add(r)
            touched.append(r)

    def undo(mark):
        while len(trail) > mark:
            j = trail.pop()
            v = value[j]
            value[j] = None
            for col in columns:
                r = col[j]
                rem[r] += v
                k = free[r]
                free[r] = k + 1
                by_free[k].remove(r)
                by_free[k + 1].add(r)

    def upper(j):
        """The most join row j can take: its smallest remaining demand."""
        return min([rem[col[j]] for col in columns])

    def settle(touched):
        """Propagate from the touched constraint rows: a row with nothing
        left to meet sets its free join rows to 0, a row with one free
        join row sets it to what is left. False once some row cannot be
        met: below 0, short with no free join row, or wanting more than
        its free join rows can take."""
        while touched:
            r = touched.pop()
            d = rem[r]
            if d < 0:
                return False
            k = free[r]
            if not k:
                if d:
                    return False
                continue
            if d and k > 1:
                room = 0
                for j in users[r]:
                    if value[j] is None:
                        room += upper(j)
                        if room >= d:
                            break
                else:
                    return False
                continue
            for j in users[r]:
                if value[j] is None:
                    place(j, d, touched)
        return True

    solutions: list[Bag] = []
    stored = 0  # rows of the solutions held
    max_nodes, clock = budget.max_nodes, time.monotonic
    # the first propagation runs over every constraint row, the last first,
    # and reads the clock after each 4,096 of them
    for stop in range(len(demands), 0, -4096):
        if not settle(list(range(max(0, stop - 4096), stop))):
            return solutions
        if clock() > deadline:
            return EXHAUSTED
    # one frame per branch point: (join row, its values left to try, the
    # trail's length before them)
    frames = []
    nodes = 0
    while True:
        # branch on the constraint row that _branch_row picks, at its free
        # join row with the smallest upper bound
        k, r = _branch_row(by_free, rem)
        if not k:
            # every join row is placed and every demand met: the join's
            # rows over the union schema, with positive multiplicities
            solutions.append(Bag._trusted(sys_.union_schema, {
                row: m for row, m in zip(sys_.join_rows, value) if m}))
            if not want_all:
                return solutions
            stored += len(solutions[-1])
            if stored > budget.max_join_support:
                return EXHAUSTED
        else:
            d = rem[r]
            ubs = [(upper(j), j) for j in users[r] if value[j] is None]
            ub, j = min(ubs)
            lb = max(0, d - sum(u for u, _ in ubs) + ub)
            frames.append((j, _values(lb, ub, (2 * d + k) // (2 * k)),
                           len(trail)))
        # try the next value of the innermost branch point that has one
        while frames:
            j, values, mark = frames[-1]
            undo(mark)
            v = next(values, None)
            if v is None:
                frames.pop()
                continue
            nodes += 1
            if nodes > max_nodes or clock() > deadline:
                return EXHAUSTED
            touched: list = []
            place(j, v, touched)
            if settle(touched):
                break
        else:
            return solutions


def solve_feasibility(db, budget: Optional[OracleBudget] = None
                      ) -> Union[Bag, None, _Exhausted]:
    """A witness bag, None when provably infeasible, or EXHAUSTED."""
    sols = _search(db, budget or OracleBudget(), want_all=False)
    if sols is EXHAUSTED:
        return EXHAUSTED
    return sols[0] if sols else None


def enumerate_witnesses(db, budget: Optional[OracleBudget] = None
                        ) -> Union[list, _Exhausted]:
    """All distinct witnesses, by complete enumeration, each re-checked,
    or EXHAUSTED; the witnesses held count against ``max_join_support``
    rows. A database with no bags is refused with ValueError: every bag over the
    empty schema is a witness of it, so its witnesses are infinitely many."""
    if not db.bags:
        raise ValueError("a database with no bags has infinitely many "
                         "witnesses: every bag over the empty schema")
    sols = _search(db, budget or OracleBudget(), want_all=True)
    if sols is not EXHAUSTED and not all(check_witness(w, db) for w in sols):
        raise AssertionError("enumerated an invalid witness")
    return sols

