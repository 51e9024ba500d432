"""The value types copy, deep-copy and pickle to equal values, ``EXHAUSTED``
to itself; ``Bag`` and ``Hypergraph`` refuse assignment and deletion of
any name; and a spawn process pool decides databases and returns their
answers."""
import copy
import dataclasses
import multiprocessing
import pickle
from concurrent.futures import ProcessPoolExecutor

import pytest

from bagconsist import (
    EXHAUSTED,
    Bag,
    BagDatabase,
    Hypergraph,
    OracleBudget,
    SafeDeletionOp,
    encode_3dct,
    find_bad_witness,
    global_consistent,
    solve_feasibility,
    tseitin_counterexample,
)
from bagconsist.consistency import GLOBAL_NO, GLOBAL_UNKNOWN, GLOBAL_YES
from bagconsist.hypergraph import VERTEX_DELETION, cycle_hypergraph

ONES = [[1, 1], [1, 1]]
# a feasible 3 x 3 instance whose search needs more than one node
R = [[6, 3, 3], [6, 2, 5], [6, 3, 5]]
C = [[5, 4, 5], [5, 1, 2], [8, 3, 6]]
F = [[4, 3, 5], [2, 5, 6], [8, 0, 6]]


def _values():
    """One of each value type, and the yes, no and unknown reports."""
    bag = Bag(["A", "B"], {("1", "2"): 3, ("2", "2"): 10 ** 30})
    h = Hypergraph("ABC", ["AB", "BC"])
    yes = global_consistent(encode_3dct(ONES, ONES, ONES))
    no = global_consistent(tseitin_counterexample(cycle_hypergraph(4)))
    unknown = global_consistent(encode_3dct(R, C, F), OracleBudget(max_nodes=1))
    assert (yes.global_status, no.global_status, unknown.global_status) == (
        GLOBAL_YES, GLOBAL_NO, GLOBAL_UNKNOWN)
    # a four-cycle with a pendant edge and a covered one needs deletions
    bad = find_bad_witness(Hypergraph(
        "ABCDE", ["AB", "BC", "CD", "DA", "AE", "A"]))
    assert bad.ops
    return {
        "Bag": bag,
        "Hypergraph": h,
        "BagDatabase": BagDatabase(h, (bag, Bag(["B", "C"], {("2", "x"): 1}))),
        "report-yes": yes,
        "report-no": no,
        "report-unknown": unknown,
        "JoinTree": h.join_tree(),
        "BadWitness": bad,
        "SafeDeletionOp": SafeDeletionOp(VERTEX_DELETION, vertex="A"),
        "OracleBudget": OracleBudget(max_nodes=7, max_seconds=0.5),
    }


VALUES = _values()
PROTOCOLS = range(pickle.HIGHEST_PROTOCOL + 1)


@pytest.mark.parametrize("name", sorted(VALUES))
def test_round_trips(name):
    value = VALUES[name]
    assert copy.copy(value) == value
    assert copy.deepcopy(value) == value
    for protocol in PROTOCOLS:
        assert pickle.loads(pickle.dumps(value, protocol)) == value


def test_exhausted_round_trips_to_itself():
    assert copy.copy(EXHAUSTED) is EXHAUSTED
    assert copy.deepcopy(EXHAUSTED) is EXHAUSTED
    for protocol in PROTOCOLS:
        assert pickle.loads(pickle.dumps(EXHAUSTED, protocol)) is EXHAUSTED


@pytest.mark.parametrize("value, fields", [
    (VALUES["Bag"], ("schema", "entries")),
    (VALUES["Hypergraph"], ("vertices", "edges")),
])
def test_fields_refuse_assignment_and_deletion(value, fields):
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
    # a name that is not a field is refused the same way
    with pytest.raises(dataclasses.FrozenInstanceError):
        value.other = 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        del value.other


def test_equal_bags_hash_equal():
    a = Bag(["B", "A"], [(("1", "2"), 1), (("1", "2"), 2)])
    b = Bag(["A", "B"], {(1, 2): 3})
    assert a == b and hash(a) == hash(b)
    assert len({a, b, copy.deepcopy(a)}) == 1
    assert a != Bag(["A", "B"], {(1, 2): 4})


def test_spawn_process_pool():
    ones = encode_3dct(ONES, ONES, ONES)
    with ProcessPoolExecutor(
            max_workers=1,
            mp_context=multiprocessing.get_context("spawn")) as pool:
        yes = pool.submit(solve_feasibility, ones)
        no = pool.submit(solve_feasibility,
                         tseitin_counterexample(cycle_hypergraph(4)))
        spent = pool.submit(solve_feasibility, encode_3dct(R, C, F),
                            OracleBudget(max_nodes=1))
        report = pool.submit(global_consistent, ones)
        assert yes.result(timeout=60) == solve_feasibility(ones)
        assert no.result(timeout=60) is None
        assert spent.result(timeout=60) is EXHAUSTED
        assert report.result(timeout=60) == global_consistent(ones)
