import itertools
import random

import pytest

from bagconsist import Bag
from bagconsist.flow import (
    KERNEL,
    FlowError,
    build_network,
    dinic,
    is_saturated,
    max_flow,
    suppress_middle_arc,
)


def test_kernel_selected():
    assert KERNEL == "python"


def test_dinic_simple_path():
    value, flows = dinic(3, [(0, 1, 5), (1, 2, 3)], 0, 2)
    assert value == 3
    assert flows == [3, 3]


def test_dinic_parallel_paths():
    arcs = [(0, 1, 4), (0, 2, 2), (1, 3, 3), (2, 3, 3)]
    value, flows = dinic(4, arcs, 0, 3)
    assert value == 5


def test_dinic_disconnected():
    value, flows = dinic(4, [(0, 1, 7)], 0, 3)
    assert value == 0
    assert flows == [0]


def test_dinic_big_integers():
    huge = 2 ** 130
    value, flows = dinic(3, [(0, 1, huge), (1, 2, huge - 1)], 0, 2)
    assert value == huge - 1


def test_dinic_matches_brute_force_min_cut():
    rng = random.Random(555)
    for _ in range(100):
        n = rng.randint(2, 8)
        arcs = []
        for _ in range(rng.randint(1, 16)):
            u, v = rng.sample(range(n), 2)
            arcs.append((u, v, rng.randint(0, 20)))
        value, flows = dinic(n, arcs, 0, n - 1)
        # a feasible flow of that value ...
        net_out = [0] * n
        for (u, v, c), f in zip(arcs, flows):
            assert 0 <= f <= c
            net_out[u] += f
            net_out[v] -= f
        assert net_out[0] == value == -net_out[n - 1]
        assert all(x == 0 for x in net_out[1:n - 1])
        # ... equal to the capacity of a minimum cut
        cuts = []
        for k in range(n - 1):
            for chosen in itertools.combinations(range(1, n - 1), k):
                side = {0, *chosen}
                cuts.append(sum(c for u, v, c in arcs
                                if u in side and v not in side))
        assert value == min(cuts)


def test_build_network_shape(paper_pair):
    r, s = paper_pair
    net = build_network(r, s)
    assert net.left == (("1", "2"), ("2", "2"))
    assert net.right == (("2", "1"), ("2", "2"))
    assert len(net.middles) == 4  # both left rows join both right rows
    assert net.middle_cap == 2
    assert net.total_source_capacity() == net.total_sink_capacity() == 2


def test_max_flow_saturates_consistent_pair(paper_pair):
    r, s = paper_pair
    net = build_network(r, s)
    flow = max_flow(net)
    assert flow.value == 2
    assert is_saturated(net, flow)


def test_unsaturated_on_inconsistent_pair():
    r = Bag(("A", "B"), {("1", "2"): 2})
    s = Bag(("B", "C"), {("2", "1"): 1})
    net = build_network(r, s)
    assert not is_saturated(net, max_flow(net))


def test_suppress_middle_arc(paper_pair):
    r, s = paper_pair
    net = build_network(r, s)
    smaller = suppress_middle_arc(net, ("1", "2", "1"))
    assert len(smaller.middles) == 3
    with pytest.raises(FlowError):
        suppress_middle_arc(net, ("9", "9", "9"))


def test_validate_rejects_bogus_flow(paper_pair):
    r, s = paper_pair
    net = build_network(r, s)
    flow = max_flow(net)
    bad = type(flow)(value=flow.value + 1,
                     source_flows=flow.source_flows,
                     sink_flows=flow.sink_flows,
                     middle_flows=flow.middle_flows)
    with pytest.raises(FlowError):
        is_saturated(net, bad)
