"""The two-bag consistency network and its exact max-flow solver.

The network has one layer of nodes per support tuple of each bag; a middle
arc per join tuple carries the witness multiplicity. Two bags are
consistent iff the network admits a saturated integral flow. Production
code decides this from marginals and builds witnesses by the
northwest-corner rule (``consistency``); this module is the independent
reference checker the tests hold them to. The network, its Dinic max-flow
kernel and the flow checks all live here; capacities and flows are Python
ints, so arbitrary-precision multiplicities pass through exactly.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

from .bags import Bag, Row, _row_key

KERNEL = "python"


class FlowError(ValueError):
    pass


@dataclass(frozen=True)
class FlowNetwork:
    """Source -> left tuples -> right tuples -> sink, with one middle arc
    per join tuple. Middle arcs carry a finite stand-in capacity: no flow
    can exceed the smaller total mass of the two bags."""
    left_schema: tuple
    right_schema: tuple
    join_schema: tuple
    left: tuple            # rows of the first bag's support, canonical order
    right: tuple           # rows of the second bag's support
    left_caps: tuple       # multiplicities, aligned with `left`
    right_caps: tuple
    middles: tuple         # (left_index, right_index, join_row), canonical
    middle_cap: int

    @property
    def num_nodes(self) -> int:
        return 2 + len(self.left) + len(self.right)

    def total_source_capacity(self) -> int:
        return sum(self.left_caps)

    def total_sink_capacity(self) -> int:
        return sum(self.right_caps)

    def arcs(self):
        """All arcs as (tail, head, capacity) with node numbering
        0 = source, 1..L = left, L+1..L+R = right, last = sink."""
        off = 1 + len(self.left)
        sink = self.num_nodes - 1
        out = [(0, 1 + i, c) for i, c in enumerate(self.left_caps)]
        out += [(off + j, sink, c) for j, c in enumerate(self.right_caps)]
        out += [(1 + li, off + ri, self.middle_cap)
                for li, ri, _ in self.middles]
        return out


@dataclass(frozen=True)
class Flow:
    """A feasible assignment on a network's arcs."""
    value: int
    source_flows: tuple
    sink_flows: tuple
    middle_flows: tuple  # aligned with the network's middle arcs


def build_network(r: Bag, s: Bag) -> FlowNetwork:
    left = tuple(r.rows())
    right = tuple(s.rows())
    join_schema = tuple(sorted(set(r.schema) | set(s.schema)))
    joined = r.support().join(s.support())
    lpos = {row: i for i, row in enumerate(left)}
    rpos = {row: i for i, row in enumerate(right)}
    rkey = _row_key(joined._positions(r.schema))
    skey = _row_key(joined._positions(s.schema))
    middles = [(lpos[rkey(jrow)], rpos[skey(jrow)], jrow)
               for jrow in joined.rows()]
    return FlowNetwork(
        left_schema=r.schema,
        right_schema=s.schema,
        join_schema=join_schema,
        left=left,
        right=right,
        left_caps=tuple(r.entries[row] for row in left),
        right_caps=tuple(s.entries[row] for row in right),
        middles=tuple(middles),
        middle_cap=min(sum(r.entries.values()), sum(s.entries.values())),
    )


_INF = float("inf")


def dinic(num_nodes, arcs, source, sink):
    """Exact integral max flow.

    ``arcs`` is a list of (tail, head, capacity). Returns (value, flows)
    with ``flows[i]`` the flow pushed through ``arcs[i]``.
    """
    head = []
    cap = []
    adj = [[] for _ in range(num_nodes)]
    for u, v, c in arcs:
        adj[u].append(len(head))
        head.append(v)
        cap.append(c)
        adj[v].append(len(head))
        head.append(u)
        cap.append(0)

    total = 0
    level = [0] * num_nodes
    it = [0] * num_nodes

    def bfs():
        for i in range(num_nodes):
            level[i] = -1
        level[source] = 0
        queue = [source]
        qi = 0
        while qi < len(queue):
            u = queue[qi]
            qi += 1
            for a in adj[u]:
                v = head[a]
                if cap[a] > 0 and level[v] < 0:
                    level[v] = level[u] + 1
                    queue.append(v)
        return level[sink] >= 0

    def dfs(u, pushed):
        if u == sink:
            return pushed
        while it[u] < len(adj[u]):
            a = adj[u][it[u]]
            v = head[a]
            if cap[a] > 0 and level[v] == level[u] + 1:
                got = dfs(v, min(pushed, cap[a]))
                if got > 0:
                    cap[a] -= got
                    cap[a ^ 1] += got
                    return got
            it[u] += 1
        return 0

    while bfs():
        for i in range(num_nodes):
            it[i] = 0
        while True:
            pushed = dfs(source, _INF)
            if pushed == 0:
                break
            total += pushed

    flows = [cap[2 * i + 1] for i in range(len(arcs))]
    return total, flows


def max_flow(net: FlowNetwork) -> Flow:
    """An exact integral maximum flow of the network."""
    value, flows = dinic(net.num_nodes, net.arcs(), 0, net.num_nodes - 1)
    nl, nr = len(net.left), len(net.right)
    return Flow(
        value=value,
        source_flows=tuple(flows[:nl]),
        sink_flows=tuple(flows[nl:nl + nr]),
        middle_flows=tuple(flows[nl + nr:]),
    )


def is_saturated(net: FlowNetwork, flow: Flow) -> bool:
    """True iff every source- and sink-incident arc is at capacity.

    Raises FlowError if the assignment is not a valid flow of the network.
    """
    _validate_flow(net, flow)
    return (flow.source_flows == net.left_caps
            and flow.sink_flows == net.right_caps)


def _validate_flow(net: FlowNetwork, flow: Flow) -> None:
    if (len(flow.source_flows) != len(net.left)
            or len(flow.sink_flows) != len(net.right)
            or len(flow.middle_flows) != len(net.middles)):
        raise FlowError("flow shape does not match the network")
    for f, c in zip(flow.source_flows, net.left_caps):
        if not 0 <= f <= c:
            raise FlowError("source arc over capacity")
    for f, c in zip(flow.sink_flows, net.right_caps):
        if not 0 <= f <= c:
            raise FlowError("sink arc over capacity")
    for f in flow.middle_flows:
        if not 0 <= f <= net.middle_cap:
            raise FlowError("middle arc over capacity")
    left_out = [0] * len(net.left)
    right_in = [0] * len(net.right)
    for (li, ri, _), f in zip(net.middles, flow.middle_flows):
        left_out[li] += f
        right_in[ri] += f
    if list(flow.source_flows) != left_out or list(flow.sink_flows) != right_in:
        raise FlowError("flow conservation violated")
    if flow.value != sum(flow.source_flows):
        raise FlowError("flow value inconsistent with source arcs")


def suppress_middle_arc(net: FlowNetwork, join_row: Row) -> FlowNetwork:
    """Structural copy of the network without the middle arc of one join
    tuple."""
    join_row = tuple(str(v) for v in join_row)
    kept = tuple(m for m in net.middles if m[2] != join_row)
    if len(kept) == len(net.middles):
        raise FlowError("no middle arc for join tuple %r" % (join_row,))
    return replace(net, middles=kept)
