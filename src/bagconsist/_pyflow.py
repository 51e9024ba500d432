"""Pure-Python Dinic max-flow kernel.

Capacities and flows are Python ints, so arbitrary-precision multiplicities
pass through untouched.
"""
from __future__ import annotations

IMPLEMENTATION = "python"


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


_INF = float("inf")
