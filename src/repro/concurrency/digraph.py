"""The two graph questions this library asks, over a plain adjacency dict.

A conflict graph is a small digraph of transaction ids, and all anyone
wants of it is *a topological order, if there is one* and *one cycle,
if there is one*.  A graph here is a mapping ``node -> iterable of
successors`` in which every node is a key (a ``dict`` of ``dict``\\ s in
practice, so iteration order — and with it every answer — is the
insertion order, never the hash order).
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping, TypeVar

N = TypeVar("N", bound=Hashable)

Adjacency = Mapping[N, Iterable[N]]


def topological_order(graph: Adjacency[N]) -> list[N] | None:
    """A topological order of ``graph`` (Kahn), or None when it has a cycle."""
    indegree = dict.fromkeys(graph, 0)
    for successors in graph.values():
        for node in successors:
            indegree[node] += 1
    ready = [node for node, degree in indegree.items() if degree == 0]
    order = []
    while ready:
        node = ready.pop()
        order.append(node)
        for successor in graph[node]:
            indegree[successor] -= 1
            if indegree[successor] == 0:
                ready.append(successor)
    return order if len(order) == len(indegree) else None


def find_cycle(graph: Adjacency[N]) -> list[N] | None:
    """The nodes of one cycle of ``graph``, in cycle order, or None.

    Depth-first from every unvisited node in key order, on an explicit
    stack (histories run to thousands of transactions); the first back
    edge met closes the cycle that is returned.
    """
    finished: set[N] = set()
    for root in graph:
        if root in finished:
            continue
        path = [root]
        position = {root: 0}
        pending = [iter(graph[root])]
        while pending:
            for successor in pending[-1]:
                if successor in position:
                    return path[position[successor] :]
                if successor not in finished:
                    position[successor] = len(path)
                    path.append(successor)
                    pending.append(iter(graph[successor]))
                    break
            else:
                pending.pop()
                node = path.pop()
                del position[node]
                finished.add(node)
    return None
