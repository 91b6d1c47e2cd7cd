"""Dynamic undirected simple graph backed by sorted adjacency arrays.

This is the authoritative dataset in a streaming setup: mutations arrive
as edge additions and deletions, and analytics code answers neighborhood
queries against the current state.  Neighbor lists are kept sorted so a
membership test costs O(log d) and intersecting two lists costs
O(min d * log max d) by binary search; inserting or removing a neighbor
costs O(d).

Single-writer model: mutations must be serialized by the caller.  Reads
between mutations are safe.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Iterator, Sequence


class Graph:
    """Mutable undirected simple graph with sorted neighbor lists."""

    __slots__ = ("_adj", "_edge_count")

    def __init__(self):
        self._adj: dict[int, list[int]] = {}
        self._edge_count = 0

    # ------------------------------------------------------------------
    # queries

    @property
    def edge_count(self) -> int:
        return self._edge_count

    @property
    def node_count(self) -> int:
        """Known nodes: the endpoints of present edges, plus the nodes that
        ``add_node`` added and no edge has touched since."""
        return len(self._adj)

    def nodes(self):
        """View of all known node ids."""
        return self._adj.keys()

    def adjacency(self, u: int) -> Sequence[int]:
        """Live sorted neighbor sequence of ``u`` (empty if unknown).

        Shared with the graph internals: treat as read-only and do not
        hold across mutations.  Hot paths use this to avoid copying.
        """
        return self._adj.get(u, ())

    def degree(self, u: int) -> int:
        return len(self._adj.get(u, ()))

    def has_edge(self, u: int, v: int) -> bool:
        """O(log d) membership test over the smaller neighbor list."""
        if u == v:
            return False
        a = self._adj.get(u)
        b = self._adj.get(v)
        if not a or not b:
            return False
        nbrs, target = (a, v) if len(a) <= len(b) else (b, u)
        i = bisect_left(nbrs, target)
        return i < len(nbrs) and nbrs[i] == target

    # ------------------------------------------------------------------
    # mutations

    def add_node(self, u: int) -> None:
        """Ensure ``u`` exists in the adjacency map (no edges implied)."""
        self._adj.setdefault(u, [])

    def add_edge(self, u: int, v: int) -> bool:
        """Insert undirected edge (u, v).

        Returns False without touching the graph on a self-loop or an
        already-present edge.  Each endpoint list is searched once: the
        slot that shows v absent from Γ(u) is where v goes.  A new
        endpoint gets its one-neighbor list directly, u before v.
        """
        if u == v:
            return False
        adj = self._adj
        a = adj.get(u)
        if a is None:
            adj[u] = [v]
        else:
            i = bisect_left(a, v)
            if i < len(a) and a[i] == v:
                return False
            a.insert(i, v)
        b = adj.get(v)
        if b is None:
            adj[v] = [u]
        else:
            b.insert(bisect_left(b, u), u)
        self._edge_count += 1
        return True

    def delete_edge(self, u: int, v: int) -> bool:
        """Remove undirected edge (u, v); False when absent.

        An endpoint whose last edge goes leaves the adjacency map, so a
        store's size follows its live edges (plus ``add_node``'s nodes):
        an estimator's sample graph stays as small as its sample.
        """
        a = self._adj.get(u)
        if not a:
            return False
        i = bisect_left(a, v)
        if i == len(a) or a[i] != v:
            return False
        del a[i]
        if not a:
            del self._adj[u]
        b = self._adj[v]
        del b[bisect_left(b, u)]
        if not b:
            del self._adj[v]
        self._edge_count -= 1
        return True

    # ------------------------------------------------------------------
    # iteration / construction

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each undirected edge once, as (smaller id, larger id)."""
        for u, nbrs in self._adj.items():
            for v in nbrs:
                if u < v:
                    yield (u, v)

    @classmethod
    def from_edges(cls, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph from edge pairs.  A self-loop or a pair already
        given (in either orientation) raises ``ValueError``, as the edge-list
        readers do."""
        g = cls()
        for u, v in edges:
            if not g.add_edge(u, v):
                if u == v:
                    raise ValueError(f"self-loop ({u}, {v}) in edge list")
                raise ValueError(f"duplicate edge {(min(u, v), max(u, v))} in edge list")
        return g

    def __eq__(self, other):
        # add_node's degree-0 entries behave like unknown nodes, so ignore them
        if not isinstance(other, Graph):
            return NotImplemented
        mine = {u: nbrs for u, nbrs in self._adj.items() if nbrs}
        theirs = {u: nbrs for u, nbrs in other._adj.items() if nbrs}
        return mine == theirs

    def __repr__(self):
        return f"Graph(nodes={self.node_count}, edges={self._edge_count})"

