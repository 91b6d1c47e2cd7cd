"""Dynamic undirected simple graph backed by sorted adjacency arrays.

This is the authoritative dataset in a streaming setup: mutations arrive
as edge additions and deletions, and analytics code answers neighborhood
queries against the current state.  Neighbor lists are kept sorted so a
membership test costs O(log d) and intersecting two lists costs
O(min d * log max d) by binary search; inserting or removing a neighbor
costs O(d).

Single-writer model: mutations must be serialized by the caller.  Reads
between mutations are safe.

``TimeIndexedGraph`` keeps the final store of a deletion-free stream and
answers, for any other order of the same event objects, which edges had
arrived before a given position, so such a replay needs no store of its
own.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import attrgetter
from typing import Iterable, Iterator, Sequence

import numpy as np

_BLOCK = 1 << 12  # events per numpy block while indexing, which bounds the transients
_U, _V = attrgetter("u"), attrgetter("v")


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


class TimeIndexedGraph:
    """The final graph of a deletion-free stream, indexed by arrival.

    It holds the id-sorted rows of the store that replayed the stream, laid
    end to end in node id order, an int32 array with the edge id of each
    row slot, and the sorted ``id()``s of the stream's event objects; an
    edge's id is the rank of its event's ``id()``.  A list of those objects
    is held too, so the ids stay unique.

    A stream made of exactly those objects, each once, adds every final
    edge once, so it is consistent and ends on the same graph; ``ordered``
    tells such a stream apart and returns its arrival order.  The ids and
    the slot map are built by the first ``ordered`` call, so they cost
    nothing until a second stream comes, and a match swaps the held list
    for the newer one, so one list stays alive, not two.  Beyond the store
    and the list, the index costs 4 bytes per slot, 8 per edge and 24 per
    node.  It is built in numpy blocks of ``_BLOCK`` events, and the
    largest transient is one sorted key per slot, 4 bytes while the square
    of the node count fits in an int32.
    """

    __slots__ = ("_adj", "_events", "_nodes", "_node_ids", "_ids", "_start", "_slot_edge")

    def __init__(self, g: Graph, events):
        """Take over ``g``, the store after replaying the deletion-free
        stream ``events`` from the empty graph.  Node ids must fit in an
        int64, or this raises ``OverflowError``."""
        if g.edge_count != len(events):
            raise ValueError("the store does not hold one edge per event")
        self._adj = g._adj
        self._events = events
        self._nodes = sorted(self._adj)
        self._node_ids = np.fromiter(self._nodes, np.int64, len(self._nodes))
        self._ids = self._start = self._slot_edge = None

    def ordered(self, events) -> "ArrivalOrder | None":
        """The graph as ``events`` builds it, or None unless ``events`` is
        exactly the indexed event objects, each once, in any order.  The
        arrival of each edge is found in numpy blocks: ``searchsorted`` of
        the ``id()``s in the sorted ones.  On a match ``events`` is held in
        place of the list held so far, so it must not change while the
        index is in use."""
        if self._ids is None:
            self._ids = np.fromiter(map(id, self._events), np.intp, len(self._events))
            self._ids.sort()
        ids = self._ids
        m = len(ids)
        if len(events) != m:
            return None
        arrival = np.full(m, -1, np.int32)
        for start in range(0, m, _BLOCK):
            block = np.fromiter(map(id, events[start : start + _BLOCK]), np.intp)
            edge = np.searchsorted(ids, block)
            np.minimum(edge, m - 1, out=edge)
            if not np.array_equal(ids[edge], block):
                return None
            arrival[edge] = np.arange(start, start + len(block), dtype=np.int32)
        if m and arrival.min() < 0:  # some object came twice, so another never did
            return None
        self._events = events  # the same objects, so the older list can go
        if self._slot_edge is None:
            self._map_slots()
        return ArrivalOrder(self, arrival)

    def _map_slots(self) -> None:
        """The edge id of each row slot, and where each row starts."""
        events, ids = self._events, self._ids
        m, n = len(events), len(self._nodes)
        rank = self._node_ids.searchsorted
        key_type = np.int32 if n * n < 2**31 else np.int64

        def keys_of(block):
            us = rank(np.fromiter(map(_U, block), np.int64, len(block))).astype(key_type)
            vs = rank(np.fromiter(map(_V, block), np.int64, len(block))).astype(key_type)
            return us * n + vs, vs * n + us

        slot_edge = np.empty(2 * m, np.int32)
        # a slot's key is (its row's rank, its neighbor's rank) as one
        # number; sorted, the keys are the slots in row order
        keys = np.empty(2 * m, key_type)
        for first in range(0, m, _BLOCK):
            uv, vu = keys_of(events[first : first + _BLOCK])
            keys[first : first + len(uv)] = uv
            keys[m + first : m + first + len(vu)] = vu
        keys.sort()
        for first in range(0, m, _BLOCK):
            block = events[first : first + _BLOCK]
            edge = ids.searchsorted(np.fromiter(map(id, block), np.intp, len(block)))
            for key in keys_of(block):
                slot_edge[keys.searchsorted(key)] = edge
        self._start = np.append(keys.searchsorted(np.arange(n, dtype=key_type) * n), 2 * m)
        self._slot_edge = slot_edge


class ArrivalOrder:
    """One arrival order of a ``TimeIndexedGraph``'s edges: Γ_i(a), the
    neighbors of a once the events before position i have arrived, are the
    slots of a's final row whose arrival is below i, in id order."""

    __slots__ = ("_adj", "_nodes", "_start", "_slot_edge", "_arrival")

    def __init__(self, index: TimeIndexedGraph, arrival: np.ndarray):
        self._adj = index._adj
        self._nodes = index._nodes
        self._start = index._start
        self._slot_edge = index._slot_edge
        self._arrival = arrival

    def slots(self, u: int) -> tuple[Sequence[int], np.ndarray]:
        """u's final neighbors in id order, and the arrival of each."""
        row = self._adj[u]
        start = self._start[bisect_left(self._nodes, u)]
        return row, self._arrival[self._slot_edge[start : start + len(row)]]

    def arrived(self, u: int, v: int, i: int) -> bool:
        """Whether (u, v) is a final edge whose event comes before position
        ``i``; the shorter of the two rows is bisected, as ``has_edge`` does."""
        adj = self._adj
        a = adj.get(u)
        b = adj.get(v)
        if a is None or b is None:
            return False
        if len(a) > len(b):
            u, v, a = v, u, b
        s = bisect_left(a, v)
        if s == len(a) or a[s] != v:
            return False
        return self._arrival[self._slot_edge[self._start[bisect_left(self._nodes, u)] + s]] < i
