"""Dynamic undirected simple graph backed by sorted adjacency arrays.

This is the authoritative dataset in a streaming setup: mutations arrive
as edge additions and deletions, and analytics code answers neighborhood
queries against the current state.  Neighbor lists are kept sorted so a
membership test costs O(log d) and intersecting two lists costs
O(min d * log max d) by binary search; inserting or removing a neighbor
costs O(d).

Single-writer model: mutations must be serialized by the caller.  Reads
between mutations are safe.

``TimeIndexedGraph`` indexes the final graph of a deletion-free stream by
arrival, built from the stream's events alone in numpy, and answers, for
that order or any other order of the same event objects, which edges had
arrived before a given position, so such a replay needs no store.  It also
counts, for each position, the triangles whose last edge arrives there,
the exact tracker's per-event trace, by ``triangle_slots``, the one lister.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import attrgetter
from operator import index as _int
from typing import Iterable, Iterator, Sequence

import numpy as np

_WEDGES = 1 << 12  # fewest wedges and out-slots per numpy block in ``triangle_slots``
_GOLD = np.uint32(0x9E3779B1)  # odd multiplier of the key hash in ``triangle_slots``' filter
_U, _V, _BETA = attrgetter("u"), attrgetter("v"), attrgetter("beta")


def _distinct(a: np.ndarray) -> np.ndarray:
    """The distinct values of ``a``, sorted: ``np.unique`` without the
    ``numpy.ma`` import it pulls in."""
    a = np.sort(a)
    keep = np.empty(len(a), bool)
    keep[:1] = True
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


def triangle_slots(start: np.ndarray, nbrs: np.ndarray):
    """Each triangle of a graph once, as the slots of its three edges.

    Row r of the nodes ranked 0..n-1 is ``nbrs[start[r]:start[r + 1]]``, in
    rank order.  Each edge points from the endpoint of lower (degree, rank)
    to the other; a triangle is a pair of out-neighbors y < z of its lowest
    corner x whose edge (y, z) a search of y·n + z in the slot keys row·n +
    neighbor finds (Chiba and Nishizeki, SIAM J. Comput. 1985), and there
    are O(m^1.5) such wedges; a one-hash Bloom filter of the keys turns most
    of those that close nothing away before the search, whose unpredictable
    branches cost most.  The set-up runs on the call, and the iterator
    returned yields the slots of (x, y), (x, z) and (y, z) found, as three
    arrays, per block of rows with about m/32 wedges and out-slots but at
    least ``_WEDGES``, so a block's transients stay near 2 bytes per edge.
    """
    n = len(start) - 1
    deg = np.diff(start)
    level = deg * n + np.arange(n)  # (degree, rank) as one number, then its place
    level = np.sort(level).searchsorted(level).astype(np.int32)
    # the out-edge slots, row by row
    out = np.flatnonzero(np.repeat(level, deg) < level[nbrs]).astype(np.int32)
    del level
    key_type = np.int32 if n * n <= 2**31 else np.int64
    keys = np.repeat(np.arange(n, dtype=key_type) * n, deg)
    keys += nbrs
    ostart = out.searchsorted(start.astype(np.int32))  # where each row's out-slots start
    c = np.diff(ostart)
    work = np.cumsum(c * (c - 1) // 2 + c)  # wedges and out-slots up to each row
    block = max(_WEDGES, len(nbrs) >> 6)
    # a one-hash Bloom filter of the keys, 8 to 16 bits each, built a block at a time
    size = min(32, max(5, (len(keys) << 3).bit_length()))
    shift, bits = np.uint32(32 - size), np.zeros(1 << (size - 5), np.uint32)
    for i in range(0, len(keys), block):
        h = keys[i : i + block].astype(np.uint32) * _GOLD >> shift
        np.bitwise_or.at(bits, h >> 5, np.uint32(1) << (h & 31))

    def blocks():
        x0 = 0
        while x0 < n:
            base = int(work[x0 - 1]) if x0 else 0
            x1 = max(x0 + 1, int(work.searchsorted(base + block, "right")))
            t0, t1 = ostart[x0], ostart[x1]
            # each out-slot t pairs with the later out-slots of its row
            k = np.repeat(ostart[x0 + 1 : x1 + 1], c[x0:x1]) - np.arange(t0 + 1, t1 + 1)
            first = np.repeat(np.arange(t0, t1), k)
            second = first + 1 + np.arange(len(first)) - np.repeat(np.cumsum(k) - k, k)
            a, b = out[first], out[second]
            q = nbrs[a].astype(key_type) * n + nbrs[b]
            h = q.astype(np.uint32) * _GOLD >> shift
            sel = np.flatnonzero(bits[h >> 5] >> (h & 31) & 1)  # the wedges the filter passes
            a, b, q = a[sel], b[sel], q[sel]
            p = keys.searchsorted(q)
            np.minimum(p, len(keys) - 1, out=p)
            hit = keys[p] == q
            yield a[hit], b[hit], p[hit]
            x0 = x1
    return blocks()


class Graph:
    """Mutable undirected simple graph with sorted neighbor lists."""

    __slots__ = ("_adj",)

    def __init__(self):
        self._adj: dict[int, list[int]] = {}

    # ------------------------------------------------------------------
    # queries

    @property
    def edge_count(self) -> int:
        """Present edges, counted from the rows when read: O(nodes)."""
        return sum(map(len, self._adj.values())) // 2

    @property
    def node_count(self) -> int:
        """Known nodes: the endpoints of present edges, plus isolated rows
        a generator handed over through ``_of_rows`` and no edge touched."""
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
        """O(log d) membership test: one bisect of Γ(u) for v.  Rows are
        symmetric, so Γ(u) alone answers; a row never holds its own node,
        and an unknown node's row is empty."""
        a = self._adj.get(u, ())
        i = bisect_left(a, v)
        return i < len(a) and a[i] == v

    # ------------------------------------------------------------------
    # mutations

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
        return True

    def delete_edge(self, u: int, v: int) -> bool:
        """Remove undirected edge (u, v); False when absent.

        An endpoint whose last edge goes leaves the adjacency map, so a
        store's nodes are its edges' endpoints, plus any isolated rows
        handed over through ``_of_rows``: an estimator's sample graph
        stays as small as its sample.
        """
        a = self._adj.get(u, ())
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

    @classmethod
    def _of_rows(cls, adj: dict[int, list[int]]) -> "Graph":
        """A graph holding ``adj`` itself, node → sorted neighbor list.
        Nothing is checked: the rows must be symmetric, strictly sorted and
        free of self-loops."""
        g = cls()
        g._adj = adj
        return g

    def __repr__(self):
        return f"Graph(nodes={self.node_count}, edges={self.edge_count})"


class TimeIndexedGraph:
    """The final graph of a deletion-free stream, indexed by arrival and
    built from the stream's events alone.

    Nodes are named by rank in id order.  The index holds the sorted
    ``id()``s of the stream's event objects, an edge's id being the rank of
    its event's ``id()``, and every node's final row: its neighbors as int32
    ranks in id order, the rows laid end to end in rank order, with the
    int32 edge id of each row slot and where each row starts.  A list of the
    event objects is held too, so the ids stay unique.  That costs 8 bytes
    per slot, 8 per edge and 16 per node, beyond the list, and each arrival
    order adds 4 bytes per slot.  ``ordered`` proves an order by one sort of
    its ``id()``s, whose transients peak at 20 bytes per event.

    A stream made of exactly those objects, each once, adds every final
    edge once, so it is consistent and ends on the same graph; ``ordered``
    tells such a stream apart and returns its arrival order.
    """

    __slots__ = ("_events", "_ids", "nodes", "_start", "_nbrs", "_slot_edge")

    @classmethod
    def of(cls, events) -> "ArrivalOrder | None":
        """Index the graph that ``events`` build and return their own arrival
        order over it, whose ``index`` serves later streams; None when
        ``events`` hold a deletion, repeat an object or an edge, or name a
        node that is not an integer within int64, or when the packed slot
        keys below would not fit in an int64 (n² · m > 2^63 for n nodes and
        m edges).

        A slot's key is its row's rank, its neighbor's rank and its edge id
        packed into one int64, (row · n + neighbor) · m + edge, so sorting
        the keys in place lays the slots out row by row, each row in id
        order, with each slot's edge id as the key modulo m.  The largest
        transient is that key array, 16 bytes per edge, and everything but
        the index is freed on return.
        """
        m = len(events)
        if -1 in map(_BETA, events):
            return None
        index = cls()
        index._ids, arrival = _by_id(events)
        keys = np.empty(2 * m, np.int64)
        try:  # ``_int`` refuses a float, which int64 would truncate onto another node
            keys[:m] = np.fromiter(map(_int, map(_U, events)), np.int64, m)
            keys[m:] = np.fromiter(map(_int, map(_V, events)), np.int64, m)
        except (OverflowError, TypeError):
            return None
        nodes = _distinct(np.concatenate((_distinct(keys[:m]), _distinct(keys[m:]))))
        n = len(nodes)
        if n * n * m > 2**63:
            return None
        # by position: u's rank * n + v's rank, then v's rank * n + u's rank
        keys[:m] = nodes.searchsorted(keys[:m])
        keys[m:] = nodes.searchsorted(keys[m:])
        keys[:m] *= n
        keys[:m] += keys[m:]
        keys[m:] *= n
        keys[m:] += keys[:m] // n
        keys *= m
        edge = np.empty(m, np.int32)  # position -> edge id
        edge[arrival] = np.arange(m, dtype=np.int32)
        keys[:m] += edge
        keys[m:] += edge
        del edge
        keys.sort()
        slot_edge = np.empty(2 * m, np.int32)
        np.remainder(keys, m, out=slot_edge, casting="unsafe")
        keys //= m
        if (keys[1:] == keys[:-1]).any():  # an edge, or an object, twice: a duplicate addition
            return None
        index._events = events
        index.nodes = nodes
        index._start = keys.searchsorted(np.arange(n + 1) * n)
        keys %= max(n, 1)
        index._nbrs = keys.astype(np.int32)
        index._slot_edge = slot_edge
        del keys
        return ArrivalOrder(index, arrival)

    def ordered(self, events) -> "ArrivalOrder | None":
        """The graph as ``events`` builds it, or None unless ``events`` is
        exactly the indexed event objects, each once, in any order: that
        holds exactly when their ``id()``s, sorted, are the index's.  On a
        match ``events`` is held in place of the list held so far, so it
        must not change while the index is in use."""
        if len(events) != len(self._ids):
            return None
        ids, arrival = _by_id(events)
        if not np.array_equal(ids, self._ids):
            return None
        self._events = events  # the same objects, so the older list can go
        return ArrivalOrder(self, arrival)


def _by_id(events) -> tuple[np.ndarray, np.ndarray]:
    """The ``id()``s of ``events`` in increasing order, and the int32
    position in ``events`` of each, by one sort."""
    got = np.fromiter(map(id, events), np.intp, len(events))
    arrival = got.argsort().astype(np.int32)
    return got[arrival], arrival


class ArrivalOrder:
    """One arrival order of a ``TimeIndexedGraph``'s edges: Γ_i(a), the
    neighbors of a once the events before position i have arrived, are the
    slots of a's row whose arrival is below i, in id order, named by rank
    (``index.nodes[rank]`` is the node id).

    ``arrival`` holds each slot's arrival, and ``views`` holds zero-copy
    ``memoryview``s of the index's ``nodes``, row starts and neighbor ranks
    and of ``arrival``, whose items read as Python ints: a node's row is
    ``start[r]:start[r + 1]`` for r = ``bisect_left(nodes, u)``, and a
    neighbor's slot in it is one more ``bisect_left`` of ``nbrs``."""

    __slots__ = ("index", "arrival", "views")

    def __init__(self, index: TimeIndexedGraph, arrival: np.ndarray):
        """``arrival`` holds each edge's position; the order keeps each
        slot's, so a row's arrivals are one slice."""
        self.index = index
        self.arrival = arrival[index._slot_edge]
        self.views = tuple(map(memoryview, (index.nodes, index._start, index._nbrs, self.arrival)))

    def closings(self) -> np.ndarray:
        """For each position, the number of triangles whose last edge
        arrives there, as int32, which an ``ExactTracker`` records as h: each
        triangle ``triangle_slots`` lists, at its slots' last arrival."""
        arrival = self.arrival
        blocks = triangle_slots(self.index._start, self.index._nbrs)
        counts = np.zeros(len(arrival) // 2, np.int32)  # not under the set-up's transients
        for a, b, c in blocks:
            np.add.at(counts, np.maximum(np.maximum(arrival[a], arrival[b]), arrival[c]), 1)
        return counts
