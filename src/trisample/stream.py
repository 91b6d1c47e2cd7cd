"""Edge-event model, stream construction and the text formats.

A stream is an ordered sequence of ((u, v), beta) events, beta=+1 for an
addition and beta=-1 for a deletion.  A ``StreamSpec`` is the one way to
build one: its realizations are pure functions of its inputs and the seed,
so the same arguments produce byte-identical streams, and generated streams
are consistent by construction (they never add a present edge nor delete an
absent one).  The readers turn files into edge lists and events for a spec
to replay, through one record parser; no code here touches a graph store.

The generated kinds share one shuffle, ``_shuffle``, Fisher–Yates with the
draws of ``random.Random.shuffle``.  At ``p_e`` = 0 every generated kind is
the permutation: the shuffle runs on a copy of the addition events.  A
positive ``p_e`` runs it on the additions' positions and gathers the events;
the present graph is a numpy bool mask over canonical edge ranks (ascending
(u, v) order), from a rank table built once per spec at its first
realization, and no tuple is allocated per addition.

The input rules of every layer live here too, each returning what it
checked or raising ``ValueError`` naming the field: ``positive_int`` (a
count), ``probability`` ([0, 1]), ``rate`` (a sampling fraction, (0, 1])
and ``canonical`` (an edge's key, its endpoints in order).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import islice
from operator import lt
from pathlib import Path
from typing import NamedTuple

import numpy as np


@dataclass(frozen=True, slots=True)
class EdgeEvent:
    """One stream element: edge (u, v) added (beta=+1) or deleted (beta=-1)."""

    u: int
    v: int
    beta: int

    def __post_init__(self):
        if self.u == self.v:
            raise ValueError(f"self-loop event on node {self.u}")
        if self.beta not in (1, -1):
            raise ValueError(f"beta must be +1 or -1, got {self.beta}")


_new_event = object.__new__
_set_u, _set_v, _set_beta = EdgeEvent.u.__set__, EdgeEvent.v.__set__, EdgeEvent.beta.__set__


def _events(pairs, beta: int) -> list[EdgeEvent]:
    """One event of sign ``beta`` per pair of ``pairs``, already checked to
    be distinct endpoints: the fields are set through the slots, so
    ``EdgeEvent``'s checks do not run a second time."""
    out = []
    append = out.append
    for u, v in pairs:
        ev = _new_event(EdgeEvent)
        _set_u(ev, u)
        _set_v(ev, v)
        _set_beta(ev, beta)
        append(ev)
    return out


def positive_int(name: str, value) -> int:
    """``value`` as the int it equals, at least 1: 3.0 runs as 3."""
    if not (value >= 1 and float(value).is_integer()):
        raise ValueError(f"{name} must be >= 1 and an integer, got {value}")
    return int(value)


def probability(name: str, p: float) -> float:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {p}")
    return p


def rate(name: str, x: float) -> float:
    if not 0.0 < x <= 1.0:
        raise ValueError(f"{name} must be in (0, 1], got {x}")
    return x


def canonical(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def _check_simple(edges) -> list[tuple[int, int]]:
    """Canonicalize an edge list, rejecting self-loops and duplicates.  A
    pair that is already a canonical tuple is kept as given, not copied, so
    a sorted edge list costs no second set of tuples."""
    out = []
    seen = set()
    for e in edges:
        u, v = e
        if u == v:
            raise ValueError(f"self-loop ({u}, {v}) in edge list")
        if not (u < v and type(e) is tuple):
            e = canonical(u, v)
        if e in seen:
            raise ValueError(f"duplicate edge {e} in edge list")
        seen.add(e)
        out.append(e)
    return out


class _Ranks(NamedTuple):
    """A deletion spec's edges by canonical rank, their position in
    ascending (u, v) order: ``rank[i]`` is the rank of the i-th validated
    edge, or ``rank`` is None when every edge is its own rank, and
    ``edges[r]`` is the canonical tuple of rank r.  ``ends`` holds, for
    node deletion only, each rank's endpoints as node indices in ascending
    id order, and the node count."""

    rank: np.ndarray | None
    edges: list
    ends: tuple | None


def _rank_table(edges, with_ends: bool) -> _Ranks:
    """The ranks of ``edges``, the validated canonical tuples, reused as
    they are; an edge list already in ascending order is its own table."""
    m = len(edges)
    if all(map(lt, edges, islice(edges, 1, None))):
        rank, by_rank = None, edges
    else:
        order = sorted(range(m), key=edges.__getitem__)
        by_rank = [edges[i] for i in order]
        rank = np.empty(m, np.intp)
        rank[order] = np.arange(m)
    ends = None
    if with_ends:
        nodes = sorted({x for e in by_rank for x in e})
        index = dict(zip(nodes, range(len(nodes))))
        us = np.fromiter((index[u] for u, _ in by_rank), np.intp, m)
        vs = np.fromiter((index[v] for _, v in by_rank), np.intp, m)
        ends = (us, vs, len(nodes))
    return _Ranks(rank, by_rank, ends)


def _edge_victims(present, p_d: float, rng, ranks: _Ranks) -> list[int]:
    """Each present edge (``present`` holds their ascending ranks), in
    ascending order, deleted with probability p_d."""
    rand = rng.random
    return present[[i for i in range(len(present)) if rand() < p_d]].tolist()


def _node_victims(present, p_d: float, rng, ranks: _Ranks) -> list[int]:
    """The present edges (``present`` holds their ascending ranks) touching
    a node marked with probability p_d; the nodes with an incident edge are
    visited in ascending id order."""
    us, vs, n_nodes = ranks.ends
    pu, pv = us[present], vs[present]
    rand = rng.random
    hit = np.zeros(n_nodes, bool)
    hit[pu] = hit[pv] = True
    hit[hit] = [rand() < p_d for _ in range(np.count_nonzero(hit))]
    return present[hit[pu] | hit[pv]].tolist()


# the deletion kinds and their deletion rules
_VICTIMS = {"edge-deletion": _edge_victims, "node-deletion": _node_victims}


def _shuffle(seq, rng) -> None:
    """Shuffle ``seq`` in place by Fisher–Yates from the last slot down.

    Slot i swaps with an index below n = i + 1 drawn from ``getrandbits``
    by the rejection rule of ``random.Random._randbelow`` (k =
    n.bit_length() bits, redrawn while the value is >= n), so it is the
    permutation ``rng.shuffle`` makes, with the same draws, for every seed
    and length, without depending on how the standard library implements
    ``shuffle``.  The slots run one bit-length band at a time: every slot i
    with 2^(k-1) <= i + 1 < 2^k draws k bits, so k is fixed for the band
    and a draw is kept once it is <= i.  It depends only on the seed and
    the length, not on what ``seq`` holds."""
    bits = rng.getrandbits
    top = len(seq) - 1
    for k in range(len(seq).bit_length(), 1, -1):
        for i in range(top, (1 << (k - 1)) - 2, -1):
            j = bits(k)
            while j > i:
                j = bits(k)
            seq[i], seq[j] = seq[j], seq[i]
        top = (1 << (k - 1)) - 2


def _generate(additions, ranks: _Ranks, p_e: float, victims, p_d: float, rng) -> list[EdgeEvent]:
    """A shuffled copy of ``additions``, ``p_e`` positive: a ``p_e`` coin
    follows each addition, and a won coin deletes the edges that
    ``victims(present, p_d, rng, ranks)`` picks from the ascending ranks of
    the present edges.

    The one shuffle runs over the additions' positions, a numpy int array
    shuffled through a memoryview, and the events are gathered from it: the order of
    ``_shuffle`` on the events themselves.  The present graph is a bool
    mask over the canonical edge ranks: each run of additions up to a won
    coin is appended as one slice and set in the mask, the victims are read
    from the mask in ascending rank, the same order as the sorted edges,
    and their deletion events are built from the canonical tuples."""
    pos = np.arange(len(additions), dtype=np.intc)
    view = memoryview(pos)  # reads and writes the positions as Python ints
    _shuffle(view, rng)
    order = list(map(additions.__getitem__, view))
    # each addition's rank, in stream order: its position when the edges
    # came in (u, v) order
    arrived = pos if ranks.rank is None else ranks.rank[pos]
    mask = np.zeros(len(order), bool)
    by_rank = ranks.edges
    rand = rng.random
    events: list[EdgeEvent] = []
    start = 0
    for i in range(len(order)):
        if rand() < p_e:
            stop = i + 1
            events += order[start:stop]
            mask[arrived[start:stop]] = True
            start = stop
            gone = victims(np.flatnonzero(mask), p_d, rng, ranks)
            if gone:
                events += _events(map(by_rank.__getitem__, gone), -1)
                mask[gone] = False
    events += order[start:]
    return events


def snapshot_diffs(snapshots) -> list[EdgeEvent]:
    """The stream that walks a chain of snapshots from the empty graph.

    Each transition from snapshot i-1 (the empty graph for i=0) to snapshot
    i emits its deletions first, then its additions, each ascending by
    (u, v); replaying the stream rebuilds each snapshot at the end of its
    transition.  Snapshots must be simple edge lists.
    """
    events = []
    prev: set[tuple[int, int]] = set()
    for snap in snapshots:
        cur = set(_check_simple(snap))
        events += _events(sorted(prev - cur), -1)
        events += _events(sorted(cur - prev), 1)
        prev = cur
    return events


def _records(path, usage: str, comments: str, ok=None):
    """Yield ``(u, v, fields)`` for each record line of a text file.

    Blank lines and lines starting with a character of ``comments`` are
    skipped.  A record has as many fields as ``usage`` and passes ``ok``;
    its first two fields are node ids, unsigned decimal integers (ASCII
    digits only) that differ.  A bad line raises ``ValueError`` naming
    ``path:lineno``, and a file that is not UTF-8 text one naming ``path``.
    A byte-order mark that starts the file is skipped.
    """
    width = len(usage.split())
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line[0] in comments:
                    continue
                fields = line.split()
                if len(fields) != width or (ok is not None and not ok(fields)):
                    raise ValueError(f"{path}:{lineno}: expected '{usage}', got {raw.rstrip()!r}")
                a, b = fields[0], fields[1]
                if not (a.isascii() and a.isdigit() and b.isascii() and b.isdigit()):
                    raise ValueError(f"{path}:{lineno}: node ids must be unsigned integers")
                u, v = int(a), int(b)
                if u == v:
                    raise ValueError(f"{path}:{lineno}: self-loop on node {u}")
                yield u, v, fields
        except UnicodeDecodeError:  # raised by reading the file, the only decode here
            raise ValueError(f"{path}: not UTF-8 text") from None


def read_edge_list(path) -> list[tuple[int, int]]:
    """Parse an edge-list file: one "u v" pair per line; '#' and '%' start
    comments."""
    return [(u, v) for u, v, _ in _records(path, "u v", "#%")]


def write_edge_list(edges, path) -> None:
    """Write edge pairs one per line as "u v", in the order given, so
    read(write(x)) round-trips exactly."""
    with open(path, "w", encoding="utf-8") as fh:
        for u, v in edges:
            fh.write(f"{u} {v}\n")


def read_stream_file(path) -> list[EdgeEvent]:
    """Parse a stream file written by ``write_stream_file``: one "u v +1" or
    "u v -1" event per line; '#' starts a comment."""
    return [
        EdgeEvent(u, v, int(f[2]))
        for u, v, f in _records(path, "u v +1|-1", "#", lambda f: f[2] in ("+1", "-1"))
    ]


def write_stream_file(events, path) -> None:
    """One event per line: "u v +1" or "u v -1"."""
    with open(path, "w", encoding="utf-8") as fh:
        for ev in events:
            fh.write(f"{ev.u} {ev.v} {ev.beta:+d}\n")


def read_snapshot_dir(path) -> list[list[tuple[int, int]]]:
    """Read a directory's edge-list files, in lexicographic filename order,
    as a snapshot chain, skipping hidden files (a name beginning with '.')."""
    files = sorted(p for p in Path(path).iterdir() if p.is_file() and not p.name.startswith("."))
    if not files:
        raise ValueError(f"no snapshot files in {path}")
    return [read_edge_list(p) for p in files]


_SPEC_KINDS = ("permutation", *_VICTIMS, "events")


@dataclass
class StreamSpec:
    """Recipe for producing an event sequence; ``realize(seed)`` builds it.

    ``kind`` selects the model:

    - "permutation" (needs ``edges``): every input edge added exactly once,
      in a uniformly random order determined by the seed.
    - "edge-deletion" (needs ``edges``, ``p_e``, ``p_d``): permuted
      additions with interleaved edge deletions.  After each addition, with
      probability ``p_e`` a deletion event runs: every edge currently
      present is deleted independently with probability ``p_d``, emitted in
      ascending (u, v) order.  Each original edge arrives exactly once, so
      deleted edges stay deleted.
    - "node-deletion" (needs ``edges``, ``p_e``, ``p_d``): permuted
      additions with interleaved node deletions.  After each addition, with
      probability ``p_e`` a deletion event runs: each node currently having
      at least one incident edge is marked independently with probability
      ``p_d`` (visited in ascending id order), then every present edge
      touching a marked node is deleted, in ascending (u, v) order.  An
      edge shared by two marked nodes is emitted once.
    - "events" (needs ``events``): the given events, replayed as they are
      for every seed, such as a stream file from ``read_stream_file`` or a
      snapshot chain from ``snapshot_diffs``.

    Edge lists must be simple: a self-loop or a duplicate pair, (v, u)
    included, raises ``ValueError`` at every ``realize``.  Each kind takes
    only its own inputs: ``events`` for the events kind and ``edges`` for
    the others, and ``p_e`` and ``p_d`` shape only the two deletion models;
    an input the kind does not read raises ``ValueError``.  At ``p_e`` = 0
    a deletion kind runs no deletion event: it is the permutation, bytes and
    draws alike, whatever ``p_d`` is.

    The first ``realize`` validates the input and builds its events once,
    and, when ``p_e`` is positive, the rank table of its edges; later calls
    reuse them, so the inputs are read at that first call and not again.
    Each call returns a new list: callers may mutate it.
    """

    kind: str
    edges: list | None = None
    events: list | None = None
    p_e: float = 0.0
    p_d: float = 0.0
    _base: list | None = field(default=None, init=False, repr=False, compare=False)
    _ranks: _Ranks | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in _SPEC_KINDS:
            raise ValueError(f"unknown stream kind {self.kind!r}")
        needs, other = ("events", "edges") if self.kind == "events" else ("edges", "events")
        if getattr(self, other) is not None:
            raise ValueError(f"stream kind {self.kind!r} takes no {other}")
        if getattr(self, needs) is None:
            raise ValueError(f"stream kind {self.kind!r} requires {needs}")
        probability("p_e", self.p_e)
        probability("p_d", self.p_d)
        if self.kind not in _VICTIMS and (self.p_e or self.p_d):
            raise ValueError(f"stream kind {self.kind!r} takes no p_e or p_d")

    def _build(self) -> tuple[list[EdgeEvent], _Ranks | None]:
        """The seed-independent events: one addition per edge of the
        validated edge list for the generated kinds, a copy of the given
        events for the events kind; and, for a positive ``p_e`` only, the
        rank table of the validated edges."""
        if self.kind == "events":
            return list(self.events), None
        edges = _check_simple(self.edges)
        ranks = _rank_table(edges, self.kind == "node-deletion") if self.p_e else None
        return _events(edges, 1), ranks

    def realize(self, seed: int) -> list[EdgeEvent]:
        if self._base is None:
            self._base, self._ranks = self._build()
        if self.kind == "events":
            return list(self._base)
        rng = random.Random(seed)
        if self.p_e:
            return _generate(self._base, self._ranks, self.p_e, _VICTIMS[self.kind], self.p_d, rng)
        order = list(self._base)
        _shuffle(order, rng)
        return order
