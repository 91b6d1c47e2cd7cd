"""Edge-event model, stream construction and the text formats.

A stream is an ordered sequence of ((u, v), beta) events, beta=+1 for an
addition and beta=-1 for a deletion.  A ``StreamSpec`` is the one way to
build one: its realizations are pure functions of its inputs and the seed,
so the same arguments produce byte-identical streams, and generated streams
are consistent by construction (they never add a present edge nor delete an
absent one).  The readers turn files into edge lists and events for a spec
to replay, through one record parser; no code here touches a graph store.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path


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


def _canonical(u: int, v: int) -> tuple[int, int]:
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
            e = _canonical(u, v)
        if e in seen:
            raise ValueError(f"duplicate edge {e} in edge list")
        seen.add(e)
        out.append(e)
    return out


def _check_prob(name: str, p: float) -> None:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {p}")


def _edge_victims(present, p_d: float, rng) -> list[tuple[int, int]]:
    """Each present edge (``present`` is sorted), in ascending order,
    deleted with probability p_d."""
    return [e for e in present if rng.random() < p_d]


def _node_victims(present, p_d: float, rng) -> list[tuple[int, int]]:
    """The present edges (``present`` is sorted) touching a node marked with
    probability p_d; the nodes with an incident edge are visited in
    ascending id order."""
    touched = sorted({x for e in present for x in e})
    marked = {node for node in touched if rng.random() < p_d}
    if not marked:
        return []
    return [e for e in present if e[0] in marked or e[1] in marked]


# the generated kinds and their deletion rules (None: additions only)
_VICTIMS = {"permutation": None, "edge-deletion": _edge_victims, "node-deletion": _node_victims}


def _generate(additions, p_e: float, victims, p_d: float, seed: int) -> list[EdgeEvent]:
    """A shuffled copy of ``additions``.  When ``p_e`` is positive, a
    ``p_e`` coin follows each addition, and a won coin deletes the edges
    that ``victims(present, p_d, rng)`` picks from the sorted present edges.

    The shuffle is Fisher–Yates from the last slot down.  Slot i swaps with
    an index below n = i + 1 drawn from ``getrandbits`` by the rejection
    rule of ``random.Random._randbelow`` (k = n.bit_length() bits, redrawn
    while the value is >= n), so it is the permutation ``rng.shuffle``
    makes, with the same draws, for every seed and length, without depending
    on how the standard library implements ``shuffle``.  The slots run one
    bit-length band at a time: every slot i with 2^(k-1) <= i + 1 < 2^k
    draws k bits, so k is fixed for the band and a draw is kept once it is
    <= i.  It depends only on the seed and the length, not on what the list
    holds."""
    rng = random.Random(seed)
    order = list(additions)
    bits = rng.getrandbits
    top = len(order) - 1
    for k in range(len(order).bit_length(), 1, -1):
        for i in range(top, (1 << (k - 1)) - 2, -1):
            j = bits(k)
            while j > i:
                j = bits(k)
            order[i], order[j] = order[j], order[i]
        top = (1 << (k - 1)) - 2
    if not p_e:
        return order
    events = []
    present: list[tuple[int, int]] = []  # sorted, as of the last won coin
    batch: list[tuple[int, int]] = []  # the additions since then
    for ev in order:
        events.append(ev)
        batch.append((ev.u, ev.v))
        if rng.random() < p_e:
            # Timsort keeps the sorted survivors as one run and merges into it
            present += batch
            present.sort()
            batch = []
            gone = victims(present, p_d, rng)
            if gone:
                events += _events(gone, -1)
                dead = set(gone)
                present = [e for e in present if e not in dead]
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
    ``path:lineno``.
    """
    width = len(usage.split())
    with open(path, "r", encoding="utf-8") as fh:
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
    """Read a directory of edge-list files as an ordered snapshot chain,
    consumed in lexicographic filename order."""
    files = sorted(p for p in Path(path).iterdir() if p.is_file())
    if not files:
        raise ValueError(f"no snapshot files in {path}")
    return [read_edge_list(p) for p in files]


_SPEC_KINDS = (*_VICTIMS, "events")


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
    an input the kind does not read raises ``ValueError``.

    The first ``realize`` validates the input and builds its events once;
    later calls reuse them, so the inputs are read at that first call and
    not again.  Each call returns a new list: callers may mutate it.
    """

    kind: str
    edges: list | None = None
    events: list | None = None
    p_e: float = 0.0
    p_d: float = 0.0
    _base: list | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in _SPEC_KINDS:
            raise ValueError(f"unknown stream kind {self.kind!r}")
        needs, other = ("events", "edges") if self.kind == "events" else ("edges", "events")
        if getattr(self, other) is not None:
            raise ValueError(f"stream kind {self.kind!r} takes no {other}")
        if getattr(self, needs) is None:
            raise ValueError(f"stream kind {self.kind!r} requires {needs}")
        _check_prob("p_e", self.p_e)
        _check_prob("p_d", self.p_d)
        if not _VICTIMS.get(self.kind) and (self.p_e or self.p_d):
            raise ValueError(f"stream kind {self.kind!r} takes no p_e or p_d")

    def _build(self) -> list[EdgeEvent]:
        """The seed-independent events: one addition per edge of the
        validated edge list for the generated kinds, a copy of the given
        events for the events kind."""
        if self.kind == "events":
            return list(self.events)
        return _events(_check_simple(self.edges), 1)

    def realize(self, seed: int) -> list[EdgeEvent]:
        if self._base is None:
            self._base = self._build()
        if self.kind in _VICTIMS:
            return _generate(self._base, self.p_e, _VICTIMS[self.kind], self.p_d, seed)
        return list(self._base)
