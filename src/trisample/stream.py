"""Edge-event model and stream construction for dynamic-graph experiments.

A stream is an ordered sequence of ((u, v), beta) events, beta=+1 for an
addition and beta=-1 for a deletion.  A ``StreamSpec`` is the one way to
build one: its realizations are pure functions of its inputs and the seed,
so the same arguments produce byte-identical streams, and generated streams
are consistent by construction (they never add a present edge nor delete an
absent one).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

from .graph import _parse_endpoints, read_edge_list


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


def _canonical(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def _check_simple(edges) -> list[tuple[int, int]]:
    """Canonicalize an edge list, rejecting self-loops and duplicates."""
    out = []
    seen = set()
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop ({u}, {v}) in edge list")
        e = _canonical(u, v)
        if e in seen:
            raise ValueError(f"duplicate edge {e} in edge list")
        seen.add(e)
        out.append(e)
    return out


def _check_prob(name: str, p: float) -> None:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {p}")


def _shuffled(additions, rng) -> list[EdgeEvent]:
    """A shuffled copy of ``additions``; the order depends only on ``rng``
    and the length, not on what the list holds."""
    pool = list(additions)
    rng.shuffle(pool)
    return pool


def _with_edge_deletions(additions, p_e: float, p_d: float, seed: int) -> list[EdgeEvent]:
    rng = random.Random(seed)
    events = []
    present: set[tuple[int, int]] = set()
    for ev in _shuffled(additions, rng):
        events.append(ev)
        present.add((ev.u, ev.v))
        if rng.random() < p_e:
            for e in sorted(present):
                if rng.random() < p_d:
                    events.append(EdgeEvent(e[0], e[1], -1))
                    present.discard(e)
    return events


def _with_node_deletions(additions, p_e: float, p_d: float, seed: int) -> list[EdgeEvent]:
    rng = random.Random(seed)
    events = []
    present: set[tuple[int, int]] = set()
    for ev in _shuffled(additions, rng):
        events.append(ev)
        present.add((ev.u, ev.v))
        if rng.random() < p_e:
            # the nodes with at least one incident edge, in ascending order
            touched = sorted({x for e in present for x in e})
            marked = {node for node in touched if rng.random() < p_d}
            if not marked:
                continue
            for e in sorted(present):
                a, b = e
                if a in marked or b in marked:
                    events.append(EdgeEvent(a, b, -1))
                    present.discard(e)
    return events


def snapshot_diffs(snapshots) -> list[list[EdgeEvent]]:
    """Per-transition event chunks between consecutive snapshots.

    Chunk i transforms snapshot i-1 (the empty graph for i=0) into snapshot
    i: deletions first, then additions, each ascending by (u, v).  Snapshots
    must be simple edge lists.
    """
    chunks = []
    prev: set[tuple[int, int]] = set()
    for snap in snapshots:
        cur = set(_check_simple(snap))
        chunk = [EdgeEvent(u, v, -1) for u, v in sorted(prev - cur)]
        chunk += [EdgeEvent(u, v, 1) for u, v in sorted(cur - prev)]
        chunks.append(chunk)
        prev = cur
    return chunks


def write_stream_file(events, path) -> None:
    """One event per line: "u v +1" or "u v -1"."""
    with open(path, "w", encoding="utf-8") as fh:
        for ev in events:
            fh.write(f"{ev.u} {ev.v} {ev.beta:+d}\n")


def read_stream_file(path) -> list[EdgeEvent]:
    """Parse a stream file written by ``write_stream_file``.

    Blank lines and '#' comments are ignored; anything else must be
    "u v +1" or "u v -1" with unsigned ids and u != v.  A malformed line
    raises ``ValueError`` naming ``path:lineno``.
    """
    events = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 3 or parts[2] not in ("+1", "-1"):
                raise ValueError(f"{path}:{lineno}: expected 'u v +1|-1', got {raw.rstrip()!r}")
            u, v = _parse_endpoints(path, lineno, parts[0], parts[1])
            events.append(EdgeEvent(u, v, 1 if parts[2] == "+1" else -1))
    return events


def read_snapshot_dir(path) -> list[list[tuple[int, int]]]:
    """Read a directory of edge-list files as an ordered snapshot chain,
    consumed in lexicographic filename order."""
    files = sorted(p for p in Path(path).iterdir() if p.is_file())
    if not files:
        raise ValueError(f"no snapshot files in {path}")
    return [read_edge_list(p) for p in files]


_SPEC_KINDS = ("permutation", "edge-deletion", "node-deletion", "snapshot-diff", "file")


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
    - "snapshot-diff" (needs ``snapshots``): the ``snapshot_diffs`` chunks,
      flattened; replaying them from an empty graph reconstructs every
      snapshot at its chunk boundary.
    - "file" (needs ``path``): the events of a stream file.

    Edge lists must be simple: a self-loop or a duplicate pair, (v, u)
    included, raises ``ValueError`` at every ``realize``.  The
    snapshot-diff and file kinds ignore the seed.

    The first ``realize`` validates the input and builds its events once;
    later calls reuse them, so the inputs are read at that first call and
    not again.  Each call returns a new list: callers may mutate it.
    """

    kind: str
    edges: list | None = None
    snapshots: list | None = None
    path: str | None = None
    p_e: float = 0.0
    p_d: float = 0.0
    _base: list | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in _SPEC_KINDS:
            raise ValueError(f"unknown stream kind {self.kind!r}")
        if self.kind in ("permutation", "edge-deletion", "node-deletion") and self.edges is None:
            raise ValueError(f"stream kind {self.kind!r} requires edges")
        if self.kind == "snapshot-diff" and self.snapshots is None:
            raise ValueError("snapshot-diff stream requires snapshots")
        if self.kind == "file" and self.path is None:
            raise ValueError("file stream requires a path")
        _check_prob("p_e", self.p_e)
        _check_prob("p_d", self.p_d)

    def _build(self) -> list[EdgeEvent]:
        """The seed-independent events: one addition per edge of the
        validated edge list for the generated kinds, the whole stream for
        the snapshot-diff and file kinds."""
        if self.kind == "snapshot-diff":
            return [ev for chunk in snapshot_diffs(self.snapshots) for ev in chunk]
        if self.kind == "file":
            return read_stream_file(self.path)
        return [EdgeEvent(u, v, 1) for u, v in _check_simple(self.edges)]

    def realize(self, seed: int) -> list[EdgeEvent]:
        if self._base is None:
            self._base = self._build()
        if self.kind == "permutation":
            return _shuffled(self._base, random.Random(seed))
        if self.kind == "edge-deletion":
            return _with_edge_deletions(self._base, self.p_e, self.p_d, seed)
        if self.kind == "node-deletion":
            return _with_node_deletions(self._base, self.p_e, self.p_d, seed)
        return list(self._base)
