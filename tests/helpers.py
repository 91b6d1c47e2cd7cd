"""Shared test utilities: independent oracles and a scripted RNG."""

from itertools import combinations

from trisample import Graph


def brute_force_triangles(g: Graph) -> int:
    """Triple-enumeration triangle count, independent of the intersection
    oracle.  Counts each u < v < w triple whose three edges all exist."""
    nodes = sorted(g.nodes())
    count = 0
    for i, u in enumerate(nodes):
        for j in range(i + 1, len(nodes)):
            v = nodes[j]
            if not g.has_edge(u, v):
                continue
            for k in range(j + 1, len(nodes)):
                w = nodes[k]
                if g.has_edge(u, w) and g.has_edge(v, w):
                    count += 1
    return count


def brute_force_common_neighbors(g: Graph, u: int, v: int) -> int:
    return len(set(g.adjacency(u)) & set(g.adjacency(v)))


def complete_graph_edges(n: int) -> list:
    return list(combinations(range(n), 2))


def assert_graph_invariants(g: Graph) -> None:
    """Full-scan check: sortedness, no self-loops/duplicates, symmetry, and
    edge_count = half the degree sum."""
    total = 0
    for u in g.nodes():
        nbrs = list(g.adjacency(u))
        assert nbrs == sorted(set(nbrs)), f"neighbor list of {u} not strictly sorted"
        assert u not in nbrs, f"self-loop on {u}"
        for v in nbrs:
            assert g.has_edge(v, u), f"asymmetric edge ({u}, {v})"
        total += len(nbrs)
    assert total == 2 * g.edge_count


def replay(events, g=None):
    """Apply a stream to a graph, asserting consistency (no duplicate adds,
    no absent deletes).  Returns the graph."""
    if g is None:
        g = Graph()
    for ev in events:
        if ev.beta == 1:
            assert g.add_edge(ev.u, ev.v), f"duplicate addition ({ev.u}, {ev.v})"
        else:
            assert g.delete_edge(ev.u, ev.v), f"absent deletion ({ev.u}, {ev.v})"
    return g


class ScriptedRng:
    """Deterministic stand-in for random.Random fed from fixed sequences."""

    def __init__(self, randoms=(), randranges=()):
        self._randoms = list(randoms)
        self._randranges = list(randranges)

    def random(self) -> float:
        return self._randoms.pop(0)

    def getrandbits(self, k: int) -> int:
        """The next scripted index, served as the k-bit draw that
        ``randrange`` would have accepted for it."""
        v = self._randranges.pop(0)
        assert 0 <= v < 2**k, f"scripted value {v} does not fit in {k} bits"
        return v
