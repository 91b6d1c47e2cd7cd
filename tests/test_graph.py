import random

import pytest

from trisample import Graph, StreamSpec, read_edge_list, write_edge_list
from trisample.cli import main

from helpers import assert_graph_invariants, sorted_edges


def triangle_graph():
    return Graph.from_edges([(1, 2), (2, 3), (1, 3)])


def test_add_edge_first_insertion():
    g = Graph()
    assert g.add_edge(1, 2)
    assert tuple(g.adjacency(1)) == (2,)
    assert tuple(g.adjacency(2)) == (1,)
    assert g.edge_count == 1


def test_add_edge_duplicate_rejected():
    g = Graph()
    assert g.add_edge(1, 2)
    assert not g.add_edge(1, 2)
    assert not g.add_edge(2, 1)
    assert g.edge_count == 1


def test_add_edge_self_loop_rejected():
    g = Graph()
    assert not g.add_edge(3, 3)
    assert g.edge_count == 0


def test_rejected_mutations_add_no_nodes_and_keep_insertion_order():
    g = Graph()
    assert g.add_edge(2, 1)
    assert g.add_edge(3, 1)
    assert not g.add_edge(1, 2)
    assert not g.add_edge(4, 4)
    assert not g.delete_edge(5, 6)
    assert not g.delete_edge(1, 9)
    assert list(g.nodes()) == [2, 1, 3]
    assert g.delete_edge(1, 3)
    assert not g.delete_edge(3, 1)
    assert tuple(g.adjacency(1)) == (2,)
    assert g.edge_count == 1


def test_delete_edge_symmetric_orientation():
    g = Graph.from_edges([(1, 2)])
    assert g.delete_edge(2, 1)
    assert g.edge_count == 0
    assert tuple(g.adjacency(1)) == ()


def test_delete_absent_edge():
    g = Graph.from_edges([(1, 2)])
    assert not g.delete_edge(1, 3)
    assert g.edge_count == 1


def test_add_then_delete_restores_initial_graph():
    rng = random.Random(42)
    base = [(u, v) for u in range(30) for v in range(u + 1, 30) if rng.random() < 0.2]
    g = Graph.from_edges(base)
    extra = []
    while len(extra) < 1000:
        u, v = rng.randrange(200), rng.randrange(200)
        if u != v and not g.has_edge(u, v):
            assert g.add_edge(u, v)
            extra.append((u, v))
    rng.shuffle(extra)
    for u, v in extra:
        assert g.delete_edge(u, v)
    assert sorted_edges(g) == sorted_edges(Graph.from_edges(base))
    assert_graph_invariants(g)


def test_neighbors_triangle_and_unknown():
    g = triangle_graph()
    assert tuple(g.adjacency(2)) == (1, 3)
    assert tuple(g.adjacency(99)) == ()
    g.delete_edge(2, 3)
    assert tuple(g.adjacency(2)) == (1,)


def test_degree():
    g = Graph.from_edges([(0, i) for i in range(1, 6)])
    assert g.degree(0) == 5
    assert g.degree(1) == 1
    assert g.degree(42) == 0


def test_has_edge():
    g = triangle_graph()
    assert g.has_edge(1, 3)
    assert g.has_edge(3, 1)
    assert not g.has_edge(1, 4)
    assert not g.has_edge(1, 1)
    # a hub meets a leaf: Γ(u) alone answers from either end
    star = Graph.from_edges([(0, i) for i in range(1, 1001)])
    assert star.has_edge(0, 500)
    assert star.has_edge(500, 0)
    assert not star.has_edge(500, 501)
    assert not star.has_edge(0, 0)
    assert not star.has_edge(0, 5000)
    assert not star.has_edge(5000, 0)


def test_zero_degree_node_behaves_like_unknown():
    g = Graph.from_edges([(1, 2)])
    g.delete_edge(1, 2)
    assert g.node_count == 0
    assert g.degree(1) == 0
    assert tuple(g.adjacency(1)) == ()
    assert sorted_edges(g) == sorted_edges(Graph())


def test_invariants_after_random_mutation_sequence():
    rng = random.Random(17)
    g = Graph()
    present = set()
    for _ in range(5000):
        u, v = rng.randrange(40), rng.randrange(40)
        if u == v:
            continue
        e = (min(u, v), max(u, v))
        if e in present:
            assert g.delete_edge(u, v)
            present.discard(e)
        else:
            assert g.add_edge(u, v)
            present.add(e)
    assert g.edge_count == len(present)
    assert_graph_invariants(g)


def test_graph_of_rows_is_a_store_like_from_edges():
    # node 7 is isolated, and the rows are keyed out of id order
    rows = {3: [1, 5], 7: [], 1: [3, 5], 5: [1, 3, 9], 9: [5]}
    g = Graph._of_rows(rows)
    ref = Graph.from_edges([(3, 1), (3, 5), (1, 5), (5, 9)])
    assert g.edge_count == ref.edge_count == 4
    assert list(g.nodes()) == [3, 7, 1, 5, 9]
    assert_graph_invariants(g)
    # later mutations behave alike, the last edge of a node dropping it
    steps = [("add", 7, 1), ("add", 1, 3), ("delete", 9, 5), ("delete", 9, 5), ("add", 3, 3), ("delete", 1, 5)]
    for op, u, v in steps:
        mutate = Graph.add_edge if op == "add" else Graph.delete_edge
        assert mutate(g, u, v) == mutate(ref, u, v)
        assert g.edge_count == ref.edge_count
        assert sorted_edges(g) == sorted_edges(ref)
        assert_graph_invariants(g)
    assert list(g.nodes()) == [3, 7, 1, 5]
    assert tuple(g.adjacency(1)) == (3, 7)


def test_edge_list_round_trip(tmp_path):
    rng = random.Random(3)
    edges = []
    for _ in range(10_000):
        u, v = rng.randrange(1 << 32), rng.randrange(1 << 32)
        if u != v:
            edges.append((u, v))
    path = tmp_path / "edges.txt"
    write_edge_list(edges, path)
    assert read_edge_list(path) == edges


def test_edge_list_comments_and_blank_lines(tmp_path):
    path = tmp_path / "edges.txt"
    path.write_text("# comment\n% also comment\n\n1 2\n10 20\n")
    assert read_edge_list(path) == [(1, 2), (10, 20)]


@pytest.mark.parametrize(
    "content,fragment",
    [
        ("1 2 3\n", ":1:"),
        ("1\n", ":1:"),
        ("a b\n", "unsigned"),
        ("1 -2\n", "unsigned"),
        # int() accepts a sign, underscores and non-ASCII digits; ids do not
        ("+1 2\n", "unsigned"),
        ("1_0 3\n", "unsigned"),
        ("\u0661 2\n", "unsigned"),
        ("5 5\n", "self-loop"),
        ("ok ok\n2 2\n", ":1:"),
    ],
)
def test_edge_list_parse_errors_carry_line_numbers(tmp_path, content, fragment):
    path = tmp_path / "bad.txt"
    path.write_text(content)
    with pytest.raises(ValueError) as err:
        read_edge_list(path)
    assert fragment in str(err.value)


@pytest.mark.parametrize(
    "edges,message",
    [
        ([(1, 2), (3, 3)], "self-loop (3, 3) in edge list"),
        ([(1, 2), (2, 3), (1, 2)], "duplicate edge (1, 2) in edge list"),
        ([(4, 2), (2, 4)], "duplicate edge (2, 4) in edge list"),
    ],
)
def test_from_edges_rejects_what_a_stream_spec_rejects(edges, message):
    # one input policy: the store's builder refuses the pairs that an edge
    # list fed to a StreamSpec (and so to the CLI) is refused for, alike
    for build in (Graph.from_edges, lambda e: StreamSpec("permutation", edges=e).realize(0)):
        with pytest.raises(ValueError) as err:
            build(edges)
        assert str(err.value) == message


def test_write_edge_list_from_graph_sorted(tmp_path):
    # generate writes its graph as sorted canonical pairs, whatever order
    # the generator inserted them in
    path = tmp_path / "g.txt"
    args = ["--nodes", "80", "--seed-nodes", "10", "--edges-per-node", "3", "--gamma", "1.5"]
    assert main(["generate", "ba", *args, "--seed", "4", "--out", str(path)]) == 0
    edges = read_edge_list(path)
    assert len(edges) > 200
    assert edges == sorted(set(edges)) and all(u < v for u, v in edges)
