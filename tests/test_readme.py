"""README's library quickstart blocks run as written."""

import re
from pathlib import Path

from trisample import (
    EsdEstimator, ExactTracker, Graph, StreamSpec, er_graph, exact_triangles, replay,
)

README = Path(__file__).resolve().parent.parent / "README.md"


def quickstart() -> list[str]:
    """The ``python`` blocks under "## Library quickstart", in order."""
    section = README.read_text(encoding="utf-8").split("\n## Library quickstart\n", 1)[1]
    return re.findall(r"^```python\n(.*?)^```$", section.split("\n## ", 1)[0], re.S | re.M)


def test_quickstart_runs_and_its_stretch_replays_end_where_one_replay_does(capsys):
    ns = {}
    exec(compile(quickstart()[0], str(README), "exec"), ns)
    # the one replay prints "count estimate", then each stretch prints
    # "position count estimate"
    whole, *stretches = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert len(stretches) > 1
    assert int(stretches[-1][0]) == len(ns["events"])
    assert int(whole[0]) == exact_triangles(ns["base"])
    assert stretches[-1][1:] == whole


def test_external_store_loop_ends_where_one_replay_does():
    # the second block calls process_event before each mutation of its own
    # store; it takes the names it uses from the first block
    edges = list(er_graph(200, 0.1, seed=1).edges())
    events = StreamSpec("edge-deletion", edges=edges, p_e=0.01, p_d=0.1).realize(2)
    assert any(ev.beta == -1 for ev in events)
    ns = {"events": events, "g": Graph(), "tracker": ExactTracker(), "est": EsdEstimator(alpha=0.05, seed=3)}
    exec(compile(quickstart()[1], str(README), "exec"), ns)
    g, tracker, est = Graph(), ExactTracker(), EsdEstimator(alpha=0.05, seed=3)
    replay(events, g, [est], tracker)
    assert (ns["tracker"].count, ns["est"].estimate()) == (tracker.count, est.estimate())
    assert sorted(ns["g"].edges()) == sorted(g.edges())
