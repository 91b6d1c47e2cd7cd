"""README's library quickstart runs as written."""

import re
from pathlib import Path

from trisample import exact_triangles

README = Path(__file__).resolve().parent.parent / "README.md"


def quickstart() -> str:
    """The first ``python`` block under "## Library quickstart"."""
    section = README.read_text(encoding="utf-8").split("\n## Library quickstart\n", 1)[1]
    return re.search(r"^```python\n(.*?)^```$", section, re.S | re.M).group(1)


def test_quickstart_runs_and_its_stretch_replays_end_where_one_replay_does(capsys):
    ns = {}
    exec(compile(quickstart(), str(README), "exec"), ns)
    # the one replay prints "count estimate", then each stretch prints
    # "position count estimate"
    whole, *stretches = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert len(stretches) > 1
    assert int(stretches[-1][0]) == len(ns["events"])
    assert int(whole[0]) == exact_triangles(ns["base"])
    assert stretches[-1][1:] == whole
