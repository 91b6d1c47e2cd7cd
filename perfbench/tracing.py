"""Traced replay: ``run_experiment``'s per-event order, with each call into
a package layer timed from outside.

Spans sit around this driver's calls only, so a layer's time includes the
queries it makes itself: ESD's neighbor probes on the shared graph count as
``esd``, and each baseline's private sample graph counts as that baseline.
Self time is summed per layer with the timer's own cost per span removed.
The estimates must equal an untraced ``run_experiment`` with the same seed,
which the benchmark checks.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field

from trisample import ExactTracker, Graph, derive_seed

LAYERS = ("stream", "graph", "oracle", "esd", "doulion", "triest")


def timer_cost(n: int = 200_000) -> float:
    """Seconds one empty span adds to the time it records."""
    pc = time.perf_counter
    total = 0.0
    for _ in range(n):
        t0 = pc()
        total += pc() - t0
    return total / n


@dataclass
class LayerTimes:
    """Summed span seconds and span counts per layer, plus per-layer work
    counters, over every traced replication."""

    seconds: dict = field(default_factory=lambda: dict.fromkeys(LAYERS, 0.0))
    spans: Counter = field(default_factory=Counter)
    counts: Counter = field(default_factory=Counter)

    def self_seconds(self, cost: float) -> dict:
        return {k: max(0.0, self.seconds[k] - self.spans[k] * cost) for k in LAYERS}


@dataclass
class TracedReplication:
    truth: int
    finals: list[float]


def traced_replication(stream, est_specs, seed: int, r: int, acc: LayerTimes, traces: list):
    """Replay replication ``r`` of ``run_experiment`` with base seed ``seed``.

    The tracker is applied after an addition and before a deletion, as in
    the harness; trace rows are appended on replication 0 at the harness's
    default stride.
    """
    pc = time.perf_counter
    sec = acc.seconds
    t0 = pc()
    events = stream.realize(derive_seed(seed, "stream", r))
    sec["stream"] += pc() - t0
    acc.spans["stream"] += 1

    feeds = []
    for i, spec in enumerate(est_specs):
        t0 = pc()
        est = spec.build(derive_seed(seed, spec.kind, i, r))
        sec[spec.kind] += pc() - t0
        acc.spans[spec.kind] += 1
        feeds.append((spec.kind, est, est.process_event if spec.kind == "esd" else est.process))

    g = Graph()
    tracker = ExactTracker()
    stride = max(1, len(events) // 500)
    last = len(events)
    closures = 0
    for i, ev in enumerate(events, start=1):
        if ev.beta == 1:
            t0 = pc()
            ok = g.add_edge(ev.u, ev.v)
            t1 = pc()
            tracker.apply(ev, g)
            t2 = pc()
            sec["graph"] += t1 - t0
            sec["oracle"] += t2 - t1
        else:
            t0 = pc()
            tracker.apply(ev, g)
            t1 = pc()
            ok = g.delete_edge(ev.u, ev.v)
            t2 = pc()
            sec["oracle"] += t1 - t0
            sec["graph"] += t2 - t1
        if not ok:
            raise ValueError(f"inconsistent stream at event {i}: {ev}")
        for layer, est, feed in feeds:
            if layer == "esd":
                before = est.t_est
                t0 = pc()
                feed(ev, g)
                sec["esd"] += pc() - t0
                closures += est.t_est != before
            else:
                t0 = pc()
                feed(ev)
                sec[layer] += pc() - t0
        if r == 0 and (i % stride == 0 or i == last):
            for spec, (_, est, _) in zip(est_specs, feeds):
                traces.append((i, tracker.count, spec.name, est.estimate()))

    n = len(events)
    acc.spans["graph"] += n
    acc.spans["oracle"] += n
    for layer, *_ in feeds:
        acc.spans[layer] += n
    ests = {layer: [est for name, est, _ in feeds if name == layer] for layer in LAYERS}
    (doulion,), (triest,) = ests["doulion"], ests["triest"]
    acc.counts.update(
        {
            "stream.events": n,
            "stream.deletions": sum(ev.beta == -1 for ev in events),
            "oracle.common_neighbors": sum(tracker.h_trace),
            "oracle.max_degree": tracker.max_degree,
            "esd.coins_won": sum(est.edges_sampled for est in ests["esd"]),
            "esd.closures": closures,
            "doulion.sample_edges": doulion.sample.edge_count,
            "doulion.tri_in_sample": doulion.tri_in_sample,
            "triest.live_edges": triest.live_edges,
            "triest.c_bad": triest.c_bad,
            "triest.c_good": triest.c_good,
        }
    )
    return TracedReplication(tracker.count, [est.estimate() for _, est, _ in feeds])
