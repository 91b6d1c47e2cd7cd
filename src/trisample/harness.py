"""Experiment runner: replicated stream replays, accuracy metrics and CSV
emission for estimator comparisons.

Each replication realizes the stream and feeds fresh estimators; metrics
aggregate the final estimates against the exact ground truth.  ``replay``
is public and is the one function that applies a stream to a mutable
graph store (the CLI's ``exact --stream`` uses it too), so it is also the
one place that rejects an inconsistent stream, which the estimators rely
on.

``_drive`` is the one stop loop, over either view of a replication: it
feeds the sampling estimator and both baselines one stretch at a time, the
events between two trace stops (the last is the stream's end), with the
same random draws and results as feeding each every event.  No call draws
past its stop, so at each stop every estimator's state, RNG included, is a
per-event replay's, and the stop's row of estimates is read after all of
the stretch's calls.  On a store each stretch is one ``replay``, whose
calls take positions in the stretch's own list: one ``skip(events)`` per
estimator draws the coins ahead, applies every update that reads no store
and returns the next event whose update does, or ``len(events)``.  Only
the sampling estimator has such events; its
``step(events, i, nu, nv)`` applies event i once the store has, from the
endpoints' neighbor lists, which ``replay`` reads once per event and hands
to every step due there, draws ahead again and returns the next, or
``len(events)``.  Over an arrival index, whose positions are absolute, one
``run(events, start, stop, order)`` call per estimator and stretch draws
the stretch's coins and acts on every event the estimator acts on there;
it returns nothing.

The view, truth and reuse of each replication, stated here once:

- View.  A replication 0 whose events hold no deletion is indexed by
  arrival from the events alone (``TimeIndexedGraph.of``), and a later
  replication made of exactly those objects, each once, reads the same
  index (``ordered``).  Over the index no store or tracker runs: each
  estimator runs on its own, with the stops a store would have.  Its
  draws are the store path's: the neighbors of a node before event i are
  the slots of its final row that arrived before i, in id order, which is
  the list the store holds at that point, so ESD's d, its index draws, the
  node it picks and its closure test are the same, and the baselines never
  read a store.  Every other replication replays
  into a fresh store through ``replay``: one with deletions, a replication
  0 the index refuses (a repeated object or edge, which ``replay`` then
  rejects, or a node id that is not an integer within int64), and a later
  one made of other event objects.
- Truth.  Replication 0's truth at each trace stop is, over the index, the
  running sum of ``ArrivalOrder.closings`` read at the stop (the triangles
  whose last edge arrived up to it) and, in a store, the count of the
  incremental exact tracker, which runs on replication 0 only.
- Reuse.  Replication 0 keeps its proof: its index, or else its events.  A
  later replication takes replication 0's final truth only when its events
  prove that it ends on the same graph: the index serves it, or
  replication 0 replayed a store and the events are equal to its events
  (an ``events`` stream replays the same list).  Any other replication
  recounts its own final graph once, which costs far less than following
  each event, so when the replications end on different graphs each has
  its own truth.

Reports are a pure function of the config: per-estimator wall-clock stays
0.0 unless timing is explicitly enabled, since measured times would break
byte-identical output.  With timing, each estimator is wrapped once in
``_Timed``, which times every call ``replay`` and ``_drive`` make.
"""

from __future__ import annotations

import math
import time
from dataclasses import astuple, dataclass
from pathlib import Path
from statistics import NormalDist

import numpy as np

from .baselines import DoulionEstimator, TriestEstimator
from .esd import EsdEstimator
from .graph import Graph, TimeIndexedGraph
from .oracle import ExactTracker, exact_triangles
from .seeding import derive_seed
from .stream import StreamSpec, positive_int

SUMMARY_HEADER = (
    "estimator,alpha_or_p_or_M,replications,truth,mean,rel_err,nrmse,"
    "var,ci_low,ci_high,edges_sampled_mean,wall_ms_mean"
)
TRACE_HEADER = "event_index,truth,estimator,estimate"
_Z95 = NormalDist().inv_cdf(0.975)  # two-sided 95% normal quantile


def relative_error(estimates, truth: float) -> float:
    """Signed bias of the mean: (mean - truth) / truth; NaN for a zero
    truth."""
    if truth == 0.0:
        return math.nan
    return (float(np.mean(estimates)) - truth) / truth


def nrmse(estimates, truth) -> float:
    """Root mean squared error normalized by the true value.

    ``truth`` is one value or one per estimate (when the replications end
    on different graphs); each estimate is compared with its own truth and
    the error is normalized by their mean.  NaN when that mean is zero.
    """
    e = np.asarray(estimates, dtype=float)
    t = np.asarray(truth, dtype=float)
    scale = float(np.mean(t))
    if scale == 0.0:
        return math.nan
    return float(np.sqrt(np.mean((e - t) ** 2))) / scale


def confidence_interval(estimates) -> tuple[float, float]:
    """Normal-approximation 95% interval mean ± z * sd / sqrt(n), with z
    the two-sided quantile 1.9600."""
    e = np.asarray(estimates, dtype=float)
    mean = float(np.mean(e))
    if len(e) < 2:
        return (mean, mean)
    half = _Z95 * float(np.std(e, ddof=1)) / math.sqrt(len(e))
    return (mean - half, mean + half)


# estimator kind -> class, whose first argument is the spec's ``param``:
# ESD's alpha, Doulion's p or TRIÈST's reservoir capacity
_KINDS = {"esd": EsdEstimator, "doulion": DoulionEstimator, "triest": TriestEstimator}


@dataclass(frozen=True)
class EstimatorSpec:
    """One estimator to run: a ``kind`` of ``_KINDS`` and its ``param``."""

    kind: str
    param: float
    label: str | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown estimator kind {self.kind!r}")
        # each constructor owns its parameter's rule, so one build refuses,
        # before any replication, a param it would not run as given
        self.build(0)

    @property
    def name(self) -> str:
        return self.label or self.kind

    def build(self, seed: int):
        return _KINDS[self.kind](self.param, seed=seed)


@dataclass
class ExperimentConfig:
    stream: StreamSpec
    estimators: list[EstimatorSpec]
    replications: int = 100
    seed: int = 0
    trace_stride: int | None = None  # default: max(1, events // 500)
    timing: bool = False

    def __post_init__(self):
        self.replications = positive_int("replications", self.replications)
        if self.trace_stride is not None:
            self.trace_stride = positive_int("trace_stride", self.trace_stride)
        if not self.estimators:
            raise ValueError("at least one estimator is required")


@dataclass(frozen=True)
class EstimatorMetrics:
    """A summary CSV row, fields in column order (SUMMARY_HEADER).  On a
    deletion stream ``edges_sampled_mean`` averages different counts: ESD's
    sampled events, deletions included; Doulion's sample insertions, none
    subtracted; TRIÈST's final reservoir size."""

    name: str
    param: float
    replications: int
    truth: float
    mean: float
    rel_err: float
    nrmse: float
    var: float
    ci_low: float
    ci_high: float
    edges_sampled_mean: float
    wall_ms_mean: float

    @property
    def ci_half_width(self) -> float:
        return (self.ci_high - self.ci_low) / 2.0


@dataclass(frozen=True)
class MetricsReport:
    rows: list[EstimatorMetrics]
    truth: float


class _Timed:
    """An estimator whose every method call, each read of its estimate
    included, adds its wall time to ``seconds``.  It holds the estimator,
    not the other way round, so both die together."""

    def __init__(self, est):
        self._est = est
        self.seconds = 0.0

    def __getattr__(self, name):
        attr = getattr(self._est, name)
        if not callable(attr):
            return attr

        def call(*args):
            t0 = time.perf_counter()
            out = attr(*args)
            self.seconds += time.perf_counter() - t0
            return out

        return call


def _trace_stops(last: int, stride: int) -> list[int]:
    """Replication 0's trace stops over ``last`` events: every ``stride``
    events and at the end; none on an empty stream."""
    return [*range(stride, last, stride), last] if last else []


def replay(events, g, ests=(), tracker=None) -> None:
    """Apply ``events`` to the graph store ``g`` as one stretch and feed
    the estimators ``ests`` and the exact ``tracker`` (both optional).

    This is the one place a stream is checked: an addition of a present
    edge or a deletion of an absent one raises ``ValueError("inconsistent
    stream: ...")``, since the estimators and the tracker assume a
    consistent stream.  ``g`` is a mutable store, and ``replay`` mutates
    it.  A caller that reads the estimators part way through replays each
    stretch in its own call, as ``_drive`` does at its stops.

    Each estimator's ``skip`` files its ``step`` in one dict, ``due``,
    under the position it returns, where the ``step`` runs once the store
    has applied that event and files itself again.  At an event where steps
    are due, the endpoints' lists Γ(u) and Γ(v) are read once, after the
    store applies it, and handed to every one.  Each estimator draws from
    its own RNG, so the order they are fed in changes nothing.
    """
    add, delete, adjacency = g.add_edge, g.delete_edge, g.adjacency
    # a plain dict, not a defaultdict: the pop below runs on every event,
    # and it is slower on a dict subclass
    due: dict[int, list] = {}
    for est in ests:
        due.setdefault(est.skip(events), []).append(getattr(est, "step", None))
    pop = due.pop
    for i in range(len(events)):
        ev = events[i]
        u, v = ev.u, ev.v
        if ev.beta == 1:
            if not add(u, v):
                raise ValueError(f"inconsistent stream: duplicate addition ({u}, {v})")
        elif not delete(u, v):
            raise ValueError(f"inconsistent stream: absent deletion ({u}, {v})")
        if tracker is not None:
            tracker.apply(ev, g)
        steps = pop(i, None)
        if steps is not None:
            nu, nv = adjacency(u), adjacency(v)
            for step in steps:
                k = step(events, i, nu, nv)
                if k in due:
                    due[k].append(step)
                else:
                    due[k] = [step]


class Trace:
    """Replication 0's trace rows ``(event_index, truth, name, estimate)``,
    read-only and held as columns: the stops and the truths as int lists,
    the estimator names once and the estimates as one float64 matrix of
    stops × estimators, 8 bytes per estimator per stop.  It iterates stop
    by stop, each stop's estimators in order, as the list of those tuples,
    has that list's length, and compares equal to it either way round, or
    to another ``Trace`` with the same rows."""

    def __init__(self, stops: list, truths: list, names: tuple, estimates: np.ndarray):
        self._stops, self._truths, self._names, self._estimates = stops, truths, names, estimates

    def __len__(self) -> int:
        return self._estimates.size

    def __iter__(self):
        names = self._names
        for stop, truth, row in zip(self._stops, self._truths, self._estimates):
            for name, est in zip(names, row.tolist()):
                yield stop, truth, name, est

    def __eq__(self, other):
        if not isinstance(other, (list, Trace)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))


@dataclass
class _Reuse:
    """Replication 0's trace and truth, and its proof that a later
    replication ends on the same graph: its arrival index, when it was
    indexed, or else its events."""

    trace: Trace | None = None
    truth: int = 0
    index: TimeIndexedGraph | None = None
    events: list | None = None


def _drive(ests, events, stops, view, tracker=None):
    """The one stop loop: feed ``ests`` each stretch of ``events`` up to
    the next of the ``stops`` and read every estimate there, over the
    ``view``: an ``ArrivalOrder``, with one ``run`` per estimator and
    stretch, or a store ``Graph``, with one ``replay`` per stretch and the
    optional exact ``tracker``.  Returns the estimates as a float64 matrix
    of stops × estimators, and the tracker's count at each stop if one
    runs."""
    estimates = np.empty((len(stops), len(ests)))
    counts = []
    start = 0
    for k, stop in enumerate(stops):
        if isinstance(view, Graph):
            # a whole-stream stretch is the list itself, not a copy of it
            stretch = events if stop - start == len(events) else events[start:stop]
            replay(stretch, view, ests, tracker)
            if tracker is not None:
                counts.append(tracker.count)
        else:
            for est in ests:
                est.run(events, start, stop, view)
        estimates[k] = [est.estimate() for est in ests]
        start = stop
    return estimates, counts


def _replicate(cfg: ExperimentConfig, r: int, reuse: _Reuse):
    """Replay replication ``r``: realize its stream and feed fresh
    estimators; returns (truth, final estimates, edges sampled, wall
    seconds).

    Replication 0 sets ``reuse``, its trace included; the view each
    replication runs on and its truth follow the module docstring's rule.
    The rest is local, so the stream, store and estimators of a replication
    are freed before the next one is realized.
    """
    events = cfg.stream.realize(derive_seed(cfg.seed, "stream", r))
    ests = [
        spec.build(derive_seed(cfg.seed, spec.kind, i, r))
        for i, spec in enumerate(cfg.estimators)
    ]
    if cfg.timing:
        ests = [_Timed(est) for est in ests]
    if r == 0:
        order = TimeIndexedGraph.of(events)
        stops = _trace_stops(len(events), cfg.trace_stride or max(1, len(events) // 500))
    else:
        order = reuse.index.ordered(events) if reuse.index is not None else None
        stops = [len(events)]
    if order is not None:
        estimates, _ = _drive(ests, events, stops, order)
    else:
        g = Graph()
        tracker = ExactTracker() if r == 0 else None
        estimates, truths = _drive(ests, events, stops, g, tracker)
    if r == 0:
        if order is not None:
            # the triangles closed up to each stop; an empty stream has none
            truths = np.cumsum(order.closings(), dtype=np.int64)[[stop - 1 for stop in stops]].tolist()
            reuse.truth, reuse.index = truths[-1] if truths else 0, order.index
        else:
            reuse.truth, reuse.events = tracker.count, events
        reuse.trace = Trace(stops, truths, tuple(spec.name for spec in cfg.estimators), estimates)
    finals = [est.estimate() for est in ests]
    sampled = [est.edges_sampled for est in ests]
    wall = [est.seconds for est in ests] if cfg.timing else [0.0] * len(ests)
    if order is None and r > 0 and (reuse.events is None or events != reuse.events):
        # Free the stream and the estimators before the recount allocates;
        # the bound methods and the schedule that held them died with replay.
        events = ests = None
        return exact_triangles(g), finals, sampled, wall
    return reuse.truth, finals, sampled, wall


def run_experiment(cfg: ExperimentConfig) -> tuple[MetricsReport, Trace]:
    """Replay ``cfg.replications`` stream realizations, feed every estimator
    and aggregate accuracy metrics against the exact truth.

    Returns (report, trace_rows).  Trace rows (event_index, truth, name,
    estimate) come from the first replication only, every trace-stride
    events and at stream end, each with the exact truth there.  They are a
    read-only ``Trace``, held as columns at 8 bytes per estimator per stop,
    that iterates as the list of those tuples, has its length and compares
    equal to it.
    Each replication's view and truth follow the module docstring's rule;
    when the replications end on different graphs the per-replication
    truths differ and metrics normalize by their mean.  Of ``cfg.stream``
    only ``realize`` is read.
    """
    n_est = len(cfg.estimators)
    finals = np.zeros((cfg.replications, n_est))
    truths = np.zeros(cfg.replications)
    sampled = np.zeros((cfg.replications, n_est))
    wall = np.zeros((cfg.replications, n_est))

    reuse = _Reuse()
    for r in range(cfg.replications):
        truths[r], finals[r], sampled[r], wall[r] = _replicate(cfg, r, reuse)

    truth_mean = float(truths.mean())
    rows = []
    for j, spec in enumerate(cfg.estimators):
        col = finals[:, j]
        var = float(col.var(ddof=1)) if cfg.replications > 1 else 0.0
        lo, hi = confidence_interval(col)
        rows.append(
            EstimatorMetrics(
                name=spec.name,
                param=spec.param,
                replications=cfg.replications,
                truth=truth_mean,
                mean=float(col.mean()),
                rel_err=relative_error(col, truth_mean),
                nrmse=nrmse(col, truths),
                var=var,
                ci_low=lo,
                ci_high=hi,
                edges_sampled_mean=float(sampled[:, j].mean()),
                wall_ms_mean=float(wall[:, j].mean() * 1000.0),
            )
        )
    return MetricsReport(rows=rows, truth=truth_mean), reuse.trace


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.10g}"
    return str(x)


def trace_path_for(path) -> Path:
    """Trace CSV written next to the summary, suffixed ``_trace``."""
    p = Path(path)
    return p.with_name(p.stem + "_trace" + (p.suffix or ".csv"))


def write_summary(report: MetricsReport, path) -> None:
    """Write the summary CSV at ``path``, one row per estimator."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(SUMMARY_HEADER + "\n")
        for row in report.rows:
            fh.write(",".join(_fmt(v) for v in astuple(row)) + "\n")


def emit_csv(report: MetricsReport, traces, path) -> None:
    """Write the summary CSV at ``path`` and the stride trace next to it."""
    p = Path(path)
    write_summary(report, p)
    with open(trace_path_for(p), "w", encoding="utf-8") as fh:
        fh.write(TRACE_HEADER + "\n")
        for idx, truth, name, est in traces:
            fh.write(f"{idx},{truth},{name},{_fmt(float(est))}\n")
