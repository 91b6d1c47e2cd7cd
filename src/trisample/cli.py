"""Command-line front end: graph generation, stream building, exact counts
and estimator experiments."""

from __future__ import annotations

import argparse
import sys

from .generators import BaConfig, ba_graph, er_graph, graph_stats
from .graph import Graph
from .harness import (
    EstimatorSpec,
    ExperimentConfig,
    emit_csv,
    replay,
    run_experiment,
    trace_path_for,
    write_summary,
)
from .stream import (
    StreamSpec, rate, read_edge_list, read_snapshot_dir, read_stream_file, snapshot_diffs,
    write_edge_list, write_stream_file,
)


def cmd_generate(args) -> int:
    if args.kind == "er":
        g = er_graph(args.nodes, args.edge_prob, args.seed)
    else:
        cfg = BaConfig(
            n_total=args.nodes,
            seed_nodes=args.seed_nodes,
            seed_edge_prob=args.seed_edge_prob,
            edges_per_new_node=args.edges_per_node,
            gamma=args.gamma,
            seed=args.seed,
        )
        g = ba_graph(cfg)
    edges = sorted(g.edges())
    write_edge_list(edges, args.out)
    # the file holds only endpoints: an isolated node of an ER graph or of a
    # BA seed graph is not in it, so it is not counted
    nodes = len({x for e in edges for x in e})
    print(f"wrote {args.out}: nodes={nodes} edges={len(edges)}")
    return 0


def cmd_stream(args) -> int:
    events = _stream_spec_from_args(args).realize(args.seed)
    write_stream_file(events, args.out)
    adds = sum(1 for ev in events if ev.beta == 1)
    print(f"wrote {args.out}: events={len(events)} additions={adds} deletions={len(events) - adds}")
    return 0


def cmd_exact(args) -> int:
    g = Graph()
    # any seed: every order of an edge list ends on the same graph
    replay(_stream_spec_from_args(args).realize(0), g)
    stats = graph_stats(g)
    print(
        f"nodes={stats.nodes} edges={stats.edges} "
        f"triangles={stats.triangles} clustering={stats.clustering:.6g}"
    )
    return 0


def _stream_spec_from_args(args) -> StreamSpec:
    """The stream that exactly one source describes: ``--edges`` with
    ``--pe``/``--pd``/``--node-del``, or ``--snapshots`` (``stream``) or
    ``--stream`` (``run``, ``exact``), which take no deletion options.
    ``--pd`` and ``--node-del`` shape deletion events, so they need a
    positive ``--pe``."""
    flag = "--snapshots" if hasattr(args, "snapshots") else "--stream"
    other = getattr(args, flag[2:])
    if not args.edges and not other:
        raise ValueError(f"either --edges or {flag} is required")
    if args.edges and other:
        raise ValueError(f"exactly one of --edges or {flag} is required")
    if other:
        if args.pe or args.pd or args.node_del:
            raise ValueError(f"--pe, --pd and --node-del apply only to --edges, not to {flag}")
        if flag == "--snapshots":
            return StreamSpec("events", events=snapshot_diffs(read_snapshot_dir(other)))
        return StreamSpec("events", events=read_stream_file(other))
    if not args.pe and (args.pd or args.node_del):
        raise ValueError("--pd and --node-del need a positive --pe")
    kind = "permutation" if not args.pe else "node-deletion" if args.node_del else "edge-deletion"
    return StreamSpec(kind, edges=read_edge_list(args.edges), p_e=args.pe, p_d=args.pd)


def _print_report(rows) -> None:
    for row in rows:
        print(
            f"{row.name:>8}  param={row.param:<8g} mean={row.mean:<12.6g} "
            f"rel_err={row.rel_err:<+10.4g} nrmse={row.nrmse:<10.4g} "
            f"samples={row.edges_sampled_mean:.1f}"
        )


def cmd_run(args) -> int:
    estimators = []
    if args.alpha is not None:
        estimators.append(EstimatorSpec("esd", args.alpha))
    if args.p is not None:
        estimators.append(EstimatorSpec("doulion", args.p))
    if args.reservoir is not None:
        estimators.append(EstimatorSpec("triest", args.reservoir))
    cfg = ExperimentConfig(
        stream=_stream_spec_from_args(args),
        estimators=estimators,
        replications=args.reps,
        seed=args.seed,
        trace_stride=args.stride,
        timing=args.timing,
    )
    report, traces = run_experiment(cfg)
    emit_csv(report, traces, args.out)
    print(f"truth={report.truth:g}  ({args.out}, {trace_path_for(args.out)})")
    _print_report(report.rows)
    return 0


def _fraction(tok: str) -> float:
    try:
        x = float(tok)
    except ValueError:
        raise ValueError(f"sample fraction must be a number, got {tok!r}") from None
    return rate("sample fraction", x)


def cmd_compare(args) -> int:
    edges = read_edge_list(args.edges)
    fractions = [_fraction(tok) for tok in args.sizes.split(",") if tok]
    if not fractions:
        raise ValueError("--sizes must list at least one fraction")
    capacities = [max(1, round(frac * len(edges))) for frac in fractions]
    # one experiment over every size, esd, doulion and triest per fraction in
    # --sizes order: each spec's seed follows its index, so --sizes f writes
    # what run --alpha f --p f --reservoir <capacity> writes
    specs = [
        EstimatorSpec(kind, param)
        for frac, capacity in zip(fractions, capacities)
        for kind, param in (("esd", frac), ("doulion", frac), ("triest", capacity))
    ]
    stream = StreamSpec("permutation", edges=edges)
    # compare writes no trace, so replication 0 stops once, at the end of
    # its len(edges) events; stops never change the draws
    report, _ = run_experiment(
        ExperimentConfig(stream, specs, replications=args.reps, seed=args.seed, trace_stride=max(1, len(edges)))
    )
    for i, (frac, capacity) in enumerate(zip(fractions, capacities)):
        print(f"-- sample fraction {frac:g} (reservoir {capacity})")
        _print_report(report.rows[3 * i:3 * i + 3])
    write_summary(report, args.out)
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trisample",
        description="Streaming triangle estimation on dynamic graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate an ER or BA graph edge list")
    gen.add_argument("kind", choices=["er", "ba"])
    gen.add_argument("--nodes", type=int, required=True)
    gen.add_argument("--edge-prob", type=float, default=0.1, help="ER edge probability")
    gen.add_argument("--seed-nodes", type=int, default=100, help="BA: ER seed size")
    gen.add_argument("--seed-edge-prob", type=float, default=0.1, help="BA: ER seed edge probability")
    gen.add_argument("--edges-per-node", type=int, default=10, help="BA: edges attached per new node")
    gen.add_argument("--gamma", type=float, default=1.0, help="BA: preferential attachment power")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_generate)

    st = sub.add_parser("stream", help="build an event stream file from an edge list")
    st.add_argument("--edges", help="input edge-list file")
    st.add_argument("--snapshots", help="directory of snapshot edge lists (lexicographic order)")
    st.add_argument("--pe", type=float, default=0.0, help="deletion-event probability per addition")
    st.add_argument("--pd", type=float, default=0.0, help="per-edge (or per-node) deletion probability")
    st.add_argument("--node-del", action="store_true", help="delete nodes instead of edges")
    st.add_argument("--seed", type=int, default=0)
    st.add_argument("--out", required=True)
    st.set_defaults(func=cmd_stream)

    ex = sub.add_parser("exact", help="exact triangle count of a graph or replayed stream")
    ex.add_argument("--edges")
    ex.add_argument("--stream")
    # exact takes no deletion options; the shared resolver reads them as unset
    ex.set_defaults(func=cmd_exact, pe=0.0, pd=0.0, node_del=False)

    run = sub.add_parser("run", help="run a replicated estimation experiment")
    run.add_argument("--edges", help="edge list to stream (see --pe/--pd/--node-del)")
    run.add_argument("--stream", help="pre-built stream file (fixed across replications)")
    run.add_argument("--pe", type=float, default=0.0)
    run.add_argument("--pd", type=float, default=0.0)
    run.add_argument("--node-del", action="store_true")
    run.add_argument("--alpha", type=float, help="enable the sampling estimator with this fraction")
    run.add_argument("--p", type=float, help="enable the sparsifier baseline with this probability")
    run.add_argument("--reservoir", type=int, help="enable the reservoir baseline with this capacity")
    run.add_argument("--reps", type=int, default=100)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--stride", type=int, help="events between trace points")
    run.add_argument("--timing", action="store_true", help="measure per-estimator wall time (breaks byte-identical output)")
    run.add_argument("--out", required=True)
    run.set_defaults(func=cmd_run)

    cmp_ = sub.add_parser("compare", help="sweep the three estimators over sample-size fractions")
    cmp_.add_argument("--edges", required=True)
    cmp_.add_argument("--sizes", default="0.005,0.01,0.02,0.05", help="comma-separated edge fractions")
    cmp_.add_argument("--reps", type=int, default=100)
    cmp_.add_argument("--seed", type=int, default=0)
    cmp_.add_argument("--out", required=True)
    cmp_.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
