"""Command-line interface.

Usage (after install)::

    python -m repro.cli datasets
    python -m repro.cli methods
    python -m repro.cli run --scenario sgsc --dataset citeseer \
        --methods CTC,Supervised,CGNP-IP --profile smoke --shots 1 \
        --store runs.jsonl
    python -m repro.cli results runs.jsonl --filter method=CGNP-IP
    python -m repro.cli select-train runs.jsonl --out selector.npz
    python -m repro.cli train --dataset cora --out model.npz
    python -m repro.cli query --dataset cora --model model.npz --node 42
    python -m repro.cli serve --dataset cora --model model.npz \
        --rate 200 --duration 2 --metrics-out metrics.prom
    python -m repro.cli loadgen --dataset cora --model model.npz \
        --rates 50,200,800 --duration 2

``run`` regenerates a table cell of the paper (``--store`` logs every
evaluation to an append-only JSONL :class:`~repro.eval.store.ResultsStore`);
``results`` aggregates a store into the pandas-free overview table and
``select-train`` fits a :class:`~repro.meta.MethodSelector` from it —
the artifact behind the engine's ``method="auto"``.  ``train``/``query`` expose
the deployment loop: ``train`` meta-trains a CGNP and writes a
self-describing :class:`~repro.api.bundle.ModelBundle`, ``query`` serves
it through a :class:`~repro.api.engine.CommunitySearchEngine` — the
architecture is read from the bundle, so no ``--hidden-dim``-style flags
are needed at query time.  ``serve`` drives the async micro-batching
gateway (:mod:`repro.serve`) under synthetic open-loop traffic and emits
Prometheus-style metrics; ``loadgen`` compares the gateway against the
pre-gateway single-query loop across arrival rates.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from typing import List, Optional

import numpy as np

from .api import CommunitySearchEngine, ModelBundle, available_methods
from .core import CGNP, CGNPConfig, MetaTrainConfig, meta_train
from .nn.backend import index_precision, precision
from .datasets import dataset_names, load_dataset
from .eval import (
    PROFILES,
    ResultsStore,
    format_generic_table,
    format_metric_table,
    format_time_table,
    run_effectiveness,
)
from .serve import (GatewayConfig, open_loop_arrivals, request_nodes,
                    run_baseline, run_gateway)
from .tasks import (ScenarioConfig, TaskSampler, make_scenario,
                    temporal_snapshots)
from .utils import make_rng

__all__ = ["main", "build_parser"]

def _add_index_flag(parser: argparse.ArgumentParser) -> None:
    """The ``--index-dtype`` policy flag shared by the model commands.

    The default is ``None`` — an omitted flag keeps the ambient process
    policy (``REPRO_INDEX_DTYPE``, falling back to int32), so the
    environment knob stays effective on the CLI.
    """
    parser.add_argument("--index-dtype", default=None,
                        choices=["int32", "int64"],
                        help="width of edge lists, CSR structure and "
                             "gather/scatter indices; int32 halves sparse "
                             "index bandwidth and never changes values "
                             "(default: the REPRO_INDEX_DTYPE policy, "
                             "i.e. int32)")


def _add_shard_flags(parser: argparse.ArgumentParser) -> None:
    """Graph-layout flags shared by ``train``/``query``/``serve``.

    Default off: tasks stay on plain dense graphs.  ``--shards`` splits
    every task graph into that many contiguous CSR row shards and
    ``--memmap-dir`` moves feature/buffer storage into memory-mapped
    files there, bounding anonymous RAM by the shard working set (see
    docs/sharding.md).  Either flag alone activates sharding
    (``--memmap-dir`` implies one shard).
    """
    parser.add_argument("--shards", type=int, default=None,
                        help="partition each task graph into N contiguous "
                             "CSR row shards and serve through the "
                             "shard-streaming encoder (bitwise-identical "
                             "results; default: unsharded)")
    parser.add_argument("--memmap-dir", default=None,
                        help="directory for np.memmap feature/buffer "
                             "storage of sharded graphs (default: "
                             "in-memory storage)")


def _shard_task(task, args: argparse.Namespace):
    """Re-home a sampled task on a :class:`ShardedGraph` when requested."""
    if not getattr(args, "shards", None) and not getattr(args, "memmap_dir",
                                                         None):
        return task
    from .graph import ShardedGraph
    from .tasks.task import Task

    graph = ShardedGraph.from_graph(task.graph, args.shards or 1,
                                    memmap_dir=args.memmap_dir)
    print(f"sharded task graph: {graph.num_shards} shard(s), "
          f"{graph.feature_storage} feature storage")
    return Task(graph, task.support, task.queries, name=task.name,
                use_attributes=task.use_attributes,
                use_structural=task.use_structural)


def _index_scope(
        args: argparse.Namespace) -> contextlib.AbstractContextManager:
    """The requested ``--index-dtype`` override as a context manager; an
    omitted flag keeps the ambient process policy in force."""
    if args.index_dtype is None:
        return contextlib.nullcontext()
    return index_precision(args.index_dtype)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CGNP community search — reproduction CLI")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="list the registered datasets")
    sub.add_parser("methods", help="list the registered methods")

    run = sub.add_parser("run", help="run an effectiveness experiment")
    run.add_argument("--scenario", default="sgsc",
                     choices=["sgsc", "sgdc", "mgod", "mgdd", "temporal"])
    run.add_argument("--dataset", default="citeseer",
                     help="dataset name, or source2target / cite2cora for mgdd")
    run.add_argument("--methods", default="CTC,Supervised,CGNP-IP",
                     help="comma-separated method names (see `repro methods`)")
    run.add_argument("--profile", default="smoke", choices=sorted(PROFILES))
    run.add_argument("--shots", default="1", help="comma-separated shot counts")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--times", action="store_true",
                     help="also print the wall-clock table (Fig. 3 style)")
    run.add_argument("--store", default=None,
                     help="append every evaluation to this results store "
                          "(.jsonl): one record per test task plus an "
                          "aggregate, for `repro results` and "
                          "`repro select-train`")

    results = sub.add_parser(
        "results",
        help="aggregate a results store into an overview table")
    results.add_argument("store", help="results store (.jsonl) path")
    results.add_argument("--by", default="method,scenario,dataset",
                         help="comma-separated grouping fields "
                              "(method, scenario, dataset, task, shots, seed)")
    results.add_argument("--filter", nargs="*", default=[],
                         metavar="FIELD=VALUE",
                         help="equality filters, e.g. method=CGNP-IP "
                              "scenario=sgsc shots=1")
    results.add_argument("--include-aggregates", action="store_true",
                         help="also count whole-task-set (task='*') "
                              "summary records (default: per-task only)")

    select_train = sub.add_parser(
        "select-train",
        help="fit a MethodSelector from a results store and save the "
             "artifact")
    select_train.add_argument("store", help="results store (.jsonl) path")
    select_train.add_argument("--out", required=True,
                              help="output selector artifact (.npz) path")
    select_train.add_argument("--hidden-dim", type=int, default=32)
    select_train.add_argument("--epochs", type=int, default=300)
    select_train.add_argument("--lr", type=float, default=5e-3)
    select_train.add_argument("--abstain-z", type=float, default=6.0,
                              help="out-of-distribution abstention bar in "
                                   "standardized feature units")
    select_train.add_argument("--seed", type=int, default=0)
    select_train.add_argument("--filter", nargs="*", default=[],
                              metavar="FIELD=VALUE",
                              help="train only on matching records, e.g. "
                                   "scenario=sgsc shots=1")

    train = sub.add_parser("train", help="meta-train a CGNP and save a bundle")
    train.add_argument("--dataset", default="cora")
    train.add_argument("--scenario", default="sgsc",
                       choices=["sgsc", "sgdc", "temporal"],
                       help="task scenario the training tasks are sampled "
                            "from ('temporal' trains on the past edge "
                            "snapshot so the bundle can be evaluated on "
                            "the drifted present; default sgsc)")
    train.add_argument("--out", required=True, help="output bundle (.npz) path")
    train.add_argument("--epochs", type=int, default=40)
    train.add_argument("--tasks", type=int, default=12)
    train.add_argument("--task-batch-size", type=int, default=1,
                       help="tasks per optimiser step (block-diagonal "
                            "mini-batch meta-training; 1 = per-task steps)")
    train.add_argument("--subgraph-nodes", type=int, default=100)
    train.add_argument("--hidden-dim", type=int, default=64)
    train.add_argument("--layers", type=int, default=2)
    train.add_argument("--conv", default="gat", choices=["gcn", "gat", "sage"])
    train.add_argument("--decoder", default="ip", choices=["ip", "mlp", "gnn"])
    train.add_argument("--scale", type=float, default=0.5)
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--dtype", default="float64",
                       choices=["float32", "float64"],
                       help="training precision policy (recorded in the "
                            "bundle header and provenance; float64 matches "
                            "the paper-exact numerics, float32 roughly "
                            "doubles spmm/matmul throughput)")
    _add_index_flag(train)
    _add_shard_flags(train)

    query = sub.add_parser("query", help="answer queries with a saved bundle")
    query.add_argument("--dataset", default="cora")
    query.add_argument("--model", required=True, help="saved bundle (.npz) path")
    query.add_argument("--node", type=int, required=True,
                       help="query node id in a fresh task subgraph")
    query.add_argument("--scenario", default="sgsc",
                       choices=["sgsc", "temporal"],
                       help="graph to sample the query task from (temporal: "
                            "the drifted present snapshot — the serving "
                            "side of train-on-past/query-on-present; the "
                            "same --seed reproduces training's edge split)")
    query.add_argument("--subgraph-nodes", type=int, default=100)
    query.add_argument("--threshold", type=float, default=0.5,
                       help="membership probability threshold")
    query.add_argument("--scale", type=float, default=0.5)
    query.add_argument("--seed", type=int, default=0)
    query.add_argument("--dtype", default="float32",
                       choices=["float32", "float64", "bundle"],
                       help="serving precision (default float32 — weights "
                            "are cast on load; 'bundle' keeps the precision "
                            "the model was trained at)")
    query.add_argument("--context-storage", default="full",
                       choices=["full", "float32", "float16", "int8"],
                       help="context cache width (default 'full'); "
                            "float16/int8 fit 2-8x more task sessions in "
                            "the same cache RAM")
    _add_index_flag(query)
    _add_shard_flags(query)

    serve = sub.add_parser(
        "serve",
        help="drive the async micro-batching gateway under open-loop load")
    _add_serving_fixture_flags(serve)
    serve.add_argument("--rate", type=float, default=200.0,
                       help="offered load: Poisson arrivals per second")
    serve.add_argument("--duration", type=float, default=2.0,
                       help="length of the arrival schedule in seconds")
    serve.add_argument("--wait-for-slot", action="store_true",
                       help="park submitters on a queue slot instead of "
                            "rejecting with QueueFull when the queue is full")
    serve.add_argument("--metrics-out", default=None,
                       help="write the final Prometheus text exposition "
                            "here ('-' for stdout)")

    loadgen = sub.add_parser(
        "loadgen",
        help="compare the gateway against the single-query loop across rates")
    _add_serving_fixture_flags(loadgen)
    loadgen.add_argument("--rates", default="50,200,800",
                         help="comma-separated arrival rates (requests/s)")
    loadgen.add_argument("--duration", type=float, default=2.0,
                         help="length of each arrival schedule in seconds")
    return parser


def _add_serving_fixture_flags(parser: argparse.ArgumentParser) -> None:
    """Flags shared by ``serve`` and ``loadgen``: fixture + gateway knobs."""
    parser.add_argument("--dataset", default="cora")
    parser.add_argument("--model", required=True,
                        help="saved bundle (.npz) path")
    parser.add_argument("--subgraph-nodes", type=int, default=100)
    parser.add_argument("--scale", type=float, default=0.5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--dtype", default="float32",
                        choices=["float32", "float64", "bundle"],
                        help="serving precision (default float32; 'bundle' "
                             "keeps the training precision)")
    parser.add_argument("--context-storage", default="full",
                        choices=["full", "float32", "float16", "int8"],
                        help="context cache width (default 'full')")
    parser.add_argument("--nodes-per-request", type=int, default=1,
                        help="query nodes per simulated request (1 = the "
                             "single-query traffic the gateway exists for)")
    parser.add_argument("--capacity", type=int, default=1024,
                        help="bounded request-queue capacity")
    parser.add_argument("--max-tick-requests", type=int, default=None,
                        help="cap on requests coalesced per tick "
                             "(default: unlimited)")
    _add_index_flag(parser)
    _add_shard_flags(parser)


def _cmd_datasets() -> int:
    rows = []
    for name in dataset_names():
        dataset = load_dataset(name, scale=0.2)
        profile = dataset.profile
        if isinstance(profile, list):  # multi-graph
            rows.append([name, f"{len(profile)} graphs",
                         sum(p["nodes"] for p in profile),
                         sum(p["edges"] for p in profile), "-"])
        else:
            rows.append([name, "single", profile["nodes"], profile["edges"],
                         profile["communities"]])
    print(format_generic_table(
        ["Dataset", "Kind", "|V|", "|E|", "|C|"], rows,
        title="Registered datasets (at scale=0.2)", float_format="{}"))
    return 0


def _cmd_methods() -> int:
    from .api import create_method

    rows = []
    for name in available_methods():
        method = create_method(name)
        kind = "meta-learned" if method.trains_meta else "per-task / algorithmic"
        rows.append([name, kind, type(method).__name__])
    print(format_generic_table(
        ["Method", "Kind", "Class"], rows,
        title="Registered community-search methods", float_format="{}"))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    profile = PROFILES[args.profile]
    shots = tuple(int(s) for s in args.shots.split(","))
    methods = tuple(m.strip() for m in args.methods.split(",") if m.strip())
    known = {name.lower() for name in available_methods()}
    unknown = [m for m in methods if m.lower() not in known]
    if unknown:
        print(f"error: unknown method(s) {unknown}; "
              f"known: {list(available_methods())}", file=sys.stderr)
        return 2
    store = ResultsStore(args.store) if args.store else None
    results = run_effectiveness(args.scenario, args.dataset, profile,
                                shots=shots, method_names=methods,
                                seed=args.seed, store=store)
    for shot, shot_results in results.items():
        print(format_metric_table(
            shot_results,
            title=f"{args.dataset} {args.scenario.upper()} {shot}-shot "
                  f"(profile={args.profile})"))
        if args.times:
            print(format_time_table(shot_results))
        print()
    if store is not None:
        print(f"logged {len(store)} record(s) to {store.path}")
    return 0


def _parse_filters(pairs: List[str]) -> dict:
    """``FIELD=VALUE`` args → :meth:`ResultsStore.records` filter kwargs."""
    filters = {}
    for pair in pairs:
        field, eq, value = pair.partition("=")
        if not eq or not field:
            raise ValueError(
                f"filter {pair!r} is not of the form FIELD=VALUE")
        filters[field] = value
    return filters


def _cmd_results(args: argparse.Namespace) -> int:
    store = ResultsStore(args.store)
    by = tuple(f.strip() for f in args.by.split(",") if f.strip())
    try:
        filters = _parse_filters(args.filter)
        table = store.overview_table(
            by=by, include_aggregates=args.include_aggregates, **filters)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(table)
    if store.lines_skipped:
        print(f"warning: skipped {store.lines_skipped} undecodable line(s) "
              f"(torn writes are expected after a crash)", file=sys.stderr)
    return 0


def _cmd_select_train(args: argparse.Namespace) -> int:
    from .meta import MethodSelector

    store = ResultsStore(args.store)
    try:
        filters = _parse_filters(args.filter)
        records = store.records(**filters)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    selector = MethodSelector(hidden_dim=args.hidden_dim,
                              abstain_z=args.abstain_z)
    try:
        selector.fit(records, epochs=args.epochs, lr=args.lr,
                     rng=make_rng(args.seed))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    selector.save(args.out)
    print(f"trained on {selector.train_records} per-task record(s); "
          f"method vocabulary: {selector.methods}")
    print(f"selector artifact written to {args.out}")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    with precision(args.dtype), _index_scope(args):
        # The whole pipeline — task materialisation, model init, training —
        # runs under the requested policies, so a float32/int32 run never
        # touches a float64 array or an int64 index.
        config = ScenarioConfig(
            num_train_tasks=args.tasks, num_valid_tasks=max(args.tasks // 4, 1),
            num_test_tasks=1, subgraph_nodes=args.subgraph_nodes,
            num_support=3, num_query=6, seed=args.seed)
        tasks = make_scenario(args.scenario, args.dataset, config,
                              scale=args.scale)
        rng = make_rng(args.seed)
        in_dim = tasks.train[0].features().shape[1]
        model_config = CGNPConfig(hidden_dim=args.hidden_dim,
                                  num_layers=args.layers, conv=args.conv,
                                  decoder=args.decoder)
        model = CGNP(in_dim, model_config, rng)
        print(model.describe())
        state = meta_train(model, tasks.train,
                           MetaTrainConfig(epochs=args.epochs,
                                           task_batch_size=args.task_batch_size),
                           rng, valid_tasks=tasks.valid)
        # Snapshot inside the policy scopes so the bundle header records
        # the index width the run actually executed under.
        bundle = ModelBundle.from_model(model, provenance={
            "dataset": args.dataset,
            "scenario": args.scenario,
            "scale": args.scale,
            "subgraph_nodes": args.subgraph_nodes,
            "num_train_tasks": args.tasks,
            "task_batch_size": args.task_batch_size,
            "seed": args.seed,
            "dtype": args.dtype,
            "epochs_trained": len(state.epoch_losses),
            "final_loss": float(state.epoch_losses[-1]),
            # Serving-layout recommendation (training itself always runs
            # the dense collation path; sharding is an inference layout).
            "shards": int(args.shards) if args.shards else 1,
            "memmap_dir": args.memmap_dir or "",
        })
    bundle.save(args.out)
    print(f"trained {len(state.epoch_losses)} epochs "
          f"(loss {state.epoch_losses[0]:.4f} -> {state.epoch_losses[-1]:.4f}); "
          f"saved to {args.out}")
    return 0


def _bundle_engine(args: argparse.Namespace, in_dim: int,
                   **engine_kwargs) -> Optional[CommunitySearchEngine]:
    """The serving engine for ``--model``; ``None`` (after printing the
    error) when the bundle is unreadable, a legacy weight-only
    checkpoint with no architecture header, or built for other
    features."""
    try:
        bundle = ModelBundle.load(args.model)
    except (OSError, ValueError) as exc:
        print(f"error: cannot load model bundle {args.model!r}: {exc}",
              file=sys.stderr)
        return None
    if bundle.is_legacy:
        print(f"error: legacy weight-only checkpoint — `repro "
              f"{args.command}` needs the architecture header; re-save "
              f"with `repro train`", file=sys.stderr)
        return None
    print(f"loaded {bundle.describe()}")
    if bundle.in_dim != in_dim:
        print(f"error: bundle expects {bundle.in_dim}-dim node features "
              f"but dataset {args.dataset!r} at scale {args.scale} "
              f"produces {in_dim}-dim features", file=sys.stderr)
        return None
    # "bundle" defers to the checkpoint's recorded training precision.
    return CommunitySearchEngine.from_bundle(
        bundle, dtype=None if args.dtype == "bundle" else args.dtype,
        context_storage=args.context_storage, **engine_kwargs)


def _cmd_query(args: argparse.Namespace) -> int:
    with _index_scope(args):
        return _run_query(args)


def _run_query(args: argparse.Namespace) -> int:
    """The ``query`` body; runs under the selected index policy."""
    dataset = load_dataset(args.dataset, scale=args.scale)
    graph = dataset.graph
    if args.scenario == "temporal":
        # The serving side of the temporal split: sample the query task
        # from the drifted *present* snapshot (built by streaming the
        # late edges through Graph.apply_delta, as training did).
        graph = temporal_snapshots(graph, seed=args.seed)[1]
    sampler = TaskSampler(graph, subgraph_nodes=args.subgraph_nodes,
                          num_support=3, num_query=3)
    task = sampler.sample_task(make_rng(args.seed))
    in_dim = task.features().shape[1]
    try:
        task = _shard_task(task, args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    engine = _bundle_engine(args, in_dim, threshold=args.threshold)
    if engine is None:
        return 2
    try:
        engine.attach(task)
        members = engine.query(args.node)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"query node {args.node} (task subgraph of "
          f"{task.graph.num_nodes} nodes):")
    print(f"predicted community ({len(members)} nodes): {members.tolist()}")
    truth = task.graph.ground_truth_community(args.node)
    if truth:
        overlap = len(set(members.tolist()) & truth)
        print(f"ground-truth community: {len(truth)} nodes "
              f"({overlap} overlap)")
    stats = engine.stats()
    print(f"engine: {stats.queries_served} query(ies), "
          f"{stats.contexts_encoded} context encoding(s), "
          f"decode {stats.decode_seconds * 1e3:.1f} ms, "
          f"dtype {engine.dtype.name}, backend {stats.backend}")
    return 0


def _serving_fixture(args: argparse.Namespace):
    """Engine + sampled task for ``serve``/``loadgen``; ``None`` on error.

    Mirrors the ``query`` fixture: a fresh task subgraph from the
    dataset, the model read from the self-describing bundle.
    """
    dataset = load_dataset(args.dataset, scale=args.scale)
    sampler = TaskSampler(dataset.graph, subgraph_nodes=args.subgraph_nodes,
                          num_support=3, num_query=3)
    task = sampler.sample_task(make_rng(args.seed))
    in_dim = task.features().shape[1]
    try:
        task = _shard_task(task, args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None
    engine = _bundle_engine(args, in_dim)
    return None if engine is None else (engine, task)


def _gateway_config(args: argparse.Namespace) -> GatewayConfig:
    return GatewayConfig(capacity=args.capacity,
                         max_tick_requests=args.max_tick_requests)


def _cmd_serve(args: argparse.Namespace) -> int:
    with _index_scope(args):
        fixture = _serving_fixture(args)
        if fixture is None:
            return 2
        engine, task = fixture
        rng = make_rng(args.seed + 1)
        arrivals = open_loop_arrivals(args.rate, args.duration, rng)
        batches = request_nodes(task, len(arrivals),
                                args.nodes_per_request, rng)
        stats_out: List = []
        result = run_gateway(engine, task, arrivals, batches,
                             config=_gateway_config(args),
                             wait_for_slot=args.wait_for_slot,
                             stats_out=stats_out)
        print(result.describe())
        stats = stats_out[0]
        print(f"gateway: {stats.busy_ticks} busy tick(s), "
              f"{stats.tick_batch_requests.mean:.1f} requests/tick mean, "
              f"queue high-water {stats.queue_depth_high_water}, "
              f"{stats.decode_calls} decoder pass(es) for "
              f"{stats.batches_served} request(s), backend {stats.backend}")
        if args.metrics_out == "-":
            print(stats.metrics_text(), end="")
        elif args.metrics_out:
            with open(args.metrics_out, "w") as handle:
                handle.write(stats.metrics_text())
            print(f"metrics written to {args.metrics_out}")
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    try:
        rates = [float(r) for r in args.rates.split(",") if r.strip()]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not rates:
        print("error: --rates must name at least one arrival rate",
              file=sys.stderr)
        return 2
    with _index_scope(args):
        fixture = _serving_fixture(args)
        if fixture is None:
            return 2
        engine, task = fixture
        rows = []
        for rate in rates:
            # Same generator seed per mode: both replay one schedule.
            arrivals = open_loop_arrivals(
                rate, args.duration, make_rng(args.seed + 1))
            batches = request_nodes(task, len(arrivals),
                                    args.nodes_per_request,
                                    make_rng(args.seed + 2))
            for run in (run_baseline,
                        lambda e, t, a, b: run_gateway(
                            e, t, a, b, config=_gateway_config(args))):
                result = run(engine, task, arrivals, batches)
                rows.append([result.mode, f"{rate:g}", result.completed,
                             result.rejected, result.qps,
                             result.latency_p50 * 1e3,
                             result.latency_p99 * 1e3])
        print(format_generic_table(
            ["Mode", "Rate/s", "Done", "Rej", "QPS", "p50 ms", "p99 ms"],
            rows, title=f"Open-loop serving comparison "
                        f"({args.dataset}, {args.duration:g}s per run)"))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "datasets":
        return _cmd_datasets()
    if args.command == "methods":
        return _cmd_methods()
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "results":
        return _cmd_results(args)
    if args.command == "select-train":
        return _cmd_select_train(args)
    if args.command == "train":
        return _cmd_train(args)
    if args.command == "query":
        return _cmd_query(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "loadgen":
        return _cmd_loadgen(args)
    raise AssertionError("unreachable")  # pragma: no cover


if __name__ == "__main__":
    raise SystemExit(main())
