"""Command-line interface.

Subcommands::

    python -m repro build-dataset --out DIR [--taxis N --days N ...]
    python -m repro describe --dataset DIR
    python -m repro query   --dataset DIR --x 0 --y 0 --time 11:00 \
                            --duration 10 --prob 0.2 [--algorithm auto]
    python -m repro mquery  --dataset DIR --location 0,0 --location 3000,2000 ...
    python -m repro rquery  --dataset DIR --x 0 --y 0 ...
    python -m repro batch   --dataset DIR --s-queries 20 --m-queries 5 \
                            --r-queries 2 [--shards K --workers N]
    python -m repro save    --dataset DIR --store STORE
    python -m repro open    --store STORE [--x 0 --y 0 ...]
    python -m repro batch   --open STORE --s-queries 20 ...

``build-dataset`` generates and persists a synthetic ShenzhenLike dataset;
the query commands load it, build indexes, and answer through the
:class:`~repro.api.ReachabilityClient` — every request travels as a
:class:`~repro.api.Request` envelope, ``--algorithm auto`` (the default)
lets the router pick the route, and ``--explain`` prints the routing
decision, the plan and the stage table of that same execution
(``QueryExplanation.to_text()``).  ``batch`` streams a deterministic random
workload (s-, m- and reverse queries mixed) through ``client.stream``,
printing one progress line per completed response (with its direction
and route) before the batch report.  Algorithm choices come straight
from the executor registry, so registered third-party algorithms are
selectable without CLI changes.

Durable stores: every query command accepts ``--disk file --disk-path
DIR`` to route index pages onto the crash-safe
:class:`~repro.storage.backends.FileBackedDisk`; ``save`` builds the
indexes directly onto the file backend and persists a store bundle,
``open`` cold-opens one (journal replayed, pages faulted in
checksum-verified on demand) and answers a query from it, and ``batch
--open STORE`` serves a whole workload from the bundle without touching
the original dataset.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.api.client import ReachabilityClient
from repro.api.envelope import AUTO, QueryOptions, Request
from repro.core.executors import executor_names, has_executor
from repro.core.query import MQuery, SQuery
from repro.spatial.geometry import Point
from repro.trajectory.model import day_time


def _parse_time(text: str) -> int:
    """'11:00' or '11:05:30' -> seconds since midnight."""
    parts = text.split(":")
    if not 1 <= len(parts) <= 3:
        raise argparse.ArgumentTypeError(f"bad time {text!r}, want HH[:MM[:SS]]")
    try:
        numbers = [int(p) for p in parts] + [0, 0]
        return day_time(numbers[0], numbers[1], numbers[2])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _parse_location(text: str) -> Point:
    """'x,y' -> local-plane Point."""
    try:
        x, y = (float(v) for v in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad location {text!r}, want X,Y") from exc
    return Point(x, y)


def _add_query_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dataset", required=True, help="dataset directory")
    parser.add_argument("--time", type=_parse_time, default=day_time(11),
                        help="start time of day, HH[:MM[:SS]] (default 11:00)")
    parser.add_argument("--duration", type=float, default=10.0,
                        help="duration L in minutes (default 10)")
    parser.add_argument("--prob", type=float, default=0.2,
                        help="probability threshold (default 0.2)")
    parser.add_argument("--delta-t", type=int, default=5,
                        help="index granularity Δt in minutes (default 5)")
    parser.add_argument("--budget", type=float, default=None,
                        help="advisory cost budget in ms (router avoids "
                             "unbounded routes; the result reports "
                             "whether it was met)")
    parser.add_argument("--geojson", type=Path, default=None,
                        help="write the region to this GeoJSON file")
    parser.add_argument("--no-map", action="store_true",
                        help="skip the ASCII map")
    parser.add_argument("--explain", action="store_true",
                        help="print the routing decision, the query plan "
                             "and the per-stage cost table of the "
                             "execution")
    _add_disk_args(parser)


def _add_disk_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--disk", choices=("sim", "file"), default="sim",
                        help="storage backend for index pages: 'sim' "
                             "(in-RAM, default) or 'file' (durable "
                             "checksummed store; needs --disk-path)")
    parser.add_argument("--disk-path", default=None,
                        help="store directory for --disk file")


class CLIError(Exception):
    """User-facing CLI failure (bad paths, unreadable datasets)."""


def _load_client(
    dataset_dir: str,
    shards: int = 0,
    workers: int | None = None,
    deadline_ms: float | None = None,
    max_retries: int | None = None,
    disk: str = "sim",
    disk_path: str | None = None,
) -> tuple:
    from repro.core.engine import ReachabilityEngine
    from repro.io.persist import load_dataset
    from repro.storage.backends import create_disk

    if disk == "file" and disk_path is None:
        raise CLIError("--disk file needs --disk-path DIR")
    try:
        dataset = load_dataset(dataset_dir)
    except FileNotFoundError as exc:
        raise CLIError(
            f"no dataset at {dataset_dir!r} (missing {exc.filename}); "
            "create one with: python -m repro build-dataset --out "
            f"{dataset_dir}"
        ) from exc
    engine = ReachabilityEngine(dataset.network, dataset.database)
    if disk == "file":
        engine.use_disk(create_disk(disk, path=disk_path, page_size=engine.disk.page_size))
    if shards > 0:
        return dataset, ReachabilityClient(
            engine,
            backend="sharded",
            shards=shards,
            shard_workers=workers,
            deadline_ms=deadline_ms,
            max_retries=max_retries,
        )
    return dataset, ReachabilityClient(engine)


def _open_store_client(path: str, **kwargs) -> ReachabilityClient:
    from repro.io.persist import PersistFormatError

    try:
        return ReachabilityClient.open(path, **kwargs)
    except PersistFormatError as exc:
        raise CLIError(f"cannot open store at {path!r}: {exc}") from exc


def _print_response(args, dataset, response) -> int:
    from repro.viz.ascii_map import render_region

    result = response.result
    km = result.road_length_m(dataset.network) / 1000.0
    print(f"Prob-reachable region: {len(result.segments)} segments, {km:.1f} km")
    cost = result.cost
    print(
        f"running time: {cost.total_cost_ms:.0f} ms "
        f"(wall {cost.wall_time_s * 1e3:.1f} ms + simulated I/O "
        f"{cost.simulated_io_ms:.0f} ms over {cost.io.page_reads} page reads; "
        f"{cost.probability_checks} probability checks)"
    )
    for line in cost.path_lines():
        print(line)
    if response.within_budget is not None:
        verdict = "met" if response.within_budget else "EXCEEDED"
        print(
            f"cost budget: {response.request.options.cost_budget_ms:.0f} ms "
            f"{verdict}"
        )
    if not args.no_map:
        print(render_region(result, dataset.network))
    if args.geojson is not None:
        from repro.viz.geojson import write_geojson

        path = write_geojson(result, dataset.network, args.geojson)
        print(f"GeoJSON written to {path}")
    return 0


def cmd_build_dataset(args) -> int:
    from repro.datasets.shenzhen_like import (
        ShenzhenLikeConfig,
        build_shenzhen_like,
    )
    from repro.io.persist import save_dataset

    config = ShenzhenLikeConfig(
        grid_rows=args.grid,
        grid_cols=args.grid,
        num_taxis=args.taxis,
        num_days=args.days,
        seed=args.seed,
    )
    print(f"Building dataset ({args.taxis} taxis x {args.days} days) ...")
    dataset = build_shenzhen_like(config)
    save_dataset(dataset, args.out)
    for key, value in dataset.describe():
        print(f"  {key}: {value}")
    print(f"Saved to {args.out}")
    return 0


def cmd_describe(args) -> int:
    dataset, client = _load_client(args.dataset)
    client.close()
    for key, value in dataset.describe():
        print(f"  {key}: {value}")
    return 0


def _run_query(args, direction: str, query) -> int:
    dataset, client = _load_client(
        args.dataset, disk=args.disk, disk_path=args.disk_path
    )
    request = Request(
        query,
        QueryOptions(
            direction=direction,
            algorithm=args.algorithm,
            delta_t_s=args.delta_t * 60,
            cost_budget_ms=args.budget,
        ),
    )
    with client:
        if args.explain:
            # One execution: the explanation carries the response it
            # observed.
            explanation = client.explain(request)
            print(explanation.to_text())
            response = explanation.response
        else:
            response = client.send(request)
    return _print_response(args, dataset, response)


def _s_query(args) -> SQuery:
    return SQuery(
        location=Point(args.x, args.y),
        start_time_s=args.time,
        duration_s=args.duration * 60.0,
        prob=args.prob,
    )


def cmd_query(args) -> int:
    return _run_query(args, "forward", _s_query(args))


def cmd_mquery(args) -> int:
    query = MQuery(
        locations=tuple(args.location),
        start_time_s=args.time,
        duration_s=args.duration * 60.0,
        prob=args.prob,
    )
    return _run_query(args, "forward", query)


def cmd_rquery(args) -> int:
    return _run_query(args, "reverse", _s_query(args))


def cmd_save(args) -> int:
    from repro.io.persist import save_store

    store = Path(args.store)
    # Route the index build onto a FileBackedDisk living *inside* the
    # store directory: every page written during the build is already
    # durable, so save_store takes the page-stable in-place path
    # (directory snapshot + checkpoint) instead of re-exporting pages.
    dataset, client = _load_client(
        args.dataset, disk="file", disk_path=str(store / "disk")
    )
    with client:
        save_store(client.engine, store, args.delta_t * 60)
        disk = client.engine.disk
        print(
            f"store saved to {store} (Δt {args.delta_t} min, "
            f"generation {disk.generation}, "
            f"{disk.num_pages} pages x {disk.page_size} B)"
        )
    return 0


def cmd_open(args) -> int:
    from types import SimpleNamespace

    client = _open_store_client(args.store)
    with client:
        disk = client.engine.disk
        print(
            f"opened store {args.store}: generation {disk.generation}, "
            f"{disk.num_pages} pages x {disk.page_size} B, "
            f"{disk.journal_record_count} journal record(s), "
            f"Δt {client.delta_t_s // 60} min"
        )
        request = Request(
            _s_query(args),
            QueryOptions(
                direction="forward",
                algorithm=args.algorithm,
                delta_t_s=client.delta_t_s,
                cost_budget_ms=args.budget,
            ),
        )
        response = client.send(request)
        code = _print_response(
            args, SimpleNamespace(network=client.network), response
        )
        print(
            f"cold pages faulted: {disk.pages_faulted}/{disk.num_pages} "
            "(checksum-verified on demand)"
        )
    return code


def cmd_batch(args) -> int:
    from repro.core.query import MQuery
    from repro.eval.tables import format_batch_report
    from repro.eval.workload import QueryWorkload

    if args.open is not None:
        if args.dataset is not None:
            raise CLIError("batch takes --dataset or --open, not both")
        sharded_kwargs = (
            dict(
                backend="sharded",
                shards=args.shards,
                shard_workers=args.workers,
                deadline_ms=args.deadline_ms,
                max_retries=args.max_retries,
            )
            if args.shards > 0
            else {}
        )
        client = _open_store_client(args.open, **sharded_kwargs)
        network = client.network
        # The store bundle fixes the index granularity; --delta-t would
        # trigger a from-scratch build against a stats-only database.
        delta_t_s = client.delta_t_s
    elif args.dataset is None:
        raise CLIError("batch needs --dataset DIR (or --open STORE)")
    else:
        dataset, client = _load_client(
            args.dataset,
            shards=args.shards,
            workers=args.workers,
            deadline_ms=args.deadline_ms,
            max_retries=args.max_retries,
        )
        network = dataset.network
        delta_t_s = args.delta_t * 60
    # No algorithm name is registered for every kind, so a forced
    # --algorithm applies to the kinds that register it and the rest of
    # the mixed workload stays auto-routed.
    if args.algorithm != AUTO and not any(
        has_executor(kind, args.algorithm) for kind in ("s", "m", "r")
    ):
        known = sorted(
            {name for kind in ("s", "m", "r") for name in executor_names(kind)}
        )
        raise CLIError(
            f"unknown algorithm {args.algorithm!r} "
            f"(registered: {', '.join(known)}, or auto)"
        )

    def algorithm_for(kind: str) -> str:
        if args.algorithm != AUTO and has_executor(kind, args.algorithm):
            return args.algorithm
        return AUTO

    workload = QueryWorkload(network, seed=args.seed)
    requests = [
        Request(
            query,
            QueryOptions(
                algorithm=algorithm_for(
                    "m" if isinstance(query, MQuery) else "s"
                ),
                delta_t_s=delta_t_s,
            ),
        )
        for query in workload.mixed_batch(
            args.s_queries,
            args.m_queries,
            duration_s=args.duration * 60.0,
            prob=args.prob,
        )
    ]
    # Reverse traffic: the advertising-style "who can reach here?" share
    # of a mixed tenant stream, expressible per request since the
    # envelope carries its own direction.
    reverse_options = QueryOptions(
        direction="reverse",
        algorithm=algorithm_for("r"),
        delta_t_s=delta_t_s,
        tag="reverse",
    )
    requests.extend(
        Request(query, reverse_options)
        for query in workload.s_queries(
            args.r_queries,
            duration_s=args.duration * 60.0,
            prob=args.prob,
            salt="r",
        )
    )
    total = len(requests)
    with client:
        if args.explain:
            if args.shards > 0:
                from repro.serving.dispatcher import (
                    DEFAULT_DEADLINE_MS,
                    DEFAULT_MAX_RETRIES,
                )

                deadline = (
                    args.deadline_ms
                    if args.deadline_ms is not None
                    else DEFAULT_DEADLINE_MS
                )
                retries = (
                    args.max_retries
                    if args.max_retries is not None
                    else DEFAULT_MAX_RETRIES
                )
                print(
                    f"backend: sharded ({args.shards} shards, "
                    f"{args.workers or args.shards} worker processes; "
                    f"deadline {deadline:.0f} ms, max {retries} retries, "
                    "degraded sub-batches fall back locally)"
                )
            decisions: dict[str, int] = {}
            for request in requests:
                decision = client.route(request)
                key = f"{decision.kind}:{decision.algorithm} [{decision.rule}]"
                decisions[key] = decisions.get(key, 0) + 1
            for key in sorted(decisions):
                print(f"  route {key}: {decisions[key]} request(s)")
        if args.shards > 0:
            # Sharded batches scatter whole sub-batches to worker
            # processes, so there is no per-response progress stream;
            # the report's per-shard rows show the breakdown instead.
            report = client.run_batch(requests, backend="sharded")
        else:
            stream = client.stream(requests)
            for done, response in enumerate(stream, start=1):
                print(f"[{done:>3}/{total}] {response.describe()}")
            print()
            report = stream.report
    print(format_batch_report(f"Batch report — {total} queries", report))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Spatio-temporal reachability queries over trajectory data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    build = sub.add_parser("build-dataset", help="generate + persist a dataset")
    build.add_argument("--out", required=True, help="output directory")
    build.add_argument("--grid", type=int, default=11, help="grid side (default 11)")
    build.add_argument("--taxis", type=int, default=400)
    build.add_argument("--days", type=int, default=30)
    build.add_argument("--seed", type=int, default=42)
    build.set_defaults(func=cmd_build_dataset)

    describe = sub.add_parser("describe", help="print dataset statistics")
    describe.add_argument("--dataset", required=True)
    describe.set_defaults(func=cmd_describe)

    query = sub.add_parser("query", help="single-location reachability query")
    _add_query_args(query)
    query.add_argument("--x", type=float, default=0.0)
    query.add_argument("--y", type=float, default=0.0)
    query.add_argument(
        "--algorithm", choices=(AUTO, *executor_names("s")), default=AUTO,
    )
    query.set_defaults(func=cmd_query)

    mquery = sub.add_parser("mquery", help="multi-location reachability query")
    _add_query_args(mquery)
    mquery.add_argument(
        "--location", type=_parse_location, action="append", required=True,
        help="X,Y (repeatable)",
    )
    mquery.add_argument(
        "--algorithm", choices=(AUTO, *executor_names("m")), default=AUTO,
    )
    mquery.set_defaults(func=cmd_mquery)

    rquery = sub.add_parser(
        "rquery", help="reverse query: who can reach this location?"
    )
    _add_query_args(rquery)
    rquery.add_argument("--x", type=float, default=0.0)
    rquery.add_argument("--y", type=float, default=0.0)
    rquery.add_argument(
        "--algorithm", choices=(AUTO, *executor_names("r")), default=AUTO,
    )
    rquery.set_defaults(func=cmd_rquery)

    save = sub.add_parser(
        "save",
        help="build indexes onto the durable file backend and persist "
             "a crash-safe store bundle",
    )
    save.add_argument("--dataset", required=True, help="dataset directory")
    save.add_argument("--store", required=True, help="output store directory")
    save.add_argument("--delta-t", type=int, default=5,
                      help="index granularity Δt in minutes (default 5)")
    save.set_defaults(func=cmd_save)

    open_cmd = sub.add_parser(
        "open",
        help="cold-open a saved store and answer one query from it",
    )
    open_cmd.add_argument("--store", required=True, help="store directory")
    open_cmd.add_argument("--x", type=float, default=0.0)
    open_cmd.add_argument("--y", type=float, default=0.0)
    open_cmd.add_argument("--time", type=_parse_time, default=day_time(11),
                          help="start time of day (default 11:00)")
    open_cmd.add_argument("--duration", type=float, default=10.0,
                          help="duration L in minutes (default 10)")
    open_cmd.add_argument("--prob", type=float, default=0.2)
    open_cmd.add_argument("--budget", type=float, default=None)
    open_cmd.add_argument(
        "--algorithm", choices=(AUTO, *executor_names("s")), default=AUTO,
    )
    open_cmd.add_argument("--geojson", type=Path, default=None,
                          help="write the region to this GeoJSON file")
    open_cmd.add_argument("--no-map", action="store_true",
                          help="skip the ASCII map")
    open_cmd.set_defaults(func=cmd_open)

    batch = sub.add_parser(
        "batch", help="stream a random workload through the client"
    )
    batch.add_argument("--dataset", default=None,
                       help="dataset directory (or use --open)")
    batch.add_argument("--open", default=None, metavar="STORE",
                       help="serve the batch from a saved store bundle "
                            "instead of building from a dataset")
    batch.add_argument("--s-queries", type=int, default=20,
                       help="number of s-queries (default 20)")
    batch.add_argument("--m-queries", type=int, default=5,
                       help="number of m-queries (default 5)")
    batch.add_argument("--r-queries", type=int, default=0,
                       help="number of reverse queries (default 0)")
    batch.add_argument("--duration", type=float, default=10.0,
                       help="s-query duration in minutes (default 10)")
    batch.add_argument("--prob", type=float, default=0.2)
    batch.add_argument("--delta-t", type=int, default=5,
                       help="index granularity Δt in minutes (default 5)")
    batch.add_argument("--algorithm", default=AUTO,
                       help="force this algorithm for the kinds that "
                            "register it; other requests stay auto-routed "
                            "(default: auto)")
    batch.add_argument("--workers", type=int, default=1,
                       help="with --shards: worker processes, each one "
                            "full engine replica (default 1)")
    batch.add_argument("--shards", type=int, default=0,
                       help="spatial routing groups dealt round-robin to "
                            "replica worker processes (default 0 = "
                            "single-process); the report gains one "
                            "breakdown row per group")
    batch.add_argument("--deadline-ms", type=float, default=None,
                       help="per-scatter reply deadline for the sharded "
                            "backend; a worker that misses it is retried "
                            "(default: engine default, 30000)")
    batch.add_argument("--max-retries", type=int, default=None,
                       help="bounded retry limit per scatter before the "
                            "sub-batch degrades to the local fallback "
                            "(default: engine default, 2)")
    batch.add_argument("--explain", action="store_true",
                       help="print the backend/fault-tolerance "
                            "configuration and the routing breakdown "
                            "before executing")
    batch.add_argument("--seed", type=int, default=7)
    batch.set_defaults(func=cmd_batch)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CLIError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
