"""Command-line interface: ``python -m repro <command>``.

Commands cover the full generate → build → join → estimate pipeline so
the library is usable without writing code:

* ``generate`` — synthesize a data set (uniform/clustered/zipf/diagonal/
  tiger) to the text format of :mod:`repro.io`;
* ``inspect``  — report a data set's primitive properties (N, D, skew);
* ``build``    — index a data set and save the tree as JSON;
* ``join``     — run the measured SJ join over two saved trees and
  compare with the analytical estimate;
* ``query``    — range or k-nearest-neighbour query over a saved tree,
  with counted accesses;
* ``estimate`` — evaluate the cost model from raw (N, D) statistics,
  both role assignments (what a query optimizer would do);
* ``figures``  — print the paper's analytical figures (6a/6b/7a/7b) at
  exact paper scale;
* ``experiment`` — regenerate any table of DESIGN.md §3 by its registry
  id (``fig5a`` .. ``fig7b``, ``sec41``, ``sec42``, ``ts96``,
  ``levels``, ``a1`` .. ``e4``) at a chosen scale profile;
* ``verify``   — check a saved tree file's checksums and report what (if
  anything) is corrupt;
* ``report``   — summarize a JSONL trace written by ``join --trace``
  (event census, per-join counters, metrics snapshot, estimator
  accuracy; see ``docs/observability.md``);
* ``serve``    — run the join daemon: concurrent joins over registered
  trees behind O(1) cost-model admission, bounded queueing, per-tenant
  quotas and graceful drain (see ``docs/serving.md``);
* ``serve-join`` — run one join on such a daemon, mapping the HTTP
  protocol back onto these exit codes.

Exit codes are structured so scripts can react precisely:

* ``0`` — success;
* ``2`` — usage or data errors (bad arguments, malformed files,
  cost-model domain violations, mismatched checkpoints);
* ``3`` — corruption detected (a checksum failed);
* ``4`` — transient failures: read retries exhausted, a parallel worker
  crashed, or the serve daemon shed the request (overload, quota,
  draining — retry after the hinted delay);
* ``5`` — execution stopped by governance: a resource budget or
  deadline was exhausted, admission control rejected the query, or it
  was cancelled.  A machine-readable JSON reason is printed on stdout
  (see ``docs/operations.md``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Sequence

from .datasets import (LocalDensityGrid, clustered_rectangles,
                       diagonal_rectangles, tiger_like_segments,
                       uniform_rectangles, zipf_rectangles)
from .estimator import Estimator, estimate_batch
from .exec import (ADMISSION_MODES, Budget, BudgetExceeded, Cancelled,
                   ExecutionConfig, ExecutionGovernor, JoinCheckpoint)
from .io import load_dataset, load_tree, save_dataset, save_tree, \
    verify_tree_file
from .join import (ASSIGNMENT_STRATEGIES, EXECUTION_MODES,
                   ON_WORKER_CRASH, PAIR_ENUMERATIONS, STRATEGIES,
                   TRAVERSALS, PartialJoinResult, SpatialJoin,
                   WorkerCrashed, parallel_spatial_join)
from .reliability import (CorruptPageError, FaultInjector, FaultyPager,
                          ReproError, RetryPolicy, TransientPageError)
from .serve import Overloaded, ServiceDraining
from .storage import PathBuffer, buffer_from_spec

__all__ = ["EXIT_BUDGET", "EXIT_CORRUPT", "EXIT_TRANSIENT", "EXIT_USAGE",
           "main"]

GENERATORS = ("uniform", "clustered", "zipf", "diagonal", "tiger")

EXIT_USAGE = 2      #: bad arguments, malformed files, domain errors
EXIT_CORRUPT = 3    #: an integrity check failed
EXIT_TRANSIENT = 4  #: transient read failures exhausted the retry budget
EXIT_BUDGET = 5     #: budget/deadline exhausted, rejected, or cancelled


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (BudgetExceeded, Cancelled) as exc:
        # Machine-readable reason on stdout, prose on stderr.
        print(json.dumps(exc.as_dict()))
        print(f"error: execution stopped: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except CorruptPageError as exc:
        print(f"error: corrupt data: {exc}", file=sys.stderr)
        return EXIT_CORRUPT
    except WorkerCrashed as exc:
        # Infrastructure failure, like exhausted retries: the data is
        # fine, the run may succeed if repeated (or degraded to serial).
        print(json.dumps(exc.as_dict()))
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TRANSIENT
    except TransientPageError as exc:
        print(f"error: transient failures exhausted retries: {exc}",
              file=sys.stderr)
        return EXIT_TRANSIENT
    except (Overloaded, ServiceDraining) as exc:
        # The server shed this request; it may well succeed if retried
        # after the hinted delay — transient, like exhausted retries.
        print(json.dumps(exc.as_dict()))
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TRANSIENT
    except (ReproError, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Cost models for spatial joins (ICDE'98) toolbox")
    sub = parser.add_subparsers(required=True)

    gen = sub.add_parser("generate", help="synthesize a data set")
    gen.add_argument("kind", choices=GENERATORS)
    gen.add_argument("-n", type=int, required=True, help="cardinality")
    gen.add_argument("-d", "--density", type=float, default=0.5)
    gen.add_argument("--ndim", type=int, default=2)
    gen.add_argument("--seed", type=int, default=None)
    gen.add_argument("-o", "--output", required=True)
    gen.set_defaults(handler=_cmd_generate)

    ins = sub.add_parser("inspect", help="report data set statistics")
    ins.add_argument("dataset")
    ins.add_argument("--grid", type=int, default=5,
                     help="local-density grid resolution")
    ins.set_defaults(handler=_cmd_inspect)

    build = sub.add_parser("build", help="index a data set")
    build.add_argument("dataset")
    build.add_argument("-M", "--max-entries", type=int, default=24)
    build.add_argument("--variant", default="rstar",
                       choices=("rstar", "guttman-linear",
                                "guttman-quadratic", "str", "hilbert"))
    build.add_argument("-o", "--output", required=True)
    build.set_defaults(handler=_cmd_build)

    join = sub.add_parser("join", help="measured join of two saved trees")
    join.add_argument("tree1", help="R1 (data role)")
    join.add_argument("tree2", help="R2 (query role)")
    join.add_argument("--buffer", default="path",
                      help="'none', 'path', or 'lru:<pages>'")
    join.add_argument("--lenient", action="store_true",
                      help="quarantine corrupt subtrees instead of "
                           "failing on checksum mismatches")
    join.add_argument("--inject-transient", type=float, default=0.0,
                      metavar="RATE",
                      help="per-read transient-failure probability "
                           "(chaos mode)")
    join.add_argument("--inject-latency", type=float, default=0.0,
                      metavar="RATE",
                      help="per-read accounted-latency probability")
    join.add_argument("--fault-seed", type=int, default=0,
                      help="fault injector RNG seed")
    join.add_argument("--max-attempts", type=int, default=5,
                      help="retry budget per page read under faults")
    join.add_argument("--deadline", type=float, default=None,
                      metavar="SECONDS",
                      help="wall-clock budget for the traversal")
    join.add_argument("--max-na", type=int, default=None, metavar="N",
                      help="node-access budget")
    join.add_argument("--max-da", type=int, default=None, metavar="N",
                      help="disk-access budget")
    join.add_argument("--max-results", type=int, default=None,
                      metavar="N", help="result-pair budget")
    join.add_argument("--partial", action="store_true",
                      help="on budget exhaustion, report the partial "
                           "counters and a resumable checkpoint instead "
                           "of failing (still exits 5)")
    join.add_argument("--checkpoint", metavar="PATH", default=None,
                      help="where to save the checkpoint of a partial "
                           "run (with --partial)")
    join.add_argument("--resume", metavar="PATH", default=None,
                      help="resume a previously checkpointed join")
    join.add_argument("--admission", choices=ADMISSION_MODES,
                      default="warn",
                      help="compare the Eq. 7/10 predicted cost against "
                           "the budget before reading any page: warn "
                           "(default), reject (exit 5), or off")
    # Every execution default is ExecutionConfig's own.
    defaults = ExecutionConfig()
    join.add_argument("--pair-enum", dest="pair_enum",
                      choices=PAIR_ENUMERATIONS,
                      default=defaults.pair_enumeration,
                      help="node-pair matching kernel: the paper's "
                           "nested loops, the batched 'vectorized' "
                           "kernel (identical NA/DA), or the plane "
                           "sweeps (default: %(default)s)")
    join.add_argument("--traversal", choices=TRAVERSALS,
                      default=defaults.traversal,
                      help="traversal engine: 'level-batch' advances "
                           "whole frontiers per NumPy kernel call over "
                           "the tree arenas (the stack machine runs "
                           "where it cannot, e.g. under --inject-*), "
                           "'stack' is the paper's per-node-pair "
                           "machine; identical NA/DA/pairs/checkpoints "
                           "(default: %(default)s)")
    join.add_argument("--strategy", choices=STRATEGIES,
                      default=defaults.strategy,
                      help="join engine: the paper's synchronized "
                           "tree traversal, or 'pbsm' — uniform grid "
                           "partitioning with per-tile plane sweeps and "
                           "reference-point duplicate avoidance (same "
                           "pair set, different I/O profile; partials "
                           "are not resumable; default: %(default)s)")
    join.add_argument("--workers", type=int, default=None, metavar="W",
                      help="split the join into subtree-pair tasks over "
                           "W parallel workers (incompatible with "
                           "--partial/--checkpoint/--resume)")
    join.add_argument("--mode", choices=EXECUTION_MODES,
                      default=defaults.mode,
                      help="how parallel workers are driven "
                           "(with --workers; default: %(default)s)")
    join.add_argument("--assignment", choices=ASSIGNMENT_STRATEGIES,
                      default=defaults.assignment,
                      help="task-to-worker assignment (with --workers; "
                           "default: %(default)s)")
    join.add_argument("--worker-timeout", type=float,
                      default=defaults.worker_timeout,
                      metavar="SECONDS",
                      help="with --mode processes: declare the pool "
                           "crashed after this long without any bucket "
                           "completing (default: %(default)s)")
    join.add_argument("--on-worker-crash", choices=ON_WORKER_CRASH,
                      default=defaults.on_worker_crash,
                      help="with --mode processes: 'raise' a typed "
                           "error (exit 4) when a worker dies, or "
                           "'serial' to re-run the lost buckets "
                           "serially (default: %(default)s)")
    join.add_argument("--trace", metavar="OUT.jsonl", default=None,
                      help="write a structured JSONL trace of the run "
                           "(summarize it later with 'repro report'); "
                           "tracing never changes NA/DA")
    join.add_argument("--sample-pairs", type=int, default=0, metavar="N",
                      help="with --trace: emit every N-th node-pair "
                           "visit as a trace event (0 = none)")
    join.add_argument("--metrics", action="store_true",
                      help="collect counters/histograms for the run and "
                           "print them (also embedded in --trace output)")
    join.set_defaults(handler=_cmd_join)

    rep = sub.add_parser(
        "report", help="summarize a JSONL trace written by join --trace")
    rep.add_argument("trace", help="trace file (one JSON object per line)")
    rep.set_defaults(handler=_cmd_report)

    query = sub.add_parser(
        "query", help="range/kNN query over a saved tree")
    query.add_argument("tree")
    group = query.add_mutually_exclusive_group(required=True)
    group.add_argument("--window", nargs="+", type=float, metavar="C",
                       help="lo_1..lo_n hi_1..hi_n of the range window")
    group.add_argument("--knn", nargs="+", type=float, metavar="C",
                       help="query point coordinates")
    query.add_argument("-k", type=int, default=10,
                       help="neighbours for --knn")
    query.add_argument("--lenient", action="store_true",
                       help="quarantine corrupt subtrees instead of "
                            "failing on checksum mismatches")
    query.set_defaults(handler=_cmd_query)

    ver = sub.add_parser(
        "verify", help="check a saved tree file's checksums")
    ver.add_argument("tree")
    ver.set_defaults(handler=_cmd_verify)

    est = sub.add_parser("estimate",
                         help="analytical costs from (N, D) statistics")
    est.add_argument("--n1", type=int, default=None)
    est.add_argument("--d1", type=float, default=None)
    est.add_argument("--n2", type=int, default=None)
    est.add_argument("--d2", type=float, default=None)
    est.add_argument("--ndim", type=int, default=2)
    est.add_argument("-M", "--max-entries", type=int, default=50)
    est.add_argument("--fill", type=float, default=0.67)
    est.add_argument("--batch", metavar="GRID.json", default=None,
                     help="evaluate a whole parameter grid: a JSON list "
                          "of request records (n1, d1, n2, d2, and "
                          "optionally max_entries/ndim/fill/distance/"
                          "window/label) priced in one vectorized call")
    est.add_argument("-o", "--output", metavar="OUT.json", default=None,
                     help="with --batch: write the result records here "
                          "instead of stdout")
    est.set_defaults(handler=_cmd_estimate)

    fig = sub.add_parser("figures",
                         help="print the paper's analytical figures")
    fig.set_defaults(handler=_cmd_figures)

    exp = sub.add_parser(
        "experiment",
        help="regenerate one table of DESIGN.md §3 by its experiment id")
    exp.add_argument("id", help="e.g. fig5a, fig6b, sec41, a2 (the Command "
                                "column of DESIGN.md §3 has all 17; an "
                                "unknown id lists them)")
    exp.add_argument("--scale", default="bench",
                     choices=("smoke", "bench", "paper"),
                     help="sizes of the measured experiments: bench "
                          "(2K-10K objects, the default), paper (the "
                          "paper's 20K-80K; minutes per id) or smoke; "
                          "the analytic fig6*/fig7* are always at paper "
                          "scale")
    exp.add_argument("--deadline", type=float, default=None,
                     metavar="SECONDS",
                     help="wall-clock budget for the whole experiment")
    exp.add_argument("--max-na", type=int, default=None, metavar="N",
                     help="node-access budget per measured grid point")
    exp.add_argument("--max-da", type=int, default=None, metavar="N",
                     help="disk-access budget per measured grid point")
    exp.set_defaults(handler=_cmd_experiment)

    srv = sub.add_parser(
        "serve",
        help="run the join daemon (JSON over HTTP and unix socket)")
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument("--port", type=int, default=0,
                     help="TCP port (0 = ephemeral, printed on start; "
                          "-1 disables TCP)")
    srv.add_argument("--unix", metavar="PATH", default=None,
                     help="also listen on this unix-domain socket")
    srv.add_argument("--tree", action="append", default=[],
                     metavar="NAME=PATH",
                     help="register a saved tree at start (repeatable)")
    srv.add_argument("--max-concurrency", type=int, default=4,
                     help="joins executing simultaneously")
    srv.add_argument("--queue-limit", type=int, default=16,
                     help="admitted joins allowed to wait for a slot")
    srv.add_argument("--max-predicted-na", type=float, default=None,
                     metavar="NA",
                     help="reject joins whose Eq. 7 predicted NA "
                          "exceeds this, before any page read")
    srv.add_argument("--max-predicted-da", type=float, default=None,
                     metavar="DA",
                     help="reject joins whose Eq. 10 predicted DA "
                          "exceeds this")
    srv.add_argument("--default-deadline", type=float, default=None,
                     metavar="SECONDS",
                     help="per-request wall-clock budget when the "
                          "request carries none")
    srv.add_argument("--pool-pages", type=int, default=4096,
                     help="shared buffer-page pool that tenant quotas "
                          "carve up")
    srv.add_argument("--tenant-quota", action="append", default=[],
                     metavar="TENANT=PAGES",
                     help="per-tenant cap on concurrently held pool "
                          "pages (repeatable)")
    srv.add_argument("--serial-threshold", type=int, default=None,
                     metavar="N",
                     help="degrade process-parallel requests to serial "
                          "below this tree size (default 2000; see "
                          "join.parallel.processes_ms of "
                          "`python3 -m bench`)")
    srv.add_argument("--drain-grace", type=float, default=10.0,
                     metavar="SECONDS",
                     help="how long SIGTERM waits for running joins "
                          "before cancelling them")
    srv.add_argument("--state-dir", metavar="DIR", default=None,
                     help="durable state directory: registrations and "
                          "admitted joins survive a crash and are "
                          "recovered on restart (docs/serving.md)")
    srv.add_argument("--journal-fsync", type=float, default=0.0,
                     metavar="SECONDS",
                     help="journal fsync cadence: 0 = every record "
                          "(default), N = at most every N seconds, "
                          "negative = never (kill-safe, not "
                          "power-safe)")
    srv.add_argument("--spill-interval", type=int, default=None,
                     metavar="NA",
                     help="checkpoint a durable join every NA node "
                          "accesses (bounds re-done work after a "
                          "crash)")
    srv.add_argument("--read-timeout", type=float, default=None,
                     metavar="SECONDS",
                     help="drop clients that cannot deliver a full "
                          "request within this long (slow-loris "
                          "guard; default 30)")
    srv.add_argument("--trace", metavar="OUT.jsonl", default=None,
                     help="write a JSONL trace of every served join")
    srv.set_defaults(handler=_cmd_serve)

    sjoin = sub.add_parser(
        "serve-join",
        help="run one join on a daemon started with 'repro serve'")
    sjoin.add_argument("server",
                       help="http://host:port or unix:/path")
    sjoin.add_argument("tree1", help="registered name of R1")
    sjoin.add_argument("tree2", help="registered name of R2")
    sjoin.add_argument("--tenant", default="default")
    sjoin.add_argument("--deadline", type=float, default=None,
                       metavar="SECONDS")
    sjoin.add_argument("--max-na", type=int, default=None, metavar="N")
    sjoin.add_argument("--max-da", type=int, default=None, metavar="N")
    sjoin.add_argument("--max-results", type=int, default=None,
                       metavar="N")
    sjoin.add_argument("--buffer", default=None,
                       help="'none', 'path', or 'lru:<pages>'")
    sjoin.add_argument("--workers", type=int, default=None, metavar="W")
    sjoin.add_argument("--mode", choices=EXECUTION_MODES, default=None)
    sjoin.add_argument("--strategy", choices=STRATEGIES, default=None,
                       help="join engine: 'sync' (default) or 'pbsm'")
    sjoin.add_argument("--admission", choices=("off", "reject"),
                       default=None,
                       help="check the request's own budget "
                            "predictively too (server ceiling always "
                            "applies)")
    sjoin.add_argument("--resume-token", default=None,
                       help="continue an interrupted served join")
    sjoin.add_argument("--idempotency-key", default=None, metavar="KEY",
                       help="at-most-once execution: a retried KEY "
                            "replays the recorded result instead of "
                            "re-running the join (needs a daemon "
                            "--state-dir to survive restarts)")
    sjoin.add_argument("--retries", type=int, default=1, metavar="N",
                       help="attempts for transient failures "
                            "(overload, drain, daemon restarting); "
                            "full-jitter backoff honoring Retry-After "
                            "(default 1 = no retry)")
    sjoin.add_argument("--retry-deadline", type=float, default=30.0,
                       metavar="SECONDS",
                       help="wall-clock cap across all retry attempts")
    sjoin.add_argument("--timeout", type=float, default=300.0,
                       help="client-side HTTP timeout")
    sjoin.set_defaults(handler=_cmd_serve_join)
    return parser


def _cmd_generate(args: argparse.Namespace) -> int:
    factories = {
        "uniform": lambda: uniform_rectangles(
            args.n, args.density, args.ndim, seed=args.seed),
        "clustered": lambda: clustered_rectangles(
            args.n, args.density, args.ndim, seed=args.seed),
        "zipf": lambda: zipf_rectangles(
            args.n, args.density, args.ndim, seed=args.seed),
        "diagonal": lambda: diagonal_rectangles(
            args.n, args.density, args.ndim, seed=args.seed),
        "tiger": lambda: tiger_like_segments(args.n, seed=args.seed),
    }
    if args.kind == "tiger" and args.ndim != 2:
        raise ValueError("tiger-like data is two-dimensional")
    dataset = factories[args.kind]()
    save_dataset(dataset, args.output)
    print(f"wrote {dataset} to {args.output}")
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    ds = load_dataset(args.dataset)
    print(f"name:        {ds.name}")
    print(f"cardinality: {ds.cardinality}")
    if ds.cardinality == 0:
        return 0
    print(f"ndim:        {ds.ndim}")
    print(f"density:     {ds.density():.6f}")
    grid = LocalDensityGrid(ds, args.grid)
    print(f"skew (cv of {args.grid}^n cell counts): "
          f"{grid.skew_coefficient():.3f}")
    print(f"occupied cells: {grid.occupied_cells()}/{len(grid)}")
    return 0


def _cmd_build(args: argparse.Namespace) -> int:
    from .experiments import build_tree
    ds = load_dataset(args.dataset)
    tree = build_tree(ds, args.max_entries, args.variant)
    save_tree(tree, args.output)
    print(f"built {args.variant} tree: height {tree.height}, "
          f"{len(tree.pager)} nodes, fill {tree.average_fill():.2f}; "
          f"wrote {args.output}")
    return 0


def _cmd_join(args: argparse.Namespace) -> int:
    # The one config door: a combination it refuses (--strategy pbsm
    # with a worker pool) is a usage error before any file is read.
    exec_cfg = ExecutionConfig(pair_enumeration=args.pair_enum,
                               traversal=args.traversal,
                               strategy=args.strategy)
    if args.workers is not None:
        exec_cfg = exec_cfg.with_options(
            mode=args.mode, workers=args.workers,
            assignment=args.assignment,
            worker_timeout=args.worker_timeout,
            on_worker_crash=args.on_worker_crash)
    strict = not args.lenient
    t1 = load_tree(args.tree1, strict=strict)
    t2 = load_tree(args.tree2, strict=strict)
    for tree in (t1, t2):
        report = getattr(tree, "corruption_report", None)
        if report is not None and not report.clean:
            print(f"warning: degraded load: {report.summary()}",
                  file=sys.stderr)
    buffer = buffer_from_spec(args.buffer)
    budget = Budget(deadline=args.deadline, max_na=args.max_na,
                    max_da=args.max_da, max_results=args.max_results)

    # Primitive properties (N, D) for the analytical comparison, read
    # before any fault injection wraps the pagers — and remembered with
    # the trees, so admission prices the join from the same numbers.
    est = Estimator.from_trees(t1, t2)
    retry_policy = None
    if args.inject_transient or args.inject_latency:
        injector = FaultInjector(seed=args.fault_seed,
                                 transient_rate=args.inject_transient,
                                 latency_rate=args.inject_latency)
        t1.pager = FaultyPager(t1.pager, injector)
        t2.pager = FaultyPager(t2.pager, injector)
        retry_policy = RetryPolicy(max_attempts=args.max_attempts)

    # Admission control is the governor's: it compares the predicted
    # cost (Eq. 7/10, computed from catalog-style statistics only)
    # against the budget before a single metered page read.  A
    # rejection leaves all access counters at zero.
    governor = None
    if not budget.unlimited or args.partial:
        governor = ExecutionGovernor(budget, partial=args.partial,
                                     admission=args.admission)

    if args.workers is not None and (args.partial or args.checkpoint
                                     or args.resume):
        print("--workers is incompatible with --partial, "
              "--checkpoint and --resume (checkpoints describe the "
              "single synchronized traversal)", file=sys.stderr)
        return 2
    if args.strategy == "pbsm" and (args.checkpoint or args.resume):
        print("--strategy pbsm is incompatible with --checkpoint and "
              "--resume (PBSM partials are not resumable; checkpoints "
              "describe the synchronized traversal)", file=sys.stderr)
        return 2

    # Observability hooks (repro.obs): write-only, so a traced/metered
    # run counts exactly what an unobserved one does.
    tracer = metrics = ledger = None
    if args.metrics:
        from .obs import MetricsRegistry
        metrics = MetricsRegistry()
    if args.trace is not None:
        from .obs import AccuracyLedger, JsonlSink, Tracer
        tracer = Tracer(JsonlSink(args.trace),
                        sample_pairs=args.sample_pairs)
        ledger = AccuracyLedger(tracer=tracer)
    try:
        return _run_join(args, t1, t2, buffer, retry_policy, governor,
                         tracer, metrics, ledger, exec_cfg, est)
    finally:
        decision = governor.last_admission if governor is not None else None
        if decision is not None and not decision.allowed \
                and args.admission == "warn":
            refused = decision.rejection()
            print(f"warning: admission: predicted "
                  f"{refused.resource.upper()} {refused.observed:.0f} "
                  f"exceeds the budget of {refused.limit:.0f}; proceeding "
                  f"(--admission reject would refuse)",
                  file=sys.stderr)
        if tracer is not None:
            if metrics is not None:
                tracer.metrics(metrics.as_dict())
            tracer.close()


def _run_join(args, t1, t2, buffer, retry_policy, governor,
              tracer, metrics, ledger, exec_cfg, est) -> int:
    """The measured part of ``repro join``, after setup/validation."""
    if args.workers is not None:
        result = parallel_spatial_join(
            t1, t2, collect_pairs=False, governor=governor,
            tracer=tracer, metrics=metrics, config=exec_cfg)
        print(f"R1: {args.tree1} (N={len(t1)}, h={t1.height})")
        print(f"R2: {args.tree2} (N={len(t2)}, h={t2.height})")
        print(f"result pairs: {result.pair_count}")
        print(f"workers: {result.workers} (mode={args.mode}, "
              f"assignment={args.assignment}, "
              f"pair-enum={args.pair_enum})")
        print(_engine_line(result))
        print(f"total NA: {result.total_na}, total DA: "
              f"{result.total_da}")
        print(f"makespan NA: {result.makespan_na}, makespan DA: "
              f"{result.makespan_da}")
        _print_obs(args, metrics, ledger)
        return 0

    sj = SpatialJoin(t1, t2, buffer=buffer, retry_policy=retry_policy,
                     governor=governor, tracer=tracer, metrics=metrics,
                     ledger=ledger, config=exec_cfg)
    if args.resume is not None:
        result = sj.resume(JoinCheckpoint.load(args.resume))
    else:
        result = sj.run(collect_pairs=False)

    print(f"R1: {args.tree1} (N={len(t1)}, h={t1.height})")
    print(f"R2: {args.tree2} (N={len(t2)}, h={t2.height})")
    print(_engine_line(result))
    if result.complete:
        print(f"result pairs: {result.pair_count}")
    print(f"node accesses NA: {result.na_total} "
          f"(R1 {result.na('R1')}, R2 {result.na('R2')})")
    print(f"disk accesses DA: {result.da_total} "
          f"(R1 {result.da('R1')}, R2 {result.da('R2')})")
    if retry_policy is not None:
        print(f"retried reads: {result.stats.retry_count()} "
              f"(accounted backoff "
              f"{result.stats.accounted_backoff * 1e3:.1f} ms)")
    _print_obs(args, metrics, ledger)

    if isinstance(result, PartialJoinResult):
        print(f"partial pairs so far: {result.pair_count}")
        if result.remaining_na_estimate is not None:
            print(f"estimated remaining (Eq. 7/10): "
                  f"NA {result.remaining_na_estimate:.0f}, "
                  f"DA {result.remaining_da_estimate:.0f}")
        if result.checkpoint is None:
            # PBSM partials carry no checkpoint (tile progress is not
            # serialized) — the counters and pairs are still valid.
            print("partial result is not resumable "
                  "(strategy produces no checkpoint)", file=sys.stderr)
        elif args.checkpoint is not None:
            result.checkpoint.save(args.checkpoint)
            print(f"checkpoint saved to {args.checkpoint} "
                  f"(resume with --resume {args.checkpoint})")
        else:
            print("no --checkpoint path given; partial progress is "
                  "not resumable", file=sys.stderr)
        print(json.dumps(result.reason.as_dict()))
        return EXIT_BUDGET

    # Analytical comparison from the trees' own primitive properties.
    print(f"analytical: NA = {est.na():.0f}, "
          f"DA = {est.da():.0f}, "
          f"pairs = {est.selectivity():.0f}")
    return 0


def _engine_line(result) -> str:
    """Which engine ran, and why it is not the one asked for."""
    why = "" if result.fallback is None else f" (fallback={result.fallback})"
    return f"engine={result.engine}{why}"


def _print_obs(args: argparse.Namespace, metrics, ledger) -> None:
    """Human-readable tail for ``join --metrics`` / ``--trace``."""
    if metrics is not None:
        snap = metrics.as_dict()
        for name in sorted(snap["counters"]):
            print(f"metric {name}: {snap['counters'][name]}")
    if ledger is not None and ledger.records:
        rec = ledger.records[-1]
        fmt = (lambda e: "undefined" if e is None else f"{e:+.1%}")
        print(f"estimator accuracy: NA error {fmt(rec.na_error)}, "
              f"DA error {fmt(rec.da_error)}")
    if args.trace is not None:
        print(f"trace written to {args.trace}")


def _cmd_report(args: argparse.Namespace) -> int:
    from .obs import load_trace, render_report
    print(render_report(load_trace(args.trace)))
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    from .geometry import Rect
    from .rtree import nearest_neighbors
    from .storage import AccessStats, MeteredReader

    tree = load_tree(args.tree, strict=not args.lenient)
    report = getattr(tree, "corruption_report", None)
    if report is not None and not report.clean:
        print(f"warning: degraded load: {report.summary()}",
              file=sys.stderr)
    stats = AccessStats()
    reader = MeteredReader(tree.pager, "T", stats, PathBuffer())
    if args.window is not None:
        coords = args.window
        if len(coords) != 2 * tree.ndim:
            raise ValueError(
                f"--window needs {2 * tree.ndim} coordinates for this "
                f"{tree.ndim}-d tree, got {len(coords)}")
        window = Rect(coords[:tree.ndim], coords[tree.ndim:])
        oids = tree.range_query(window, reader=reader)
        print(f"range query {window!r}: {len(oids)} objects")
        preview = ", ".join(str(o) for o in sorted(oids)[:20])
        if oids:
            print(f"oids: {preview}{' ...' if len(oids) > 20 else ''}")
    else:
        if len(args.knn) != tree.ndim:
            raise ValueError(
                f"--knn needs {tree.ndim} coordinates for this "
                f"{tree.ndim}-d tree, got {len(args.knn)}")
        hits = nearest_neighbors(tree, args.knn, args.k, reader=reader)
        print(f"{len(hits)} nearest neighbours of {tuple(args.knn)}:")
        for oid, dist in hits:
            print(f"  oid {oid}  distance {dist:.6f}")
    print(f"node accesses: {stats.na('T')} "
          f"(disk under a path buffer: {stats.da('T')})")
    return 0


def _cmd_estimate(args: argparse.Namespace) -> int:
    if args.batch is not None:
        return _cmd_estimate_batch(args)
    missing = [name for name in ("n1", "d1", "n2", "d2")
               if getattr(args, name) is None]
    if missing:
        raise ValueError(
            f"estimate needs --{' --'.join(missing)} "
            f"(or --batch GRID.json)")
    est = Estimator.from_stats(args.n1, args.d1, args.n2, args.d2,
                               args.max_entries, args.ndim, args.fill)
    result = est.estimate()
    print(f"R1: N={args.n1}, D={args.d1} -> height {result.height_left}")
    print(f"R2: N={args.n2}, D={args.d2} -> height {result.height_right}")
    print(f"NA_total (Eq. 7/11, role-independent): {result.na:.1f}")
    print(f"DA_total (Eq. 10/12): {result.da:.1f} with R2 as query "
          f"tree, {result.da_swapped:.1f} with roles swapped")
    better = "keep" if result.da <= result.da_swapped else "swap"
    print(f"role advice: {better} "
          f"(saves {abs(result.da - result.da_swapped):.1f} "
          f"disk accesses)")
    print(f"expected result pairs (§5): {result.selectivity:.1f}")
    return 0


def _cmd_estimate_batch(args: argparse.Namespace) -> int:
    """``repro estimate --batch grid.json``: one vectorized sweep."""
    with open(args.batch, "r", encoding="utf-8") as fh:
        records = json.load(fh)
    if not isinstance(records, list):
        raise ValueError(
            "--batch expects a JSON list of request records")
    result = estimate_batch(records)
    payload = {"mixed_height_mode": result.mixed_height_mode,
               "results": result.as_records()}
    text = json.dumps(payload, indent=2)
    if args.output is not None:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"wrote {len(result)} estimates to {args.output}")
    else:
        print(text)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    report = verify_tree_file(args.tree)
    print(report.summary())
    if not report.clean:
        if report.corrupt_pages:
            print(f"corrupt pages: "
                  f"{', '.join(map(str, report.corrupt_pages))}")
        if report.orphaned_pages:
            print(f"orphaned pages: "
                  f"{', '.join(map(str, report.orphaned_pages))}")
        print(f"dropped entries: {report.dropped_entries}, "
              f"objects lost: {report.lost_objects}")
        return EXIT_CORRUPT
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    from .experiments import run_experiment
    for exp_id in ("fig6a", "fig6b", "fig7a", "fig7b"):
        print()
        print(run_experiment(exp_id))
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from .experiments import run_experiment
    governor = None
    budget = Budget(deadline=args.deadline, max_na=args.max_na,
                    max_da=args.max_da)
    if not budget.unlimited:
        governor = ExecutionGovernor(budget)
    print(run_experiment(args.id, args.scale, governor=governor))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """``repro serve``: run the daemon until SIGTERM/SIGINT drains it."""
    import asyncio

    from .serve import JoinService, ServeConfig, ServeDaemon

    def _pairs(specs, what):
        out = {}
        for spec in specs:
            name, sep, value = spec.partition("=")
            if not sep or not name:
                raise ValueError(f"--{what} expects NAME=VALUE, "
                                 f"got {spec!r}")
            out[name] = value
        return out

    quotas = {tenant: int(pages) for tenant, pages
              in _pairs(args.tenant_quota, "tenant-quota").items()}
    config_kw = dict(
        host=args.host,
        port=None if args.port < 0 else args.port,
        unix_path=args.unix,
        max_concurrency=args.max_concurrency,
        queue_limit=args.queue_limit,
        max_predicted_na=args.max_predicted_na,
        max_predicted_da=args.max_predicted_da,
        default_deadline=args.default_deadline,
        pool_pages=args.pool_pages,
        tenant_quotas=quotas,
        drain_grace=args.drain_grace,
        state_dir=args.state_dir,
        journal_fsync_interval=(None if args.journal_fsync < 0
                                else args.journal_fsync))
    if args.serial_threshold is not None:
        config_kw["serial_threshold"] = args.serial_threshold
    if args.spill_interval is not None:
        config_kw["spill_na_interval"] = args.spill_interval
    if args.read_timeout is not None:
        config_kw["read_timeout"] = args.read_timeout
    config = ServeConfig(**config_kw)

    tracer = None
    if args.trace is not None:
        from .obs import JsonlSink, Tracer
        tracer = Tracer(JsonlSink(args.trace))
    service = JoinService(config, tracer=tracer)
    # Recover BEFORE registering --tree flags: a flag for an already
    # journaled name re-registers the same tree, not a duplicate, and
    # orphaned joins resume against the recovered registrations.
    recovery = service.recover() if service.durable is not None else None
    for name, path in _pairs(args.tree, "tree").items():
        service.register_tree_file(name, path)
    daemon = ServeDaemon(service)

    async def _serve() -> bool:
        addresses = await daemon.start()
        started = {"serving": addresses,
                   "trees": [t["name"] for t in service.trees()],
                   "pid": os.getpid()}
        if recovery is not None:
            started["recovered"] = recovery
        print(json.dumps(started), flush=True)
        return await daemon.run_forever()

    try:
        clean = asyncio.run(_serve())
    finally:
        if tracer is not None:
            tracer.metrics(service.metrics.as_dict())
            tracer.close()
    if clean:
        print(json.dumps({"drained": "clean"}))
        return 0
    print(json.dumps({"drained": "cancelled"}))
    print("warning: drain grace expired; running joins were "
          "cancelled cooperatively", file=sys.stderr)
    return EXIT_TRANSIENT


def _cmd_serve_join(args: argparse.Namespace) -> int:
    """``repro serve-join``: one remote join, local exit-code protocol.

    Exit codes mirror ``repro join``: 0 complete, 5 for anything the
    cost governance stopped (admission rejection, budget exhaustion,
    cancellation — and a *partial* result, which prints its resume
    token), 4 when the server shed the request (overload, quota,
    draining), 2 for usage errors (unknown tree, bad token).
    """
    from .serve import ClientRetryPolicy, ServeClient

    options = {"tenant": args.tenant, "deadline": args.deadline,
               "max_na": args.max_na, "max_da": args.max_da,
               "max_results": args.max_results, "buffer": args.buffer,
               "workers": args.workers, "mode": args.mode,
               "strategy": args.strategy,
               "admission": args.admission,
               "resume_token": args.resume_token}
    client = ServeClient(args.server, timeout=args.timeout)
    options = {k: v for k, v in options.items() if v is not None}
    if args.retries > 1:
        policy = ClientRetryPolicy(max_attempts=args.retries,
                                   deadline=args.retry_deadline)
        response = client.join_with_retry(
            args.tree1, args.tree2,
            idempotency_key=args.idempotency_key, retry=policy,
            **options)
    else:
        response = client.join(args.tree1, args.tree2,
                               idempotency_key=args.idempotency_key,
                               **options)
    print(json.dumps(response))
    if response.get("status") == "partial":
        print(f"partial result; resume with --resume-token "
              f"{response['resume_token'][:24]}...", file=sys.stderr)
        return EXIT_BUDGET
    return 0


if __name__ == "__main__":   # pragma: no cover
    sys.exit(main())
