"""A small command-line front end: ``python -m repro <command>``.

Commands:

- ``demo [--durable DIR] [--cache-stats]`` — the quickstart round trip,
  printed; with ``--durable`` the pad's triples are logged crash-safely
  under DIR; ``--cache-stats`` reports read-cache hit rates at exit.
- ``worksheet [--patients N] [--seed S] [--svg PATH] [--cache-stats]`` —
  build a rounds worksheet over a synthetic census; print the outline;
  optionally write the SVG rendering and/or the read-cache report.
- ``handoff [--patients N] [--seed S]`` — build a worksheet and print the
  weekend hand-off report.
- ``concordance TERM [TERM ...]`` — concordance + KWIC over the built-in
  corpus.
- ``models`` — define the built-in superimposed models and list them.
- ``recover DIR [--out PATH]`` — rebuild the durable store under DIR
  (snapshot + WAL tail) and print recovery statistics;
  optionally export the recovered triples to a plain XML file.
- ``replay record|run|verify`` — the deterministic replay harness:
  ``record`` captures the built-in crash scenario (a WAL byte-offset
  kill) as a schema-validated bundle; ``run`` re-executes a bundle N
  times against fresh stores and asserts every run recovers
  byte-identical state (and matches the bundle's recorded outcome);
  ``verify`` schema-checks a bundle without executing it.
- ``serve ROOT [--host H] [--port P] [--high-water N]
  [--idle-ttl SECONDS]`` — run the multi-tenant TRIM service
  (:mod:`repro.service`): an asyncio TCP front end where each tenant
  name maps to its own durable directory under ROOT.
  SIGTERM/SIGINT drain gracefully (flush every tenant, close WALs).

Every command runs through interrupt-safe dispatch: a Ctrl-C anywhere
exits with the conventional code 130 instead of a traceback, after the
command's cleanup (``finally`` blocks, context managers) has run.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional


def _print_cache_stats(stats: dict) -> None:
    """Render TrimManager.cache_stats() as a compact report."""
    select = stats.get("select_cache")
    print("\ncache stats:")
    if select is None:
        print("  select/query cache: disabled")
    else:
        print(f"  select/query cache: {select['hits']} hit(s), "
              f"{select['misses']} miss(es), "
              f"{select['invalidations']} invalidation(s), "
              f"{select['evictions']} eviction(s) "
              f"({select['hit_rate']:.1%} hit rate, "
              f"{select['entries']} entries, "
              f"avg fill {select['avg_fill_us']:.1f}us)")


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro import (DocumentLibrary, SlimPadApplication,
                       standard_mark_manager)
    from repro.base.spreadsheet import Workbook
    from repro.slimpad.render import render_text
    from repro.util.coordinates import Coordinate

    library = DocumentLibrary()
    meds = library.add(Workbook("meds.xls"))
    sheet = meds.add_sheet("Current")
    sheet.set_row(1, ["Drug", "Dose", "Route", "Schedule"])
    sheet.set_row(2, ["Lasix", "40mg", "IV", "BID"])
    manager = standard_mark_manager(library)
    pad = SlimPadApplication(manager)
    durable = getattr(args, "durable", None)
    if durable:
        pad.enable_durability(durable)
    pad.new_pad("Demo")
    pad.commit()
    excel = manager.application("spreadsheet")
    excel.open_workbook("meds.xls")
    excel.select_range("A2:D2")
    scrap = pad.create_scrap_from_selection(excel, label="Lasix 40mg",
                                            pos=Coordinate(10, 10))
    pad.commit()
    print(render_text(pad.pad))
    resolution = pad.double_click(scrap)
    print(f"\nde-referenced -> {resolution.address}")
    print(f"content: {resolution.content}")
    if durable:
        trim = pad.dmi.runtime.trim
        print(f"\ndurable state in {durable}: "
              f"{len(trim.store)} triples, "
              f"group {trim.durability.group} committed "
              f"(recover with: python -m repro recover {durable})")
    if getattr(args, "cache_stats", False):
        _print_cache_stats(pad.cache_stats())
    return 0


def _cmd_recover(args: argparse.Namespace) -> int:
    from repro.errors import PersistenceError
    from repro.triples import persistence
    from repro.triples.wal import recover

    try:
        result = recover(args.directory)
    except PersistenceError as exc:
        print(f"cannot recover: {exc}", file=sys.stderr)
        return 1
    store, namespaces = result.store, result.namespaces
    print(f"recovered {len(store)} triple(s) from {args.directory}")
    print(f"  snapshot: {result.snapshot_triples} triple(s) "
          f"(through group {result.snapshot_group})")
    print(f"  WAL tail: {result.groups_replayed} group(s), "
          f"{result.changes_replayed} change(s) replayed")
    if result.stage_seconds:
        parts = ", ".join(f"{stage.rsplit('_', 1)[0]} {seconds * 1000:.1f}ms"
                          for stage, seconds in result.stage_seconds.items())
        print(f"  stages: {parts}")
    if result.discarded_bytes:
        print(f"  discarded {result.discarded_bytes} corrupt/torn "
              f"byte(s) past the last complete group")
    if args.out:
        persistence.save(store, args.out, namespaces)
        print(f"recovered store written to {args.out}")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    import tempfile

    from repro.errors import BundleError, ReplayDivergenceError
    from repro.replay import bundle as bundle_format
    from repro.replay import replay_check
    from repro.replay.scenarios import capture_wal_kill

    if args.action == "record":
        directory = args.dir or tempfile.mkdtemp(prefix="repro-capture-")
        bundle = capture_wal_kill(directory, seed=args.seed)
        bundle_format.save(bundle, args.out)
        outcome = bundle["outcome"]
        print(f"captured {args.scenario} scenario -> {args.out}")
        print(f"  {len(bundle['ops'])} op(s), outcome: "
              f"{outcome['triples']} triple(s), "
              f"digest {outcome['digest'][:16]}…")
        print(f"  session directory: {directory}")
        print(f"  re-run with: python -m repro replay run {args.out}")
        return 0

    try:
        bundle = bundle_format.load(args.bundle)
    except BundleError as exc:
        print(f"invalid bundle: {exc}", file=sys.stderr)
        return 1
    if args.action == "verify":
        print(f"{args.bundle}: valid version-{bundle['version']} bundle "
              f"({len(bundle['ops'])} op(s))")
        return 0

    directory = args.dir or tempfile.mkdtemp(prefix="repro-replay-")
    try:
        results = replay_check(bundle, directory, runs=args.runs)
    except ReplayDivergenceError as exc:
        print(f"REPLAY DIVERGED: {exc}", file=sys.stderr)
        return 1
    first = results[0]
    print(f"{args.runs} replay(s) of {args.bundle}: all identical")
    print(f"  recovered {first.triples} triple(s), "
          f"digest {first.digest}")
    if first.op_latency_us:
        lat = first.op_latency_us
        print(f"  op latency: p50 {lat['p50_us']}us, "
              f"p95 {lat['p95_us']}us, p99 {lat['p99_us']}us")
    if first.killed_at is not None:
        print(f"  injected: WAL truncation at byte {first.killed_at}")
    outcome = bundle.get("outcome")
    if outcome is not None:
        print(f"  matches the captured outcome "
              f"({outcome['digest'][:16]}…)")
    return 0


def _cmd_worksheet(args: argparse.Namespace) -> int:
    from repro.slimpad.render import describe_structure, render_svg, render_text
    from repro.workloads.icu import generate_icu
    from repro.workloads.rounds import build_rounds_worksheet

    dataset = generate_icu(num_patients=args.patients, seed=args.seed)
    slimpad, _rows = build_rounds_worksheet(dataset)
    print(render_text(slimpad.pad))
    print("\nstructure:", describe_structure(slimpad.pad))
    if args.svg:
        svg = render_svg(slimpad.pad, width=1360,
                         height=80 + args.patients * 190)
        with open(args.svg, "w", encoding="utf-8") as handle:
            handle.write(svg)
        print(f"SVG written to {args.svg}")
    if getattr(args, "cache_stats", False):
        _print_cache_stats(slimpad.cache_stats())
    return 0


def _cmd_handoff(args: argparse.Namespace) -> int:
    from repro.slimpad.handoff import build_handoff
    from repro.workloads.icu import generate_icu
    from repro.workloads.rounds import build_rounds_worksheet

    dataset = generate_icu(num_patients=args.patients, seed=args.seed)
    slimpad, _rows = build_rounds_worksheet(dataset)
    print(build_handoff(slimpad).render())
    return 0


def _cmd_concordance(args: argparse.Namespace) -> int:
    from repro.workloads.concordance import build_concordance, kwic

    _slimpad, citations = build_concordance(args.terms)
    for term in sorted(citations):
        print(f"{term}: {len(citations[term])} use(s)")
        for line in kwic(term):
            print(f"  {line}")
    return 0


def _cmd_models(_args: argparse.Namespace) -> int:
    from repro.metamodel.builtin_models import define_all
    from repro.triples.trim import TrimManager

    trim = TrimManager()
    for model in define_all(trim):
        constructs = ", ".join(c.name for c in model.constructs())
        print(f"{model.name}: {constructs}")
        for connector in model.connectors():
            card = (f"{connector.min_card}.."
                    f"{'*' if connector.max_card is None else connector.max_card}")
            print(f"  {connector.name} [{card}]")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.server import TrimService

    service = TrimService(args.root, host=args.host, port=args.port,
                          high_water=args.high_water,
                          idle_ttl=args.idle_ttl)
    def announce(line: str) -> None:
        print(line, flush=True)
    return service.run(announce=announce)


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Bundles in Captivity (ICDE 2001) reproduction")
    commands = parser.add_subparsers(dest="command", required=True)

    demo = commands.add_parser("demo", help="the quickstart round trip")
    demo.add_argument("--durable", default=None, metavar="DIR",
                      help="log the pad crash-safely under this directory")
    demo.add_argument("--cache-stats", action="store_true",
                      help="print read-cache hit/miss counters at exit")
    demo.set_defaults(handler=_cmd_demo)

    worksheet = commands.add_parser("worksheet",
                                    help="build a rounds worksheet")
    worksheet.add_argument("--patients", type=int, default=3)
    worksheet.add_argument("--seed", type=int, default=2001)
    worksheet.add_argument("--cache-stats", action="store_true",
                           help="print read-cache hit/miss counters at exit")
    worksheet.add_argument("--svg", default=None,
                           help="write an SVG rendering to this path")
    worksheet.set_defaults(handler=_cmd_worksheet)

    handoff = commands.add_parser("handoff",
                                  help="print a weekend hand-off report")
    handoff.add_argument("--patients", type=int, default=3)
    handoff.add_argument("--seed", type=int, default=2001)
    handoff.set_defaults(handler=_cmd_handoff)

    concordance = commands.add_parser("concordance",
                                      help="concordance + KWIC")
    concordance.add_argument("terms", nargs="+")
    concordance.set_defaults(handler=_cmd_concordance)

    commands.add_parser("models", help="list the built-in models") \
        .set_defaults(handler=_cmd_models)

    recover = commands.add_parser(
        "recover", help="rebuild a durable store (snapshot + WAL tail)")
    recover.add_argument("directory",
                         help="durable directory (snapshot.slim + wal.log)")
    recover.add_argument("--out", default=None,
                         help="also export the recovered store to this XML file")
    recover.set_defaults(handler=_cmd_recover)

    replay = commands.add_parser(
        "replay", help="capture / re-run deterministic replay bundles")
    actions = replay.add_subparsers(dest="action", required=True)
    record = actions.add_parser(
        "record", help="capture a built-in crash scenario as a bundle")
    record.add_argument("--scenario", choices=["wal-kill"],
                        default="wal-kill",
                        help="which crash family to capture")
    record.add_argument("--out", default="replay-bundle.json",
                        help="bundle file to write")
    record.add_argument("--seed", type=int, default=2001,
                        help="workload + kill-point seed")
    record.add_argument("--dir", default=None,
                        help="capture session directory (default: temp)")
    record.set_defaults(handler=_cmd_replay)
    run = actions.add_parser(
        "run", help="re-execute a bundle; assert identical recovered state")
    run.add_argument("bundle", help="bundle file to replay")
    run.add_argument("--runs", type=int, default=2,
                     help="independent replays that must agree (default 2)")
    run.add_argument("--dir", default=None,
                     help="parent directory for replay stores (default: temp)")
    run.set_defaults(handler=_cmd_replay)
    verify = actions.add_parser(
        "verify", help="schema-validate a bundle without executing it")
    verify.add_argument("bundle", help="bundle file to check")
    verify.set_defaults(handler=_cmd_replay)

    serve = commands.add_parser(
        "serve", help="run the multi-tenant TRIM service (asyncio TCP)")
    serve.add_argument("root",
                       help="registry root (one durable subdir per tenant)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=7421,
                       help="TCP port; 0 picks an ephemeral port "
                            "(default 7421)")
    serve.add_argument("--high-water", type=int, default=64, metavar="N",
                       help="per-tenant inflight writes before RETRY_AFTER "
                            "(default 64)")
    serve.add_argument("--idle-ttl", type=float, default=300.0,
                       metavar="SECONDS",
                       help="close tenants idle this long (default 300)")
    serve.set_defaults(handler=_cmd_serve)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code.

    Dispatch is interrupt-safe: a :class:`KeyboardInterrupt` escaping any
    command (including ``serve``, whose signal handlers normally catch
    SIGINT first and drain before returning 130) is caught here so the
    process exits with the conventional ``128 + SIGINT`` code instead of
    dumping a traceback.  Cleanup registered by the command — ``finally``
    blocks, ``with TrimManager(...)`` exits — has already run by the time
    the interrupt reaches this frame.
    """
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    except BrokenPipeError:
        # Output piped into a pager that quit; conventional silent exit.
        return 0


if __name__ == "__main__":
    sys.exit(main())
