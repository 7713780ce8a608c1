"""Command-line entry point: ``ogdp-repro``.

Examples::

    ogdp-repro list
    ogdp-repro run table05
    ogdp-repro run all --scale 0.5 --seed 11
    ogdp-repro run table03 --trace-out trace.jsonl
    ogdp-repro profile-report trace.jsonl --top 5
    ogdp-repro run all --profile-out profile.json
    ogdp-repro profile-report profile.json --top 15
    ogdp-repro fidelity --json --out fidelity.json
    ogdp-repro diff runs/a runs/b
    ogdp-repro diff baseline.json candidate.json
    ogdp-repro bench-report
    ogdp-repro serve --scale 0.25 --port 8323
    ogdp-repro loadtest --mix smoke --report load.json

Output discipline: rendered experiment results, the degradation
appendix, and reports go to **stdout** (they are the product);
diagnostics go through :mod:`repro.obs.log` to **stderr**, gated by
``--quiet`` / ``-v``.
"""

from __future__ import annotations

import argparse
import json
import pathlib

from ..core.config import StudyConfig
from ..obs import baseline
from ..obs.log import QUIET, configure_log, get_log
from ..obs.profile import (
    collapsed_lines,
    load_any_profile,
    profile_report_json,
    render_profile_report,
)
from .corpus import get_study
from .registry import experiment_ids, run_all, run_experiment


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"must be >= 0, got {value}"
        )
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be >= 1, got {value}"
        )
    return value


def _rate(text: str) -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(
            f"must be in [0, 1], got {value}"
        )
    return value


def _add_corpus_flags(parser: argparse.ArgumentParser) -> None:
    """The corpus identity every study-building command takes."""
    defaults = StudyConfig()
    parser.add_argument(
        "--scale",
        type=float,
        default=defaults.scale,
        help=f"corpus scale (default {defaults.scale})",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=defaults.seed,
        help=f"master seed (default {defaults.seed})",
    )


def _add_pool_flags(parser: argparse.ArgumentParser) -> None:
    """The worker-pool knobs of ``run``."""
    defaults = StudyConfig()
    parser.add_argument(
        "--workers",
        type=_positive_int,
        default=defaults.workers,
        help=(
            f"worker processes (default {defaults.workers} = in-process); "
            "> 1 shards the per-table units across a crash-supervised "
            "pool whose results diff empty against a serial run"
        ),
    )
    parser.add_argument(
        "--unit-retries",
        type=_nonnegative_int,
        default=defaults.unit_retries,
        help=(
            "times a unit whose worker died is re-dispatched before "
            "being quarantined as a poison unit "
            f"(default {defaults.unit_retries})"
        ),
    )
    parser.add_argument(
        "--chaos-kill-rate",
        type=_rate,
        default=defaults.chaos_kill_rate,
        help=(
            "seeded probability that a worker SIGKILLs itself mid-unit "
            "(chaos mode exercising the supervisor; "
            f"default {defaults.chaos_kill_rate})"
        ),
    )
    parser.add_argument(
        "--shard-dir",
        default=defaults.shard_dir,
        help=(
            "directory for per-worker shard journals (default: a "
            "temporary directory discarded after the merge)"
        ),
    )


def _add_json_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--json",
        dest="as_json",
        action="store_true",
        help="emit the machine-readable JSON document instead of text",
    )


def _add_top_flag(
    parser: argparse.ArgumentParser, default: int, what: str
) -> None:
    parser.add_argument(
        "--top",
        type=_positive_int,
        default=default,
        help=f"how many {what} to list (default {default})",
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for the CLI."""
    parser = argparse.ArgumentParser(
        prog="ogdp-repro",
        description=(
            "Reproduce the tables and figures of 'Analysis of Open "
            "Government Datasets From a Data Design and Integration "
            "Perspective' (EDBT 2024) on a simulated corpus."
        ),
    )
    parser.add_argument(
        "-q",
        "--quiet",
        action="store_true",
        help="suppress diagnostics on stderr (warnings still shown)",
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="enable debug diagnostics on stderr",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    list_parser = subparsers.add_parser(
        "list", help="list available experiments"
    )
    list_parser.set_defaults(handler=_run_list)
    run_parser = subparsers.add_parser("run", help="run experiment(s)")
    run_parser.set_defaults(handler=_run_experiments)
    run_parser.add_argument(
        "experiment",
        help="experiment id (e.g. table05, figure08) or 'all'",
    )
    _add_corpus_flags(run_parser)
    run_parser.add_argument(
        "--max-retries",
        type=_nonnegative_int,
        default=0,
        help=(
            "crawl retry budget per resource (default 0 = the paper's "
            "single-shot crawl); > 0 also enables circuit breaking and "
            "rate limiting"
        ),
    )
    run_parser.add_argument(
        "--checkpoint-dir",
        default=None,
        help="directory for resumable crawl/study journals (default: off)",
    )
    run_parser.add_argument(
        "--no-resume",
        action="store_true",
        help=(
            "discard existing crawl, study and shard journals; re-fetch "
            "and re-analyze everything"
        ),
    )
    run_parser.add_argument(
        "--stage-budget",
        type=_positive_int,
        default=None,
        help=(
            "per-(stage, table) work budget in deterministic ticks; "
            "tables that blow it are truncated or quarantined "
            "(default: unlimited)"
        ),
    )
    run_parser.add_argument(
        "--quarantine-dir",
        default=None,
        help=(
            "also write one JSON record per quarantined table to this "
            "directory (quarantines are always applied in memory)"
        ),
    )
    run_parser.add_argument(
        "--poison-rate",
        type=_rate,
        default=0.0,
        help=(
            "poison-table injection rate for fault-injection runs "
            "(default 0.0 = the calibrated corpus)"
        ),
    )
    run_parser.add_argument(
        "--trace-out",
        default=None,
        help=(
            "write a hierarchical span trace (JSONL) of the run to "
            "this file; inspect it with 'ogdp-repro profile-report'"
        ),
    )
    run_parser.add_argument(
        "--profile-out",
        default=None,
        help=(
            "write the deterministic tick-attribution profile (JSON) "
            "to this file; inspect it with 'ogdp-repro profile-report'"
        ),
    )
    _add_pool_flags(run_parser)
    fidelity_parser = subparsers.add_parser(
        "fidelity",
        help="PASS/NEAR/DIVERGENT scoreboard of paper fidelity",
    )
    fidelity_parser.set_defaults(handler=_run_fidelity)
    _add_corpus_flags(fidelity_parser)
    _add_json_flag(fidelity_parser)
    fidelity_parser.add_argument(
        "--out",
        default=None,
        help="also write the JSON document to this file (e.g. fidelity.json)",
    )
    diff_parser = subparsers.add_parser(
        "diff", help="compare two runs' traces, profiles and fidelity exactly"
    )
    diff_parser.set_defaults(handler=_run_diff)
    diff_parser.add_argument(
        "run_a",
        help=(
            "first run: a trace file, a profile artifact, or a directory "
            "holding trace.jsonl, profile.json and/or fidelity.json"
        ),
    )
    diff_parser.add_argument("run_b", help="second run, in the same forms")
    _add_json_flag(diff_parser)
    diff_parser.add_argument(
        "--out",
        default=None,
        help="also write the JSON diff report to this file",
    )
    bench_parser = subparsers.add_parser(
        "bench-report",
        help="print the latest record of each BENCH_*.json history",
    )
    bench_parser.set_defaults(handler=_run_bench_report)
    bench_parser.add_argument(
        "--root",
        default=".",
        help="directory holding BENCH_*.json files (default: cwd)",
    )
    _add_json_flag(bench_parser)
    serve_parser = subparsers.add_parser(
        "serve",
        help="serve the built study's data lake over HTTP (CKAN-shaped)",
    )
    serve_parser.set_defaults(handler=_run_serve)
    _add_corpus_flags(serve_parser)
    serve_parser.add_argument(
        "--host", default=None, help="bind address (default 127.0.0.1)"
    )
    serve_parser.add_argument(
        "--port",
        type=_nonnegative_int,
        default=None,
        help="bind port (default 8323; 0 picks an ephemeral port)",
    )
    serve_parser.add_argument(
        "--slo",
        default=None,
        help=(
            "JSON file of service-level objectives evaluated live "
            "(default: the library defaults; /statz shows the verdict)"
        ),
    )
    load_parser = subparsers.add_parser(
        "loadtest",
        help="run the deterministic load harness against the served lake",
    )
    load_parser.set_defaults(handler=_run_loadtest)
    _add_corpus_flags(load_parser)
    load_parser.add_argument(
        "--mix",
        default="smoke",
        help="client mix: 'smoke', 'standard', or 'storm' (default smoke)",
    )
    load_parser.add_argument(
        "--trace-out",
        default=None,
        help=(
            "write the per-request serve trace (JSONL) to this file; "
            "inspect it with 'ogdp-repro serve-report'"
        ),
    )
    load_parser.add_argument(
        "--profile-out",
        default=None,
        help=(
            "write the handler-attribution profile (JSON) of the load "
            "run to this file ('serve;<family>;...' frames)"
        ),
    )
    load_parser.add_argument(
        "--load-seed",
        type=int,
        default=None,
        help="harness seed for client scripting (default: the mix's own)",
    )
    load_parser.add_argument(
        "--report",
        default=None,
        help="write the canonical JSON load report to this file",
    )
    _add_json_flag(load_parser)
    load_parser.add_argument(
        "--bench-root",
        default=None,
        help=(
            "append this run's record to BENCH_serve.json under this "
            "directory (read back by bench-report)"
        ),
    )
    serve_report_parser = subparsers.add_parser(
        "serve-report",
        help="RED tables, SLO verdict, and exemplars from a serve trace",
    )
    serve_report_parser.set_defaults(handler=_run_serve_report)
    serve_report_parser.add_argument(
        "trace", help="trace file written by 'loadtest --trace-out'"
    )
    serve_report_parser.add_argument(
        "--slo",
        default=None,
        help=(
            "re-judge the trace against this JSON SLO spec instead of "
            "the one recorded in the trace header"
        ),
    )
    _add_json_flag(serve_report_parser)
    _add_top_flag(serve_report_parser, 10, "exemplar span trees")
    serve_report_parser.add_argument(
        "--fail-on-exhausted",
        action="store_true",
        help="exit non-zero when the SLO verdict is EXHAUSTED",
    )
    profile_report_parser = subparsers.add_parser(
        "profile-report",
        help="flame-attribution hotspot report from a profile or trace",
    )
    profile_report_parser.set_defaults(handler=_run_profile_report)
    profile_report_parser.add_argument(
        "source",
        help=(
            "a profile written by 'run --profile-out' or a trace "
            "written by 'run --trace-out' (span ops fold into "
            "'study;<portal>;<stage>' frames, and the report adds the "
            "unit outcomes, top tables, and degradation ledger)"
        ),
    )
    _add_json_flag(profile_report_parser)
    _add_top_flag(
        profile_report_parser,
        20,
        "of the hottest frame paths (and, for a trace, tables)",
    )
    profile_report_parser.add_argument(
        "--collapsed",
        default=None,
        help=(
            "also write the profile in collapsed-stack format "
            "('path ticks' per line) for flamegraph.pl / speedscope"
        ),
    )
    return parser


def config_from_args(args: argparse.Namespace) -> StudyConfig:
    """Translate parsed ``run`` arguments into a study configuration."""
    return StudyConfig(
        scale=args.scale,
        seed=args.seed,
        max_retries=args.max_retries,
        checkpoint_dir=args.checkpoint_dir,
        resume=not args.no_resume,
        stage_budget=args.stage_budget,
        quarantine_dir=args.quarantine_dir,
        poison_rate=args.poison_rate,
        trace_out=args.trace_out,
        profile_out=args.profile_out,
        workers=args.workers,
        unit_retries=args.unit_retries,
        chaos_kill_rate=args.chaos_kill_rate,
        shard_dir=args.shard_dir,
    )


def lake_config_from_args(args: argparse.Namespace) -> StudyConfig:
    """Translate parsed ``serve``/``loadtest`` arguments into a study
    configuration; only these commands build a lake."""
    return StudyConfig(scale=args.scale, seed=args.seed)


def log_outcome_summary(study) -> None:
    """Log each portal's per-stage outcome tallies (stderr)."""
    from ..resilience.executor import StageStatus

    log = get_log()
    for portal in study:
        executor = portal.executor
        if not executor.outcomes:
            continue
        counts = executor.status_counts()
        fields = {
            status.value: counts[status]
            for status in StageStatus
            if counts[status]
        }
        log.info(
            "guarded-outcomes",
            portal=portal.code,
            ticks=executor.ticks_spent,
            **fields,
        )


def _print_outcome_footer(study) -> None:
    """Per-stage outcome diagnostics plus the degradation appendix.

    The appendix is part of the rendered product, so it stays on
    stdout; the tallies are diagnostics and go through the logger.
    """
    from ..report.render import render_degradation_appendix

    log_outcome_summary(study)
    appendix = render_degradation_appendix(study)
    if appendix is not None:
        print()
        print(appendix)


def _load_input(source: str, loader, kind: str):
    """``loader(path)`` for a command's input file, or None on failure.

    A missing file logs ``<kind>-missing`` and an unreadable one
    ``<kind>-unreadable``; either way the command exits 2.
    """
    path = pathlib.Path(source)
    if not path.exists():
        get_log().error(f"{kind}-missing", path=str(path))
        return None
    try:
        return loader(path)
    except (OSError, ValueError) as exc:
        get_log().error(
            f"{kind}-unreadable", path=str(path), message=str(exc)
        )
        return None


def _write_json(path: str, doc, event: str) -> None:
    """Write *doc* as indented, key-sorted JSON and log *event*."""
    pathlib.Path(path).write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    get_log().info(event, path=path)


def _print_report(args: argparse.Namespace, doc, render) -> None:
    """Print a report command's document: as JSON under ``--json``,
    else as ``render(doc)``.  Every report command prints this way."""
    print(json.dumps(doc, sort_keys=True) if args.as_json else render(doc))


def _run_list(args: argparse.Namespace) -> int:
    """The ``list`` subcommand: every experiment id, one per line."""
    for experiment_id in experiment_ids():
        print(experiment_id)
    return 0


def _run_experiments(args: argparse.Namespace) -> int:
    """The ``run`` subcommand: render one experiment or all of them."""
    config = config_from_args(args)
    study = get_study(config=config)
    try:
        if args.experiment == "all":
            for result in run_all(study):
                print(result.text)
                print()
            _print_outcome_footer(study)
            return 0
        try:
            result = run_experiment(args.experiment, study)
        except KeyError as exc:
            get_log().error("unknown-experiment", message=exc.args[0])
            return 2
        print(result.text)
        _print_outcome_footer(study)
        return 0
    finally:
        study.close()
        if config.trace_out is not None:
            get_log().info("trace-written", path=config.trace_out)
        if config.profile_out is not None:
            get_log().info("profile-written", path=config.profile_out)


def _run_fidelity(args: argparse.Namespace) -> int:
    """The ``fidelity`` subcommand: paper-fidelity scoreboard."""
    from ..obs import fidelity
    from .registry import fidelity_checks

    config = StudyConfig(scale=args.scale, seed=args.seed)
    study = get_study(config=config)
    board = [
        fidelity.evaluate_experiment(
            result, fidelity_checks(result.experiment_id)
        )
        for result in run_all(study)
    ]
    meta = {"scale": args.scale, "seed": args.seed}
    doc = fidelity.scoreboard_json(board, meta=meta)
    if args.out is not None:
        _write_json(args.out, doc, "fidelity-written")
    _print_report(args, doc, fidelity.render_scoreboard)
    return 0


def _run_diff(args: argparse.Namespace) -> int:
    """The ``diff`` subcommand: 0 = no drift, 1 = drift, 2 = unreadable."""
    from ..obs.diff import diff_runs, load_run, render_diff

    try:
        doc = diff_runs(load_run(args.run_a), load_run(args.run_b)).as_json()
    except (OSError, ValueError) as exc:
        get_log().error("diff-unreadable", message=str(exc))
        return 2
    if args.out is not None:
        _write_json(args.out, doc, "diff-written")
    _print_report(args, doc, render_diff)
    return 1 if doc["drift_count"] else 0


def _run_bench_report(args: argparse.Namespace) -> int:
    """The ``bench-report`` subcommand: each history's latest record."""
    doc = [record.as_json() for record in baseline.latest_records(args.root)]
    _print_report(args, doc, baseline.render_bench_report)
    return 0


def _run_serve(args: argparse.Namespace) -> int:
    """The ``serve`` subcommand: a real HTTP server over the lake."""
    import dataclasses

    from ..obs.slo import load_spec
    from ..serve import httpd
    from ..serve.service import ServiceConfig

    service_config = None
    if args.slo is not None:
        try:
            service_config = dataclasses.replace(
                ServiceConfig(), slo=load_spec(args.slo)
            )
        except (OSError, ValueError) as exc:
            get_log().error(
                "slo-spec-unreadable", path=args.slo, message=str(exc)
            )
            return 2
    study = get_study(config=lake_config_from_args(args))
    server = httpd.make_server(
        study,
        host=args.host if args.host is not None else httpd.DEFAULT_HOST,
        port=args.port if args.port is not None else httpd.DEFAULT_PORT,
        config=service_config,
    )
    httpd.serve_forever(server)
    return 0


def _run_serve_report(args: argparse.Namespace) -> int:
    """The ``serve-report`` subcommand: judge one serve trace.

    The spec is resolved on its own first, so ``slo-spec-unreadable``
    names only a spec that cannot be read; the trace's own damage is
    reported under ``problem:`` like any trace report's.
    """
    from ..obs.servereport import (
        render_serve_report,
        resolve_spec,
        serve_report_json,
    )
    from ..obs.trace import load_trace

    trace = _load_input(args.trace, load_trace, "trace")
    if trace is None:
        return 2
    try:
        resolved = resolve_spec(trace, args.slo)
    except (OSError, ValueError) as exc:
        get_log().error(
            "slo-spec-unreadable", path=str(args.slo), message=str(exc)
        )
        return 2
    doc = serve_report_json(trace, resolved, top=args.top)
    _print_report(args, doc, render_serve_report)
    if args.fail_on_exhausted and doc["slo"]["verdict"] == "EXHAUSTED":
        get_log().error("slo-exhausted", trace=args.trace)
        return 1
    return 0


def _run_profile_report(args: argparse.Namespace) -> int:
    """The ``profile-report`` subcommand: hotspots from a profile or trace."""
    loaded = _load_input(args.source, load_any_profile, "profile")
    if loaded is None:
        return 2
    profile, trace = loaded
    if args.collapsed is not None:
        pathlib.Path(args.collapsed).write_text(
            "\n".join(collapsed_lines(profile["frames"])) + "\n",
            encoding="utf-8",
        )
        get_log().info("collapsed-written", path=args.collapsed)
    doc = profile_report_json(profile, top=args.top, trace=trace)
    _print_report(args, doc, render_profile_report)
    return 0


def _run_loadtest(args: argparse.Namespace) -> int:
    """The ``loadtest`` subcommand: 0 = invariants hold, 1 = violated."""
    import dataclasses
    import time

    from ..serve import loadgen

    mix_factory = loadgen.MIXES.get(args.mix)
    if mix_factory is None:
        get_log().error(
            "unknown-mix", mix=args.mix, known=sorted(loadgen.MIXES)
        )
        return 2
    config = mix_factory()
    if args.load_seed is not None:
        config = dataclasses.replace(config, seed=args.load_seed)
    study = get_study(config=lake_config_from_args(args))
    started = time.perf_counter()
    report = loadgen.run_load(
        study,
        config,
        trace_out=args.trace_out,
        profile_out=args.profile_out,
    )
    seconds = time.perf_counter() - started
    if args.trace_out is not None:
        get_log().info("serve-trace-written", path=args.trace_out)
    if args.profile_out is not None:
        get_log().info("profile-written", path=args.profile_out)
    if args.report is not None:
        pathlib.Path(args.report).write_text(
            loadgen.report_to_json(report), encoding="utf-8"
        )
        get_log().info("load-report-written", path=args.report)
    if args.bench_root is not None:
        record = loadgen.bench_record(
            report, scale=args.scale, seed=args.seed, seconds=seconds
        )
        path = baseline.append_record(
            "serve", record, root=args.bench_root
        )
        get_log().info("bench-recorded", path=str(path))
    _print_report(args, report, loadgen.render_report)
    violations = loadgen.check_invariants(report, config)
    for violation in violations:
        get_log().error("load-invariant-violated", message=violation)
    return 1 if violations else 0


def main(argv: list[str] | None = None) -> int:
    """Entry point: parse arguments, run, print, return exit code."""
    args = build_parser().parse_args(argv)
    configure_log(QUIET if args.quiet else args.verbose)
    return args.handler(args)


def _entry() -> int:
    """Console-script entry point tolerant of closed pipes.

    ``ogdp-repro list | head`` must not traceback when ``head`` closes
    the pipe early.
    """
    try:
        return main()
    except BrokenPipeError:
        import os
        import sys

        # Re-open stdout onto devnull so interpreter shutdown does not
        # raise a second BrokenPipeError while flushing.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    raise SystemExit(_entry())
