"""Command-line interface: run productions, replay recordings, debug.

Usage (after ``pip install -e .``)::

    python -m repro.cli production --topology ebone --events 6 \
        --mode defined --seed 1 --recording-out /tmp/run.recording.json
    python -m repro.cli replay --topology ebone \
        --recording /tmp/run.recording.json
    python -m repro.cli sweep --seeds 1,2,3 --workers 4
    python -m repro.cli sweep --scenarios flap_storm@40 --repeats 3 \
        --workers 4 --report-out /tmp/grid.json
    python -m repro.cli sweep --scenarios flap-storm,partition --sizes 20,40
    python -m repro.cli sweep --scenarios flap_storm+partition \
        --boundary-jitter-us 1 --seeds 8
    python -m repro.cli sweep --scenarios all,examples/clock_skew_storm.yaml
    python -m repro.cli fuzz --scenarios flap-storm,partition \
        --seeds 1,2 --jitters-us 0,1 --report-out /tmp/fuzz.json
    python -m repro.cli envelope --scenarios flap-storm@20 \
        --jitters 0,50,300 --windows auto --suggest
    python -m repro.cli scale --sizes 20,40 --events 4
    python -m repro.cli casestudy bgp
    python -m repro.cli casestudy rip

The CLI covers the common operational loops (record in production, ship
the recording, replay and step at the debugging site); programmatic use
goes through :mod:`repro.harness`.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis.metrics import Cdf, mean
from repro.analysis.report import ascii_cdf, render_series, render_table
from repro.core.recorder import Recording
from repro.harness import run_ls_replay, run_production
from repro.simnet.engine import SECOND
from repro.topology import (
    TopologyGraph,
    barabasi_albert,
    rocketfuel_topology,
    waxman,
)
from repro.topology.rocketfuel import POP_COUNTS
from repro.topology.traces import compressed_trace


def load_topology(name: str, size: int, seed: int) -> TopologyGraph:
    if name in POP_COUNTS:
        return rocketfuel_topology(name)
    if name == "waxman":
        return waxman(size, seed=seed)
    if name == "ba":
        return barabasi_albert(size, seed=seed)
    raise SystemExit(
        f"unknown topology {name!r}: expected one of "
        f"{sorted(POP_COUNTS) + ['waxman', 'ba']}"
    )


def cmd_production(args: argparse.Namespace) -> int:
    graph = load_topology(args.topology, args.size, args.topology_seed)
    trace = compressed_trace(
        graph, n_events=args.events, gap_us=args.gap_s * SECOND,
        start_us=4_097_000, seed=args.seed,
    )
    print(f"topology {graph.name}: {graph.node_count()} nodes, "
          f"{graph.edge_count()} links; {len(trace)} external events")
    result = run_production(
        graph, trace, mode=args.mode, seed=args.seed,
        ordering=args.ordering, strategy=args.strategy,
    )
    per_node = result.network.run_stats.per_node.values()
    rows = [
        ["fingerprint", result.fingerprint[:24] + "..."],
        ["events converged", len(result.convergence_times_us)],
        ["mean convergence (s)", mean(result.convergence_times_us) / 1e6],
        ["rollbacks", result.rollbacks],
        ["deliveries executed / committed",
         f"{result.executed_deliveries} / {sum(len(log) for log in result.logs.values())}"],
        ["rolled-back outputs kept / retracted",
         f"{sum(s.outputs_kept for s in per_node)} / "
         f"{sum(s.outputs_retracted for s in per_node)}"],
        ["late deliveries", result.late_deliveries],
        ["wall time (s)", result.wall_seconds],
    ]
    if result.recording is not None:
        rows.append(["recording bytes", result.recording.size_bytes()])
    print(render_table(f"production run ({args.mode})", ["metric", "value"], rows))
    if result.packets_per_node_per_event:
        print()
        print(ascii_cdf(
            "control packets per node per event",
            {args.mode: Cdf.of(result.packets_per_node_per_event)},
            unit="pkts",
        ))
    if args.recording_out:
        if result.recording is None:
            raise SystemExit("only --mode defined produces a recording")
        result.recording.save(args.recording_out)
        print(f"\nrecording written to {args.recording_out}")
    if args.bundle_out:
        from repro.artifact import RunBundle

        bundle = RunBundle.from_production(result, context={
            "topology": args.topology, "size": args.size,
            "topology_seed": args.topology_seed, "events": args.events,
            "gap_s": args.gap_s, "mode": args.mode, "seed": args.seed,
            "ordering": args.ordering,
        })
        path = bundle.save(args.bundle_out)
        print(f"\nrun bundle written to {path} (sha256 {bundle.sha256[:12]})")
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    # the debugging network must model the same topology the production
    # network had (the recording's drop set and estimates refer to it)
    graph = load_topology(args.topology, args.size, args.topology_seed)
    recording = Recording.load(args.recording)
    print(f"replaying {len(recording.events)} recorded events "
          f"({recording.horizon_group + 1} groups) on {graph.name}")
    result = run_ls_replay(graph, recording, seed=args.seed)
    committed = sum(len(log) for log in result.logs.values())
    print(render_table(
        "lockstep replay",
        ["metric", "value"],
        [
            ["fingerprint", result.fingerprint[:24] + "..."],
            ["lockstep cycles", result.cycles],
            ["deliveries executed / committed",
             f"{result.executed_deliveries} / {committed}"],
            ["engine events per committed delivery",
             result.network.sim.events_executed / max(1, committed)],
            ["mean step response (s)", mean(result.step_times_us) / 1e6],
            ["max step response (s)", max(result.step_times_us) / 1e6],
            ["wall time (s)", result.wall_seconds],
        ],
    ))
    if args.bundle_out:
        from repro.artifact import RunBundle

        bundle = RunBundle.from_replay(result, context={
            "topology": args.topology, "size": args.size,
            "topology_seed": args.topology_seed, "seed": args.seed,
            "recording": args.recording,
        })
        path = bundle.save(args.bundle_out)
        print(f"\nrun bundle written to {path} (sha256 {bundle.sha256[:12]})")
    return 0


def cmd_diff(args: argparse.Namespace) -> int:
    from repro.artifact import RunBundle
    from repro.diff import diff_bundles, render_divergence

    a = RunBundle.load(args.a)
    b = RunBundle.load(args.b)
    for label, path, bundle in (("A", args.a, a), ("B", args.b, b)):
        print(f"{label}: {path}  role={bundle.role}  "
              f"sha256={bundle.sha256[:12]}  "
              f"fingerprint={bundle.fingerprint[:24]}...")
    print()
    divergence = diff_bundles(a, b)
    print(render_divergence(divergence, a_label="A", b_label="B"))
    if args.json_out:
        import json

        with open(args.json_out, "w") as fh:
            json.dump(
                divergence.to_dict() if divergence is not None else None,
                fh, indent=2,
            )
        print(f"\ndivergence written to {args.json_out}")
    return 0 if divergence is None else 1


def _parse_int_list(text: str, flag: str) -> List[int]:
    try:
        return [int(s) for s in text.split(",")]
    except ValueError:
        raise SystemExit(f"{flag} must be comma-separated integers, got {text!r}")


def _finish_grid(report, args: argparse.Namespace, noun: str) -> int:
    """Render a grid report, write its JSON to ``--report-out`` if given,
    and turn its verdict into the exit status."""
    print(report.render())
    if args.report_out:
        import json

        with open(args.report_out, "w") as fh:
            json.dump(report.to_dict(), fh, indent=2)
        print(f"\n{noun} report written to {args.report_out}")
    return 0 if report.ok() else 1


def cmd_sweep(args: argparse.Namespace) -> int:
    from repro.sweep import SweepRunner, _grid_specs, default_grid, get_scenario, scenario_names

    if args.list:
        rows = [
            [name, ",".join(get_scenario(name).modes), get_scenario(name).description]
            for name in default_grid()
        ]
        print(render_table("default grid", ["name", "modes", "description"], rows))
        sizeable = [n for n in scenario_names() if get_scenario(n).sizer is not None]
        print(f"\nsize any fault family as name@N (e.g. flap-storm@40): "
              f"{', '.join(sizeable)}")
        return 0
    # --scenarios picks specs: names, compositions ("a+b") and chaos DSL
    # files by path, each taking the @N / ~jNus suffixes; an "all" item
    # (and the default) is the default grid.  --sizes re-scales every
    # selected scenario onto N-node topologies (the "@N" dynamic
    # variant); --boundary-jitter-us N puts N us of boundary jitter over
    # each whole spec (the "~jNus" dynamic variant).  The default grid
    # holds no size: 80-node cells run for minutes, so sizes are an
    # explicit opt-in via "name@N" or --sizes.
    names: List[str] = []
    for spec in (args.scenarios or "all").split(","):
        names.extend(default_grid() if spec == "all" else [spec])
    if args.boundary_jitter_us is not None and args.boundary_jitter_us < 0:
        raise SystemExit("--boundary-jitter-us cannot be negative")
    # one canonical name per grid row: a composition may duplicate a
    # default-grid one (or an underscore alias of one), and with
    # --scenarios all, 'flap-storm' and 'flap-storm~j1us' re-jitter to
    # the same spec
    try:
        names = _grid_specs(
            names,
            sizes=_parse_int_list(args.sizes, "--sizes") if args.sizes else None,
            boundary_jitter_us=args.boundary_jitter_us,
        )
    except ValueError as exc:
        raise SystemExit(exc.args[0] if exc.args else str(exc))
    seeds = _parse_int_list(args.seeds, "--seeds")
    try:
        runner = SweepRunner(
            scenarios=names,
            seeds=seeds,
            modes=args.modes.split(",") if args.modes else None,
            workers=args.workers,
            repeats=args.repeats,
            artifact_dir=args.artifact_out,
            cell_timeout_s=args.cell_timeout,
            retries=args.retries,
            journal_dir=args.journal,
            resume_dir=args.resume,
        )
    except (KeyError, ValueError) as exc:
        raise SystemExit(exc.args[0] if exc.args else str(exc))
    print(
        f"sweeping {len(runner.grid())} cells "
        f"({len(names)} scenario(s) x {len(runner.seeds)} seed(s) "
        f"x {args.repeats} jitter-seed repeat(s)) "
        f"on {args.workers} worker(s)"
    )

    def progress(cell) -> None:
        status = "ERROR " + cell.error if cell.error else "ok"
        print(f"  {cell.scenario}/{cell.mode} seed={cell.seed}"
              f" repeat={cell.repeat}: {status}")

    report = runner.run(progress=progress if args.verbose else None)
    return _finish_grid(report, args, "divergence")


def cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.sweep import SweepRunner, _grid_specs, fuzz_grid, shrink_failure

    scenarios = (
        None if args.scenarios == "all" else
        [s.strip() for s in args.scenarios.split(",")]
    )
    try:
        names = fuzz_grid(
            scenarios,
            _parse_int_list(args.jitters_us, "--jitters-us"),
            args.mode,
        )
        runner = SweepRunner(
            names,
            _parse_int_list(args.seeds, "--seeds"),
            modes=(args.mode,),
            workers=args.workers,
        )
    except (KeyError, ValueError) as exc:
        raise SystemExit(exc.args[0] if exc.args else str(exc))
    print(
        f"fuzzing {len(runner.grid())} cells ({len(names)} jittered "
        f"scenario(s) x {len(runner.seeds)} seed(s)) in {args.mode} mode "
        f"on {args.workers} worker(s)"
    )

    def progress(cell) -> None:
        status = "ERROR " + cell.error if cell.error else "ok"
        print(f"  {cell.scenario} seed={cell.seed}: {status}")

    report = runner.run(progress=progress if args.verbose else None)
    minimized = None if args.no_minimize else shrink_failure(report)
    print(report.render())
    if minimized is not None:
        spec = _grid_specs(
            [minimized["scenario"]], boundary_jitter_us=minimized["jitter_us"]
        )[0]
        print(
            "minimized: scenario={scenario!r} seed={seed} jitter_us={jitter_us} "
            "(after {shrink_runs} shrink runs); reproduce with "
            "run_cell(SweepCell('{spec}', {seed}, '{mode}'))"
            .format(spec=spec, mode=args.mode, **minimized)
        )
    if args.report_out:
        import json

        with open(args.report_out, "w") as fh:
            json.dump({**report.to_dict(), "minimized": minimized}, fh, indent=2)
        print(f"\ndivergence report written to {args.report_out}")
    return 0 if report.ok() else 1


def cmd_envelope(args: argparse.Namespace) -> int:
    from repro.envelope import EnvelopeRunner

    try:
        jitters_ms = _parse_int_list(args.jitters, "--jitters")
        windows = (
            "auto" if args.windows == "auto"
            else _parse_int_list(args.windows, "--windows")
        )
        runner = EnvelopeRunner(
            scenarios=[s.strip() for s in args.scenarios.split(",")],
            jitters_us=[j * 1_000 for j in jitters_ms],
            windows_us=windows,
            seeds=_parse_int_list(args.seeds, "--seeds"),
            workers=args.workers,
            sizes=_parse_int_list(args.sizes, "--sizes") if args.sizes else None,
            boundary_jitter_us=args.boundary_jitter_us,
            target_quantile=args.target_quantile,
            margin=args.margin,
            artifact_dir=args.artifact_out,
            cell_timeout_s=args.cell_timeout,
            retries=args.retries,
        )
    except (KeyError, ValueError) as exc:
        raise SystemExit(exc.args[0] if exc.args else str(exc))
    print(
        f"mapping the window envelope: {len(runner.scenarios)} scenario(s) "
        f"x jitters {[j // 1_000 for j in runner.jitters_us]}ms "
        f"x windows {list(runner.windows_us)}us "
        f"x {len(runner.seeds)} seed(s) on {args.workers} worker(s)"
        + (" -- then verifying a suggested window" if args.suggest else "")
    )

    def progress(cell) -> None:
        status = "ERROR " + cell.error if cell.error else (
            f"late={cell.headroom.late_count}" if cell.headroom else "ok"
        )
        print(f"  {cell.scenario} jitter={cell.jitter_us}us "
              f"window={cell.window_us}us seed={cell.seed}: {status}")

    report = runner.run(
        suggest=args.suggest,
        progress=progress if args.verbose else None,
    )
    return _finish_grid(report, args, "envelope")


def cmd_scale(args: argparse.Namespace) -> int:
    sizes = [int(s) for s in args.sizes.split(",")]
    packets = {"XORP": [], "DEFINED-RB(OO)": []}
    convergence = {"XORP": [], "DEFINED-RB(OO)": []}
    for n in sizes:
        graph = waxman(n, seed=args.seed)
        trace = compressed_trace(graph, n_events=args.events,
                                 gap_us=8 * SECOND, start_us=4_097_000)
        for label, mode in (("XORP", "vanilla"), ("DEFINED-RB(OO)", "defined")):
            run = run_production(graph, trace, mode=mode, seed=args.seed)
            packets[label].append(mean(run.packets_per_node_per_event))
            convergence[label].append(mean(run.convergence_times_us) / 1e6)
        print(f"  size {n} done")
    print(render_series("control packets per node per event", "nodes", sizes, packets))
    print()
    print(render_series("convergence time (s)", "nodes", sizes, convergence))
    return 0


def cmd_debug(args: argparse.Namespace) -> int:
    from repro.core.debugger import Debugger
    from repro.harness import build_ls_coordinator
    from repro.repl import DebugConsole

    graph = load_topology(args.topology, args.size, args.topology_seed)
    recording = Recording.load(args.recording)
    coordinator = build_ls_coordinator(graph, recording, seed=args.seed)
    DebugConsole(Debugger(coordinator)).loop()
    return 0


def cmd_casestudy(args: argparse.Namespace) -> int:
    if args.which == "bgp":
        from repro.scenarios import xorp_bgp_scenario

        outcomes = {
            seed: xorp_bgp_scenario(mode="vanilla", decision="buggy",
                                    seed=seed).best_at_r3
            for seed in range(8)
        }
        deterministic = xorp_bgp_scenario(mode="defined", decision="buggy", seed=1)
        print(render_table(
            "XORP 0.4 BGP MED ordering bug",
            ["run", "best path at R3"],
            [[f"vanilla seed {s}", best] for s, best in outcomes.items()]
            + [["DEFINED (any seed)", deterministic.best_at_r3]],
        ))
    else:
        from repro.scenarios import quagga_rip_scenario

        outcomes = {
            seed: quagga_rip_scenario(mode="vanilla", matching="buggy",
                                      config="race", seed=seed).route_via
            for seed in range(8)
        }
        deterministic = quagga_rip_scenario(
            mode="defined", matching="buggy", config="blackhole", seed=1
        )
        print(render_table(
            "Quagga 0.96.5 RIP timer-refresh bug",
            ["run", "route to dst at R1"],
            [[f"vanilla seed {s}", str(via)] for s, via in outcomes.items()]
            + [["DEFINED blackhole config", str(deterministic.route_via)]],
        ))
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint.cli import main as lint_main

    return lint_main(args)


def cmd_chaos(args: argparse.Namespace) -> int:
    from repro.chaos.cli import cmd_chaos as chaos_main

    return chaos_main(args)


def _add_supervision_arguments(parser: argparse.ArgumentParser) -> None:
    """The per-cell executor policy flags ``sweep`` and ``envelope`` share."""
    parser.add_argument("--cell-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="per-cell wall-clock deadline; hung workers are "
                             "reaped and the cell surfaces as timed_out "
                             "(default: no deadline)")
    parser.add_argument("--retries", type=int, default=None, metavar="N",
                        help="retry budget for transient infra failures "
                             "(worker crash, ring stall, OOM kill); a cell "
                             "failing transiently more than N times in a row "
                             "is quarantined (default 2)")


def _add_grid_arguments(
    parser: argparse.ArgumentParser, seeds: str, report: str
) -> None:
    """The flags every grid command (``sweep``, ``fuzz``, ``envelope``)
    shares; ``seeds`` is the command's default seed list and ``report``
    names what ``--report-out`` writes."""
    parser.add_argument("--seeds", default=seeds)
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes (each cell gets its own simulator)")
    parser.add_argument("--report-out", default=None, metavar="PATH",
                        help=f"write the JSON {report} report here")
    parser.add_argument("--verbose", action="store_true",
                        help="print each cell as it completes")


def _add_spec_arguments(parser: argparse.ArgumentParser) -> None:
    """The spec rewrites ``sweep`` and ``envelope`` apply to every
    selected scenario."""
    parser.add_argument("--sizes", default=None, metavar="N[,M]",
                        help="re-scale every selected scenario onto N-node "
                             "topologies (the 'name@N' dynamic variant); "
                             "e.g. --sizes 20,40,80")
    parser.add_argument("--boundary-jitter-us", type=int, default=None,
                        metavar="N",
                        help="put N us of boundary jitter over each whole "
                             "selected spec, replacing any it had there: "
                             "events snapped to beacon-group boundaries "
                             "+/- N us of seed-derived jitter")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="DEFINED reproduction command line"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    prod = sub.add_parser("production", help="run a production network")
    prod.add_argument("--topology", default="ebone")
    prod.add_argument("--size", type=int, default=30,
                      help="node count for waxman/ba topologies")
    prod.add_argument("--topology-seed", type=int, default=1,
                      help="generator seed for waxman/ba topologies")
    prod.add_argument("--events", type=int, default=6)
    prod.add_argument("--gap-s", type=int, default=8)
    prod.add_argument("--mode", default="defined",
                      choices=["vanilla", "defined", "ddos", "logging"])
    prod.add_argument("--ordering", default="OO", choices=["OO", "RO"])
    prod.add_argument("--strategy", default="MI",
                      choices=["MI", "FK", "TF", "PF", "TM"])
    prod.add_argument("--seed", type=int, default=1)
    prod.add_argument("--recording-out", default=None)
    prod.add_argument("--bundle-out", default=None, metavar="PATH",
                      help="write the execution as a content-addressed "
                           "run bundle (a directory gets the default "
                           "<role>-<sha12>.run name)")
    prod.set_defaults(func=cmd_production)

    replay = sub.add_parser("replay", help="replay a recording in lockstep")
    replay.add_argument("--topology", default="ebone")
    replay.add_argument("--size", type=int, default=30)
    replay.add_argument("--topology-seed", type=int, default=1,
                        help="must match the production run's topology")
    replay.add_argument("--recording", required=True)
    replay.add_argument("--seed", type=int, default=1000)
    replay.add_argument("--bundle-out", default=None, metavar="PATH",
                        help="write the replayed execution as a "
                             "content-addressed run bundle")
    replay.set_defaults(func=cmd_replay)

    diff = sub.add_parser(
        "diff",
        help="first-divergence diff of two run bundles (exit 1 when the "
             "executions diverge)",
    )
    diff.add_argument("a", metavar="A.run")
    diff.add_argument("b", metavar="B.run")
    diff.add_argument("--json-out", default=None, metavar="PATH",
                      help="write the divergence verdict as JSON")
    diff.set_defaults(func=cmd_diff)

    sweep = sub.add_parser(
        "sweep",
        help="scenario x seed x mode determinism sweep (parallelizable)",
    )
    sweep.add_argument("--scenarios", default=None,
                       help="comma-separated scenario specs: names (size "
                            "with 'name@N', compose with 'a+b', fuzz with "
                            "'a~jNus') and chaos DSL files by path (YAML/JSON, "
                            "schema chaos/v1; validate first with 'repro "
                            "chaos validate'); an 'all' item is the default "
                            "grid -- every builtin, the builtin compositions "
                            "and each under ~j1us (default: all)")
    _add_spec_arguments(sweep)
    _add_grid_arguments(sweep, seeds="1,2,3", report="divergence")
    sweep.add_argument("--modes", default=None,
                       help="override per-scenario modes, e.g. vanilla,defined")
    sweep.add_argument("--repeats", type=int, default=1,
                       help="seed-invariance probe: run each cell under N "
                            "jitter seeds; deterministic modes must "
                            "collapse to one fingerprint per cell")
    _add_supervision_arguments(sweep)
    sweep.add_argument("--journal", default=None, metavar="DIR",
                       help="append each finished cell to a durable journal "
                            "in DIR (crash-safe; resumable via --resume)")
    sweep.add_argument("--resume", default=None, metavar="DIR",
                       help="skip cells already completed in the journal at "
                            "DIR and continue journaling there; the merged "
                            "report is semantically identical to an "
                            "uninterrupted run")
    sweep.add_argument("--artifact-out", default=None, metavar="DIR",
                       help="archive every Theorem-1 divergence as a pair "
                            "of replayable run bundles in this directory "
                            "(production side embeds the recording)")
    sweep.add_argument("--list", action="store_true",
                       help="list the default grid and exit")
    sweep.set_defaults(func=cmd_sweep)

    fuzz = sub.add_parser(
        "fuzz",
        help="boundary-jitter fuzzing: jittered seed-sweeps with "
             "divergence minimization",
    )
    fuzz.add_argument("--scenarios", default="all",
                      help="comma-separated scenario names (compositions "
                           "like a+b allowed), or 'all' for every "
                           "non-jittered builtin")
    _add_grid_arguments(fuzz, seeds="1,2,3,4", report="divergence")
    fuzz.add_argument("--jitters-us", default="0,1,2,5",
                      help="boundary-jitter magnitudes to grid over "
                           "(0 = snap exactly onto the boundary)")
    fuzz.add_argument("--mode", default="defined",
                      choices=["vanilla", "defined", "ddos"],
                      help="defined carries the full Theorem-1 "
                           "production-vs-replay check per cell")
    fuzz.add_argument("--no-minimize", action="store_true",
                      help="skip shrinking failures to the smallest "
                           "(scenario, seed, jitter) triple")
    fuzz.set_defaults(func=cmd_fuzz)

    env = sub.add_parser(
        "envelope",
        help="map the history-window envelope (jitter x window x size) "
             "and suggest a verified safe window_us",
    )
    env.add_argument("--scenarios", required=True,
                     help="comma-separated scenario names; size with "
                          "'name@N' or --sizes (e.g. flap-storm@20)")
    env.add_argument("--jitters", default="0,50,300",
                     help="per-packet delivery-jitter magnitudes in "
                          "MILLISECONDS to grid over (default 0,50,300)")
    env.add_argument("--windows", default="auto",
                     help="comma-separated window_us values, or 'auto' "
                          "for a ladder derived from the network-default "
                          "window formula (default: auto)")
    _add_spec_arguments(env)
    _add_grid_arguments(env, seeds="1", report="envelope")
    env.add_argument("--suggest", action="store_true",
                     help="recommend the minimal safe window from the "
                          "measured deficits and verify it with a "
                          "deficit-free re-run (Theorem-1 checks on)")
    env.add_argument("--target-quantile", type=float, default=0.99,
                     help="deficit quantile the suggestion must cover "
                          "(default 0.99)")
    env.add_argument("--margin", type=float, default=0.25,
                     help="safety margin on top of the measured reach "
                          "(default 0.25)")
    _add_supervision_arguments(env)
    env.add_argument("--artifact-out", default=None, metavar="DIR",
                     help="archive verification-pass Theorem-1 "
                          "divergences as replayable run bundles here")
    env.set_defaults(func=cmd_envelope)

    scale = sub.add_parser("scale", help="size scalability sweep (Fig 8)")
    scale.add_argument("--sizes", default="20,40")
    scale.add_argument("--events", type=int, default=4)
    scale.add_argument("--seed", type=int, default=1)
    scale.set_defaults(func=cmd_scale)

    case = sub.add_parser("casestudy", help="run a paper case study")
    case.add_argument("which", choices=["bgp", "rip"])
    case.set_defaults(func=cmd_casestudy)

    debug = sub.add_parser("debug", help="interactive debugger over a recording")
    debug.add_argument("--topology", default="ebone")
    debug.add_argument("--size", type=int, default=30)
    debug.add_argument("--topology-seed", type=int, default=1,
                       help="must match the production run's topology")
    debug.add_argument("--recording", required=True)
    debug.add_argument("--seed", type=int, default=1000)
    debug.set_defaults(func=cmd_debug)

    lint = sub.add_parser(
        "lint",
        help="determinism & store-contract checker (D-rules / S-rules)",
    )
    from repro.lint.cli import add_arguments as add_lint_arguments

    add_lint_arguments(lint)
    lint.set_defaults(func=cmd_lint)

    chaos = sub.add_parser(
        "chaos",
        help="chaos scenario DSL: validate scenario files, emit the schema",
    )
    from repro.chaos.cli import add_arguments as add_chaos_arguments

    add_chaos_arguments(chaos)
    chaos.set_defaults(func=cmd_chaos)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
