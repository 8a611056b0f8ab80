"""CLI: record open-loop traffic experiments, then verify replay.

``python -m repro.traffic --out DIR`` records one experiment per
requested arrival process (chaos + admission shedding active), then
replays each trace twice and verifies the fingerprints — shed
decisions and reasons, ``guard.*`` counters, completion order — are
bit-identical, and that regenerating the job stream from the recorded
generator parameters reproduces the trace.  Exits nonzero on any
divergence; this is the CI ``traffic-smoke`` entry point.
``--replay TRACE`` runs the same check on one existing trace: a
recorded experiment, a capture or a tenant incident dump.

Two subcommands extend it (the bare flag form above is preserved):

``python -m repro.traffic capture --out TRACE [--jobs N | --horizon T]``
    Run one experiment with a live capture tap attached — the trace
    grows on disk *during* the run and is sealed with the final
    fingerprint.  ``--horizon`` (without ``--jobs``) captures from a
    lazy generator-fed stream that never materializes the job list.

``python -m repro.traffic ab TRACE [--variant NAME:k=v,...] ...``
    Replay a captured trace under its recorded config (checking the
    fingerprint against the sealed trailer — exits nonzero on
    same-config divergence) and against each variant config,
    printing the structured diff report.  ``--allow-torn`` accepts a
    mid-capture-killed trace and replays its committed prefix.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

from repro.traffic.arrivals import (
    DiurnalArrivals,
    MMPPArrivals,
    PoissonArrivals,
)
from repro.traffic.driver import (
    AdmissionSpec,
    ChaosSpec,
    OpenLoopDriver,
    record_experiment,
    verify_replay,
)
from repro.traffic.population import UserPopulation


def _process(kind: str, rate: float):
    if kind == "poisson":
        return PoissonArrivals(rate=rate)
    if kind == "mmpp":
        # same mean rate as the Poisson stream, carried burstily
        return MMPPArrivals(
            quiet_rate=rate * 0.5, burst_rate=rate * 3.0,
            mean_dwell=(10.0, 2.5),
        )
    if kind == "diurnal":
        return DiurnalArrivals(base_rate=rate * 0.4, peak_ratio=4.0,
                               period=200.0)
    raise SystemExit(f"unknown process {kind!r}")


def _replay_one(path: Path) -> int:
    """Verify one recorded trace (experiment, capture or tenant
    incident dump) against itself and its recorded fingerprint."""
    try:
        report = verify_replay(path)
    except ValueError as exc:  # a torn or unreadable trace, as in ``ab``
        print(f"[traffic] replay: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"[traffic] {path}: REPLAY FAILED: {exc}", file=sys.stderr)
        return 1
    fp = report.fingerprint()
    print(f"[traffic] {path}: replayed bit-exactly -- "
          f"completed={fp['completed']} shed={fp['shed']} "
          f"failures={fp['failures']}")
    return 0


def _split_top_level(spec: str) -> list:
    """Split on commas outside JSON braces/brackets (variant specs
    like ``tight:admission={"max_queue":4},policy=sjf``)."""
    parts, depth, cur = [], 0, []
    for ch in spec:
        if ch in "{[":
            depth += 1
        elif ch in "}]":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if cur:
        parts.append("".join(cur))
    return parts


def _parse_variant(spec: str):
    """``NAME:key=val,...`` (or just ``key=val,...``) -> ABVariant."""
    from repro.traffic.ab import ABVariant

    name = None
    body = spec
    head, sep, rest = spec.partition(":")
    if sep and "=" not in head:
        name, body = head.strip(), rest
    overrides = {}
    for assign in _split_top_level(body):
        key, sep, val = assign.partition("=")
        if not sep:
            raise SystemExit(
                f"bad variant assignment {assign!r} (want key=value)"
            )
        try:
            overrides[key.strip()] = json.loads(val)
        except json.JSONDecodeError:
            overrides[key.strip()] = val.strip()
    if not overrides:
        raise SystemExit(f"variant {spec!r} has no overrides")
    if name is None:
        name = ",".join(f"{k}={overrides[k]}" for k in overrides)
    return ABVariant(name=name, overrides=overrides)


def capture_main(argv) -> int:
    from repro.traffic.capture import capture_experiment

    ap = argparse.ArgumentParser(
        prog="python -m repro.traffic capture",
        description="record a trace from a live in-flight run",
    )
    ap.add_argument("--out", type=Path, required=True, metavar="TRACE")
    ap.add_argument("--process", default="poisson",
                    choices=["poisson", "mmpp", "diurnal"])
    ap.add_argument("--jobs", type=int, default=None,
                    help="materialized batch capture of N jobs")
    ap.add_argument("--horizon", type=float, default=None,
                    help="streamed capture to this horizon (jobs "
                         "pulled lazily, never materialized)")
    ap.add_argument("--gpus", type=int, default=4)
    ap.add_argument("--rate", type=float, default=0.5)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--policy", default="fcfs")
    ap.add_argument("--chaos-mtbf", type=float, default=400.0)
    ap.add_argument("--sync", action="store_true",
                    help="write and fsync each record in a frame of "
                         "its own as it is captured (per-record "
                         "durability)")
    ap.add_argument("--flush-every", type=int, default=64,
                    help="records per batch frame without --sync; a "
                         "crash loses at most N-1 records")
    ap.add_argument("--no-decisions", action="store_true",
                    help="capture only the job stream")
    args = ap.parse_args(argv)
    if (args.jobs is None) == (args.horizon is None):
        raise SystemExit("pass exactly one of --jobs / --horizon")

    population = UserPopulation(
        n_users=50_000, seed=args.seed, mean_service=10.0,
        long_fraction=0.1, best_effort_fraction=0.3,
    )
    driver = OpenLoopDriver(
        n_gpus=args.gpus,
        policy=args.policy,
        admission=AdmissionSpec(
            max_queue=4 * args.gpus, protect_priority=2,
            breaker_failure_threshold=3, breaker_recovery_time=50.0,
        ),
        chaos=(
            None if args.chaos_mtbf <= 0
            else ChaosSpec(mtbf=args.chaos_mtbf, seed=args.seed)
        ),
        horizon=args.horizon,
    )
    args.out.parent.mkdir(parents=True, exist_ok=True)
    trace, report = capture_experiment(
        args.out, _process(args.process, args.rate), population, driver,
        n_jobs=args.jobs, arrival_seed=args.seed, sync=args.sync,
        decisions=not args.no_decisions, flush_every=args.flush_every,
    )
    fp = report.fingerprint()
    mode = "batch" if args.jobs is not None else "stream"
    print(f"[traffic] captured {len(trace)} jobs ({mode}) -> "
          f"{args.out}: completed={fp['completed']} shed={fp['shed']} "
          f"failures={fp['failures']} sealed=True")
    return 0


def ab_main(argv) -> int:
    from repro.traffic.ab import ABVariant, _ab_compare
    from repro.traffic.trace import TrafficTrace

    ap = argparse.ArgumentParser(
        prog="python -m repro.traffic ab",
        description="A/B differential replay of one captured trace",
    )
    ap.add_argument("trace", type=Path)
    ap.add_argument("--variant", action="append", default=[],
                    metavar="NAME:k=v,...",
                    help="driver-description overrides (repeatable); "
                         "default: sjf policy + half the GPUs")
    ap.add_argument("--backend", default="serial",
                    help="repro.par backend for the variant fan-out")
    ap.add_argument("--json", type=Path, default=None, metavar="OUT",
                    help="also write the full report as JSON")
    ap.add_argument("--allow-torn", action="store_true",
                    help="replay the committed prefix of an unsealed "
                         "(mid-capture-killed) trace")
    args = ap.parse_args(argv)

    variants = [_parse_variant(s) for s in args.variant]
    try:
        trace = TrafficTrace.load(args.trace, strict=not args.allow_torn)
        if not variants:
            base = trace.meta.get("driver", {})
            variants = [
                ABVariant("sjf", {"policy": "sjf"}),
                ABVariant("half_gpus",
                          {"n_gpus": max(1, base.get("n_gpus", 2) // 2)}),
            ]
        report = _ab_compare(trace, args.trace, variants, args.backend)
    except ValueError as exc:
        print(f"[traffic] ab: {exc}", file=sys.stderr)
        return 2
    print(report.render())
    if report.fingerprint_matched is True:
        print("[traffic] baseline replay matches the sealed trailer "
              "fingerprint")
    elif report.fingerprint_matched is None:
        print("[traffic] no sealed trailer (torn/v1 trace): baseline "
              f"checked replay-vs-replay only "
              f"(self_consistent={report.self_consistent})")
    if args.json is not None:
        args.json.write_text(
            json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"
        )
    if report.diverged:
        print("[traffic] ab: SAME-CONFIG DIVERGENCE — replay does not "
              "reproduce the recorded run", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "capture":
        return capture_main(argv[1:])
    if argv and argv[0] == "ab":
        return ab_main(argv[1:])
    ap = argparse.ArgumentParser(
        prog="python -m repro.traffic",
        description="record + replay-verify open-loop traffic runs",
    )
    ap.add_argument("--out", type=Path, default=None,
                    help="trace directory (default: a temp dir)")
    ap.add_argument("--replay", type=Path, default=None, metavar="TRACE",
                    help="replay one recorded trace (experiment or "
                         "tenant incident) and verify its fingerprint "
                         "instead of recording new experiments")
    ap.add_argument("--processes", default="poisson,mmpp",
                    help="comma list of poisson,mmpp,diurnal")
    ap.add_argument("--jobs", type=int, default=300)
    ap.add_argument("--gpus", type=int, default=4)
    ap.add_argument("--rate", type=float, default=0.5,
                    help="mean arrival rate (jobs per sim-time unit)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--chaos-mtbf", type=float, default=400.0,
                    help="fault-injector MTBF (0 disables chaos)")
    args = ap.parse_args(argv)

    if args.replay is not None:
        return _replay_one(args.replay)

    out = args.out
    if out is None:
        out = Path(tempfile.mkdtemp(prefix="repro-traffic-"))
    out.mkdir(parents=True, exist_ok=True)

    population = UserPopulation(
        n_users=50_000, seed=args.seed, mean_service=10.0,
        long_fraction=0.1, best_effort_fraction=0.3,
    )
    driver = OpenLoopDriver(
        n_gpus=args.gpus,
        policy="fcfs",
        admission=AdmissionSpec(
            max_queue=4 * args.gpus, protect_priority=2,
            breaker_failure_threshold=3, breaker_recovery_time=50.0,
        ),
        chaos=(
            None if args.chaos_mtbf <= 0
            else ChaosSpec(mtbf=args.chaos_mtbf, seed=args.seed)
        ),
    )

    failed = False
    for kind in [k.strip() for k in args.processes.split(",") if k.strip()]:
        process = _process(kind, args.rate)
        population.reset()
        path = out / f"{kind}.trace"
        trace, recorded = record_experiment(
            path, process, population, driver, n_jobs=args.jobs,
            arrival_seed=args.seed,
        )
        try:
            # the trailer seals the recorded fingerprint, so this also
            # checks the replay against the run that just happened
            verify_replay(path)
        except AssertionError as exc:
            print(f"[traffic] {kind}: REPLAY FAILED: {exc}",
                  file=sys.stderr)
            failed = True
            continue
        fp = recorded.fingerprint()
        print(f"[traffic] {kind}: {len(trace)} jobs -> "
              f"completed={fp['completed']} shed={fp['shed']} "
              f"dropped={fp['dropped']} failures={fp['failures']} "
              f"p50_turnaround={recorded.p50_turnaround:.2f} "
              f"p99_turnaround={recorded.p99_turnaround:.2f} "
              f"shed_rate={recorded.shed_rate:.3f} -- replay OK")
        (out / f"{kind}.fingerprint.json").write_text(
            json.dumps(fp, sort_keys=True, indent=2) + "\n"
        )
    if failed:
        return 1
    print(f"[traffic] all traces replayed bit-exactly ({out})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
