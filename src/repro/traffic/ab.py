"""A/B differential replay: one trace, N machine/policy configs.

The paper's Fig-8-style analysis compares the *same* offered workload
across system configurations; until now a recorded trace could only
be replayed against the config that produced it.  :func:`ab_replay`
takes one trace and a list of variant driver descriptions and
answers two questions:

1. **Is the replay contract intact?**  The trace goes through
   :func:`~repro.traffic.driver.verify`: replayed twice under its own
   recorded config, each replay checked against the other
   (replay-vs-replay) and against the recorded fingerprint
   (replay-vs-record) when the trace has one a replay can be held to.
   Any divergence is a determinism bug, and the CLI exits nonzero on
   it.
2. **What changes under each variant?**  Every variant description —
   the recorded config with overrides applied (policy, GPU count,
   admission, chaos, tenancy) — replays the same job stream, and the
   report carries per-variant metric deltas against the baseline:
   p50/p99 wait and turnaround, shed rate, goodput, completions,
   failures, and per-tenant service/shed deltas.

Variant runs fan out via :func:`repro.par.map_fanout` (metrics are
computed per-run from the ``SimResult`` and the run's own admission
instance, so they are safe under any backend).  The *baseline*
fingerprint check always runs inline: the fingerprint includes global
``guard.*`` counter deltas, which concurrent runs in one process
would corrupt — exactly the kind of accounting subtlety this harness
exists to flush out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.par import map_fanout
from repro.traffic.driver import (
    OpenLoopDriver,
    TrafficReport,
    replay,
    verify,
)
from repro.traffic.trace import TrafficTrace
from repro.util.tables import Table

#: driver-description keys a variant may override
_OVERRIDABLE = (
    "n_gpus", "policy", "admission", "chaos", "horizon", "engine",
    "tenancy",
)

#: metric keys diffed against the baseline (all floats)
_DELTA_KEYS = (
    "p50_wait", "p99_wait", "p50_turnaround", "p99_turnaround",
    "shed_rate", "goodput", "utilization", "makespan",
)


def variant_description(base: Dict[str, Any],
                        overrides: Dict[str, Any]) -> Dict[str, Any]:
    """The recorded driver description with *overrides* applied.

    Overrides are whole-key replacements (``admission`` and
    ``tenancy`` take full description dicts); unknown keys raise so a
    typo'd variant can't silently replay the baseline config.
    """
    bad = sorted(set(overrides) - set(_OVERRIDABLE))
    if bad:
        raise ValueError(
            f"unknown driver override(s) {bad}; overridable keys: "
            f"{sorted(_OVERRIDABLE)}"
        )
    desc = dict(base)
    desc.update(overrides)
    # validate eagerly: a bad variant should fail at build time, not
    # inside a worker
    OpenLoopDriver.from_description(desc)
    return desc


def _metrics_of(report: TrafficReport) -> Dict[str, Any]:
    """Plain-data metric record for one replay (picklable, diffable)."""
    r = report.result
    out: Dict[str, Any] = {
        "p50_wait": report.p50_wait,
        "p99_wait": report.p99_wait,
        "p50_turnaround": report.p50_turnaround,
        "p99_turnaround": report.p99_turnaround,
        "shed_rate": report.shed_rate,
        "goodput": r.goodput,
        "utilization": r.utilization,
        "makespan": r.makespan,
        "completed": r.completed,
        "shed": r.shed,
        "dropped": r.dropped,
        "failures": r.failures,
        "retries": r.retries,
        "tenant_completed_service": dict(r.tenant_completed_service),
        "tenant_shed": dict(r.tenant_shed),
    }
    return out


def _replay_variant(item) -> Dict[str, Any]:
    """Worker: replay the trace under one variant description.

    Module-level so the process/steal backends can pickle it; returns
    only plain metric data (a TrafficReport drags the live registry
    along, which has no business crossing a process boundary).
    """
    trace, desc = item
    return _metrics_of(replay(trace, desc))


@dataclass
class ABVariant:
    """One named configuration variant for the A/B matrix."""

    name: str
    overrides: Dict[str, Any] = field(default_factory=dict)


@dataclass
class ABReport:
    """The structured diff report one :func:`ab_replay` produces."""

    trace_path: str
    #: baseline (recorded-config) replay metrics
    baseline: Dict[str, Any]
    #: True = replay matched the recorded fingerprint; None = the
    #: trace records none a replay can be held to (a torn prefix, or
    #: a v1 trace without one) and the baseline was checked
    #: replay-vs-replay only
    fingerprint_matched: Optional[bool]
    #: replay-vs-replay determinism of the baseline (always checked)
    self_consistent: bool
    #: per-variant: name, description, metrics, deltas vs baseline
    variants: List[Dict[str, Any]] = field(default_factory=list)
    n_jobs: int = 0
    complete: bool = True

    @property
    def diverged(self) -> bool:
        """Same-config divergence — the condition the CLI exits on."""
        return self.fingerprint_matched is False or not self.self_consistent

    def to_dict(self) -> Dict[str, Any]:
        return {
            "trace_path": self.trace_path,
            "n_jobs": self.n_jobs,
            "complete": self.complete,
            "fingerprint_matched": self.fingerprint_matched,
            "self_consistent": self.self_consistent,
            "baseline": dict(self.baseline),
            "variants": [dict(v) for v in self.variants],
        }

    def render(self) -> str:
        """Monospace diff table (baseline row + one row per variant)."""
        table = Table(
            ["config", "p50 turn", "p99 turn", "p99 wait", "shed rate",
             "goodput", "completed"],
            title=f"A/B replay: {self.trace_path} "
                  f"({self.n_jobs} jobs)",
        )
        b = self.baseline
        table.add_row("baseline", b["p50_turnaround"],
                      b["p99_turnaround"], b["p99_wait"],
                      b["shed_rate"], b["goodput"], b["completed"])
        for v in self.variants:
            m, d = v["metrics"], v["deltas"]
            table.add_row(
                v["name"], m["p50_turnaround"], m["p99_turnaround"],
                m["p99_wait"], m["shed_rate"], m["goodput"],
                f"{m['completed']} ({d['completed']:+d})",
            )
        return str(table)


def _deltas(variant: Dict[str, Any],
            baseline: Dict[str, Any]) -> Dict[str, Any]:
    out: Dict[str, Any] = {
        k: variant[k] - baseline[k] for k in _DELTA_KEYS
    }
    for k in ("completed", "shed", "dropped", "failures", "retries"):
        out[k] = int(variant[k]) - int(baseline[k])
    tenants = set(variant["tenant_completed_service"]) \
        | set(baseline["tenant_completed_service"])
    if tenants:
        out["tenant_completed_service"] = {
            t: variant["tenant_completed_service"].get(t, 0.0)
               - baseline["tenant_completed_service"].get(t, 0.0)
            for t in sorted(tenants)
        }
        out["tenant_shed"] = {
            t: variant["tenant_shed"].get(t, 0)
               - baseline["tenant_shed"].get(t, 0)
            for t in sorted(tenants)
        }
    return out


def ab_replay(
    path: Union[str, Path],
    variants: Sequence[ABVariant],
    backend: Union[None, str] = "serial",
    strict: bool = True,
) -> ABReport:
    """Replay the trace at *path* against its own config + *variants*.

    ``strict=False`` accepts a torn/unsealed trace and replays its
    committed prefix (the SIGKILL-mid-capture triage path); the
    baseline is then checked replay-vs-replay only, since no recorded
    fingerprint describes the prefix.  ``backend`` drives the variant
    fan-out (default serial; the baseline fingerprint check always
    runs inline — see module docstring).
    """
    return _ab_compare(TrafficTrace.load(path, strict=strict), path,
                       variants, backend)


def _ab_compare(trace: TrafficTrace, path: Union[str, Path],
                variants: Sequence[ABVariant],
                backend: Union[None, str]) -> ABReport:
    """:func:`ab_replay` on a trace already loaded from *path* (the
    CLI reads the header to size its default variants first)."""
    base_desc = trace.meta.get("driver")
    if base_desc is None:
        raise ValueError(f"{path}: trace header has no driver config")
    with _trace.span("traffic.ab_replay", n_jobs=len(trace.jobs),
                     n_variants=len(variants)):
        verdict = verify(trace)
        baseline_metrics = _metrics_of(verdict.report)
        descs = [
            variant_description(base_desc, v.overrides) for v in variants
        ]
        # only the jobs cross to the workers, not header and decisions
        jobs_only = TrafficTrace(trace.jobs)
        results = map_fanout(
            _replay_variant, [(jobs_only, d) for d in descs],
            backend=backend,
        )
    report = ABReport(
        trace_path=str(path),
        baseline=baseline_metrics,
        fingerprint_matched=verdict.matched,
        self_consistent=verdict.self_consistent,
        n_jobs=len(trace.jobs),
        complete=trace.complete,
    )
    for v, desc, metrics in zip(variants, descs, results):
        report.variants.append({
            "name": v.name,
            "description": desc,
            "metrics": metrics,
            "deltas": _deltas(metrics, baseline_metrics),
        })
    _metrics.counter("traffic.ab_replays").add()
    _metrics.counter("traffic.ab_variants").add(len(variants))
    if report.diverged:
        _metrics.counter("traffic.ab_divergences").add()
    return report
