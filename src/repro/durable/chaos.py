"""Kill/restart chaos harness for the durable crash-restart core.

Forks a MuMMI campaign child that journals every cycle into a
:class:`~repro.durable.DurableStore`, delivers ``SIGKILL`` at
randomized (seeded) points in its life, restarts it, and — after the
configured number of kills — lets the final incarnation run to
completion.  The recovered terminal payload must be **bit-exact**
against an uninterrupted in-process reference run: same final
campaign state (macro field, RNG streams and spawn counters, GPU-hour
/ wall-time / shed accounting, breaker state) and the same
observability counters.

Because the journal commit is the only durability boundary, a kill
can land anywhere — mid-cycle, mid-fsync, mid-snapshot-rotation —
and recovery must still converge.  The harness is wired into
``tests/test_durable.py`` and the ``durable-chaos`` CI job; it is
also runnable directly::

    python -m repro.durable.chaos --cycles 8 --kills 3 --seed 0
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import tempfile
from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.durable.campaign import (
    COUNTER_PREFIXES,
    ResumableCampaign,
    _capture_counters,
)
from repro.durable.store import DurableStore
from repro.util.state import state_mismatches


@dataclass
class ChaosReport:
    """What one kill/restart chaos run did and whether it converged."""

    kills: int = 0
    restarts: int = 0
    cycles: int = 0
    recovered_step: int = -1
    bit_exact: bool = False
    mismatches: List[str] = field(default_factory=list)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        verdict = "BIT-EXACT" if self.bit_exact else "DIVERGED"
        lines = [
            f"chaos: {self.kills} kills / {self.restarts} starts, "
            f"{self.cycles} cycles, recovered step {self.recovered_step}: "
            f"{verdict}"
        ]
        lines += [f"  mismatch at {m}" for m in self.mismatches[:20]]
        return "\n".join(lines)


#: bound on incarnations, against a store that never makes progress
MAX_RESTARTS = 50


def _make_campaign(seed: int):
    from repro.workflow.mummi import MummiCampaign

    # explicit serial backend: the chaos child is SIGKILLed, and an
    # explicit backend (argument beats REPRO_PAR) keeps the kill from
    # orphaning a process pool's grandchildren under the CI matrix
    return MummiCampaign(seed=seed, n_gpus=8, jobs_per_cycle=8,
                         backend="serial")


def _reset_tracked_counters() -> None:
    from repro.obs import metrics as _metrics

    for prefix in COUNTER_PREFIXES:
        _metrics.REGISTRY.reset(prefix)


def _chaos_child(root, n_cycles, cadence, pace, seed) -> None:
    """One child incarnation: recover (if anything is durable), run."""
    # fork inherits the parent's counter registry; the tracked
    # namespaces must start from zero (fresh boot) or from the journal
    # (recovery rewinds them), never from inherited parent activity
    _reset_tracked_counters()
    campaign = _make_campaign(seed)
    with DurableStore(root) as store:
        driver = ResumableCampaign(campaign, store, cadence=cadence)
        driver.recover()
        driver.run(n_cycles, pace=pace)


def run_chaos(
    n_cycles: int = 8,
    kills: int = 3,
    seed: int = 0,
    kill_seed: int = 123,
    pace: float = 0.02,
    cadence: int = 3,
    store_root=None,
) -> ChaosReport:
    """Run the kill/restart experiment; see the module docstring.

    The kill schedule is seeded (``kill_seed``): delays are drawn
    uniformly over the child's expected lifetime, so across the
    configured kills the SIGKILLs sample early, middle, and late
    journal boundaries.
    """
    import multiprocessing as mp

    report = ChaosReport()

    # --- uninterrupted reference, in-process ---------------------------
    _reset_tracked_counters()
    ref = _make_campaign(seed)
    while ref.progress < n_cycles:
        ref.step()
    ref_state = ref.checkpoint_state()
    ref_counters = _capture_counters()

    # --- the chaos loop ------------------------------------------------
    tmp = None
    if store_root is None:
        tmp = tempfile.TemporaryDirectory(prefix="repro-chaos-")
        store_root = tmp.name
    try:
        ctx = mp.get_context("fork")
        rng = np.random.default_rng(kill_seed)
        remaining = n_cycles
        while report.restarts < MAX_RESTARTS:
            child = ctx.Process(
                target=_chaos_child,
                args=(store_root, n_cycles, cadence, pace, seed),
            )
            child.start()
            report.restarts += 1
            if report.kills < kills:
                # scale the kill point to the child's *remaining* work
                # (peeked from the store between incarnations) so every
                # requested kill lands before the campaign completes
                delay = float(
                    rng.uniform(pace * 0.5, pace * max(1.0, 0.8 * remaining))
                )
                child.join(delay)
                if child.is_alive():
                    os.kill(child.pid, signal.SIGKILL)
                    child.join()
                    report.kills += 1
                    with DurableStore(store_root) as peek:
                        rec = peek.recover()
                    remaining = n_cycles - (rec[0] if rec else 0)
                    continue
            else:
                child.join()
            if child.exitcode != 0:
                raise RuntimeError(
                    f"chaos child exited with {child.exitcode} "
                    "(only SIGKILLs delivered by the harness are expected)"
                )
            break
        else:
            raise RuntimeError(
                f"no convergence within {MAX_RESTARTS} restarts"
            )

        # --- recover the terminal payload and compare ------------------
        with DurableStore(store_root) as store:
            rec = store.recover()
        if rec is None:
            report.mismatches.append("store recovered nothing")
            return report
        step, payload = rec
        report.recovered_step = step
        report.cycles = step
        report.mismatches = state_mismatches(payload["state"], ref_state)
        report.mismatches += state_mismatches(
            payload.get("counters", {}), ref_counters, path="counters"
        )
        report.bit_exact = step == n_cycles and not report.mismatches
        return report
    finally:
        if tmp is not None:
            tmp.cleanup()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--cycles", type=int, default=8)
    ap.add_argument("--kills", type=int, default=3)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--kill-seed", type=int, default=123)
    ap.add_argument("--pace", type=float, default=0.02)
    ap.add_argument("--cadence", type=int, default=3)
    args = ap.parse_args(argv)
    report = run_chaos(
        n_cycles=args.cycles, kills=args.kills, seed=args.seed,
        kill_seed=args.kill_seed, pace=args.pace, cadence=args.cadence,
    )
    print(report)
    return 0 if report.bit_exact else 1


if __name__ == "__main__":
    sys.exit(main())
