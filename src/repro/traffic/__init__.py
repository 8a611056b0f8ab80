"""Open-loop traffic generation, trace record/replay, and drivers.

The paper's workload is *offered*: thousands of users submit to a
shared machine whether or not it is keeping up.  This package
synthesizes that regime — arrival processes
(:class:`~repro.traffic.arrivals.PoissonArrivals`,
:class:`~repro.traffic.arrivals.MMPPArrivals`,
:class:`~repro.traffic.arrivals.DiurnalArrivals`) over a lazily
materialized :class:`~repro.traffic.population.UserPopulation` — and
makes every experiment a recorded artifact: a
:class:`~repro.traffic.trace.TrafficTrace` (packed records in WAL framing)
whose header carries the complete generator + driver configuration,
so any run replays bit-exactly via
:func:`~repro.traffic.driver.replay`, and every verifier checks it
through the one :func:`~repro.traffic.driver.verify`.

Round 2 adds the live side: :class:`~repro.traffic.capture.CaptureTap`
streams jobs/decisions out of an in-flight run into a WAL-framed
trace incrementally and seals the run's fingerprint as a trailer
(:func:`~repro.traffic.capture.capture_experiment`);
``ArrivalProcess.stream()`` + ``UserPopulation.stream_jobs()`` feed
horizon-bounded sessions without ever materializing the job list,
bit-exact with the materialized path; and
:func:`~repro.traffic.ab.ab_replay` replays one trace against N
variant machine/policy configs, checks the identical-config replay
against the sealed fingerprint, and emits a structured diff report.
"""

from repro.traffic.ab import ABReport, ABVariant, ab_replay
from repro.traffic.arrivals import (
    ArrivalProcess,
    DiurnalArrivals,
    MMPPArrivals,
    PoissonArrivals,
    process_from_description,
)
from repro.traffic.driver import (
    AdmissionSpec,
    ChaosSpec,
    OpenLoopDriver,
    TrafficReport,
    Verdict,
    generate_jobs,
    record_experiment,
    replay,
    replay_experiment,
    verify,
    verify_replay,
)
from repro.traffic.capture import CaptureTap, capture_experiment
from repro.traffic.population import UserPopulation, UserProfile
from repro.traffic.trace import TraceWriter, TrafficTrace

__all__ = [
    "ABReport",
    "ABVariant",
    "CaptureTap",
    "TraceWriter",
    "ab_replay",
    "capture_experiment",
    "ArrivalProcess",
    "PoissonArrivals",
    "MMPPArrivals",
    "DiurnalArrivals",
    "process_from_description",
    "UserPopulation",
    "UserProfile",
    "TrafficTrace",
    "OpenLoopDriver",
    "TrafficReport",
    "AdmissionSpec",
    "ChaosSpec",
    "generate_jobs",
    "record_experiment",
    "replay",
    "replay_experiment",
    "Verdict",
    "verify",
    "verify_replay",
]
