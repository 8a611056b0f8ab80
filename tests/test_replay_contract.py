"""The one replay contract.

Every verifier — ``verify_replay``, ``verify_incident``, the
``ab_replay`` baseline check and ``python -m repro.traffic --replay``
— runs through :func:`repro.traffic.driver.verify`: two replays that
must agree with each other and with the recorded fingerprint.  Each
failure branch is driven here on the four kinds of sealed trace the
repo writes: a ``record_experiment`` trace, a batch capture, a
streamed capture and a tenant incident dump — and on two traces the
version 2 writer left behind (``tests/data``), which must keep
verifying.
"""

import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.durable.wal import WriteAheadLog, read_records
from repro.obs import metrics
from repro.tenant import multitenant_pileup, record_incident, verify_incident
from repro.traffic import (
    AdmissionSpec,
    ChaosSpec,
    OpenLoopDriver,
    PoissonArrivals,
    TrafficTrace,
    UserPopulation,
    ab_replay,
    capture_experiment,
    record_experiment,
    verify,
    verify_replay,
)
from repro.traffic.__main__ import main as traffic_main

DATA = Path(__file__).resolve().parent / "data"
#: sealed version 2 traces: a batch capture with decisions, and a
#: tenant-tagged incident dump
V2_FIXTURES = {"v2-capture": DATA / "v2_capture.trace",
               "v2-incident": DATA / "v2_incident.trace"}
KINDS = ("recorded", "batch", "stream", "incident", *V2_FIXTURES)
#: the kinds whose header carries the generator (process + population)
GENERATED = ("recorded", "batch", "stream", "v2-capture")


def _driver(horizon=None):
    return OpenLoopDriver(
        n_gpus=4, policy="fcfs",
        admission=AdmissionSpec(
            max_queue=12, protect_priority=2,
            breaker_failure_threshold=3, breaker_recovery_time=40.0,
        ),
        chaos=ChaosSpec(mtbf=250.0, seed=1),
        horizon=horizon,
    )


def _population():
    return UserPopulation(n_users=20_000, seed=0, mean_service=10.0,
                          best_effort_fraction=0.3)


def _write(path, kind):
    if kind == "recorded":
        record_experiment(path, PoissonArrivals(rate=0.55), _population(),
                          _driver(), n_jobs=100)
    elif kind == "batch":
        capture_experiment(path, PoissonArrivals(rate=0.55),
                           _population(), _driver(), n_jobs=100)
    elif kind == "stream":
        capture_experiment(path, PoissonArrivals(rate=0.6),
                           _population(), _driver(horizon=150.0))
    else:
        bundle = multitenant_pileup(n_gpus=4, n_jobs_per_tenant=25)
        record_incident(path, bundle.jobs,
                        OpenLoopDriver(n_gpus=4, tenancy=bundle.tenancy),
                        reason="drill")


@pytest.fixture(scope="module")
def sealed(tmp_path_factory):
    """kind -> the bytes of one sealed trace of that kind."""
    root = tmp_path_factory.mktemp("sealed")
    out = {kind: path.read_bytes() for kind, path in V2_FIXTURES.items()}
    for kind in KINDS:
        if kind not in out:
            _write(root / f"{kind}.trace", kind)
            out[kind] = (root / f"{kind}.trace").read_bytes()
    return out


def _rewrite(path, header=None, trailer=None):
    """Re-frame *path* with its header meta and/or trailer fingerprint
    edited in place by the given callables; the record frames between
    them are copied through unchanged."""
    frames = list(read_records(path))
    head, tail = json.loads(frames[0]), json.loads(frames[-1])
    if header is not None:
        header(head["meta"])
    if trailer is not None:
        trailer(tail["trailer"]["fingerprint"])
    path.unlink()
    with WriteAheadLog(path, sync=False) as wal:
        wal.append_many([json.dumps(head, sort_keys=True).encode(),
                         *frames[1:-1],
                         json.dumps(tail, sort_keys=True).encode()])


def _doctor(fingerprint):
    fingerprint["completed"] -= 1


@pytest.fixture(params=KINDS)
def trace_path(request, sealed, tmp_path):
    path = tmp_path / f"{request.param}.trace"
    path.write_bytes(sealed[request.param])
    return path


def test_sealed_trace_passes_every_verifier(trace_path, capsys):
    verdict = verify(TrafficTrace.load(trace_path))
    assert verdict.self_consistent and verdict.matched is True
    assert verify_replay(trace_path).fingerprint() \
        == verdict.report.fingerprint()
    verify_incident(trace_path)
    report = ab_replay(trace_path, [])
    assert report.fingerprint_matched is True and not report.diverged
    assert traffic_main(["--replay", str(trace_path)]) == 0
    assert "replayed bit-exactly" in capsys.readouterr().out


def test_doctored_trailer_fails_every_verifier(trace_path, capsys):
    _rewrite(trace_path, trailer=_doctor)
    verdict = verify(TrafficTrace.load(trace_path))
    assert verdict.self_consistent and verdict.matched is False
    with pytest.raises(AssertionError, match="recorded fingerprint"):
        verify_replay(trace_path)
    with pytest.raises(AssertionError, match="recorded fingerprint"):
        verify_incident(trace_path)
    report = ab_replay(trace_path, [])
    assert report.fingerprint_matched is False and report.diverged
    assert traffic_main(["--replay", str(trace_path)]) == 1
    assert traffic_main(["ab", str(trace_path),
                         "--variant", "sjf:policy=sjf"]) == 1
    assert "REPLAY FAILED" in capsys.readouterr().err


@pytest.mark.parametrize("kind", GENERATED)
def test_edited_arrival_seed_fails_regeneration(kind, sealed, tmp_path):
    path = tmp_path / f"{kind}.trace"
    path.write_bytes(sealed[kind])

    def bump_seed(meta):
        meta["arrival_seed"] += 1

    _rewrite(path, header=bump_seed)
    # the replay itself only reads the driver config: it still agrees
    verdict = verify(TrafficTrace.load(path))
    assert verdict.self_consistent and verdict.matched is True
    with pytest.raises(AssertionError, match="regenerated job stream"):
        verify_replay(path)
    assert traffic_main(["--replay", str(path)]) == 1


def test_leaky_driver_fails_self_consistency(trace_path, monkeypatch):
    real_run = OpenLoopDriver.run
    runs = []

    def leaky_run(self, jobs, tap=None):
        report = real_run(self, jobs, tap)
        if runs:  # every later run sees state the earlier ones left
            report.shed_log.append((None, f"leaked-{len(runs)}"))
        runs.append(self)
        return report

    monkeypatch.setattr(OpenLoopDriver, "run", leaky_run)
    verdict = verify(TrafficTrace.load(trace_path))
    assert not verdict.self_consistent and verdict.matched is True
    with pytest.raises(AssertionError, match="diverged from itself"):
        verify_replay(trace_path)
    with pytest.raises(AssertionError, match="diverged from itself"):
        verify_incident(trace_path)
    report = ab_replay(trace_path, [])
    assert not report.self_consistent and report.diverged


def test_each_verifier_loads_once(trace_path, monkeypatch):
    loads, real = [], TrafficTrace.load.__func__

    def counting_load(cls, *args, **kwargs):
        loads.append(args)
        return real(cls, *args, **kwargs)

    monkeypatch.setattr(TrafficTrace, "load", classmethod(counting_load))
    replayed = metrics.counter("traffic.experiments_replayed")
    ab_runs = metrics.counter("traffic.ab_replays")
    before = replayed.value, ab_runs.value
    verify_replay(trace_path)
    assert len(loads) == 1
    assert replayed.value - before[0] == 2
    assert traffic_main(["--replay", str(trace_path)]) == 0
    assert len(loads) == 2
    ab_replay(trace_path, [])
    assert len(loads) == 3
    assert ab_runs.value - before[1] == 1
    # without --variant the CLI sizes its defaults from the same load
    assert traffic_main(["ab", str(trace_path)]) == 0
    assert len(loads) == 4
    assert ab_runs.value - before[1] == 2


def _tear_incident(raw, path):
    """Write *raw* without its trailer and part of its last record
    frame; return the lenient load of what survives."""
    path.write_bytes(raw)
    frames = [8 + len(p) for p in read_records(path)]
    path.write_bytes(raw[:8 + sum(frames[:-2]) + 3])
    torn = TrafficTrace.load(path, strict=False)
    assert not torn.complete and "fingerprint" in torn.meta
    return torn, len(frames)


def test_torn_incident_is_held_to_self_consistency(sealed, tmp_path,
                                                   capsys):
    """A torn incident dump keeps the full run's fingerprint in its
    header; a replay of the surviving prefix must not be compared with
    it, or every torn dump would read as a divergence."""
    path = tmp_path / "incident-torn.trace"
    torn, n_frames = _tear_incident(sealed["incident"], path)
    # the dump packs 64 jobs per batch frame: every batch before the
    # torn one survives whole, and nothing of the torn one
    assert len(torn.jobs) == 64 * (n_frames - 3) > 0
    # strict load refuses it: bad input (2), not a divergence (1)
    assert traffic_main(["--replay", str(path)]) == 2
    err = capsys.readouterr().err
    assert "torn trace" in err and "Traceback" not in err
    assert traffic_main(["ab", str(path)]) == 2
    assert traffic_main(["ab", str(path), "--allow-torn",
                         "--variant", "sjf:policy=sjf"]) == 0
    assert "self_consistent=True" in capsys.readouterr().out


def test_torn_v2_incident_loses_one_job_frame(sealed, tmp_path, capsys):
    """The version 2 incident dump keeps its one-frame-per-job torn
    rule and the same exit codes."""
    path = tmp_path / "v2-incident-torn.trace"
    torn, n_frames = _tear_incident(sealed["v2-incident"], path)
    assert torn.version == 2
    assert len(torn.jobs) == n_frames - 3
    assert traffic_main(["--replay", str(path)]) == 2
    assert traffic_main(["ab", str(path), "--allow-torn",
                         "--variant", "sjf:policy=sjf"]) == 0
    assert "self_consistent=True" in capsys.readouterr().out


def _header_end(raw):
    """Byte offset just past the header frame (magic + one frame)."""
    length = int.from_bytes(raw[8:12], "big")
    return 8 + 8 + length


@pytest.mark.parametrize("kind", KINDS)
@given(data=st.data())
@settings(max_examples=15, deadline=None)
@example(data=None)
def test_any_cut_is_torn_and_its_prefix_self_consistent(kind, sealed,
                                                         tmp_path_factory,
                                                         data):
    """For any byte cut of a sealed trace, strict load raises; past the
    header, lenient load gives a prefix whose :func:`verify` is
    self-consistent and never compared with a recorded fingerprint
    (``matched is None``).  A cut that leaves no job has nothing to
    replay, and says so."""
    whole = sealed[kind]
    if data is None:  # the cut that keeps every job but the trailer
        cut = len(whole) - 1
    else:
        cut = data.draw(st.integers(0, len(whole) - 1), label="cut")
    path = tmp_path_factory.mktemp("cut") / "cut.trace"
    path.write_bytes(whole[:cut])
    with pytest.raises(ValueError):
        TrafficTrace.load(path)
    if cut < _header_end(whole):
        return
    prefix = TrafficTrace.load(path, strict=False)
    assert not prefix.complete and prefix.fingerprint is None
    if not prefix.jobs:
        with pytest.raises(ValueError, match="no jobs"):
            verify(prefix)
        return
    verdict = verify(prefix)
    assert verdict.self_consistent and verdict.matched is None
