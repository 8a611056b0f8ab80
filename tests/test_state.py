"""The checkpoint schema: layout pins and state completeness.

Every checkpointable stepper names its state once, in a ``_STATE``
tuple of :class:`repro.util.state.Field`\\ s, and ``checkpoint_state``
/ ``restore_state`` are derived from it.  Three things are held here:

- **layout pins** — each class's checkpoint, at a fixed mid-run
  scenario, encodes canonically (key order, container types, array
  dtype/shape/order/bytes, scalar types and reprs) to a pinned sha256.
  The pins were computed before the schema existed, from the
  hand-written methods it replaced: journals written then must stay
  readable, MuMMI's pickled state feeds a benchmark digest, and a
  breaker's dict is sealed into every trace fingerprint.  Raw pickle
  bytes are not pinned, because NumPy's array pickles embed its
  module path.  MuMMI is also pinned at the benchmark's op length,
  40 cycles, run straight through and recovered from a durable store.
- **completeness** — checkpoint mid-run, step, restore: every
  attribute of the stepper and of the objects it owns must equal its
  pre-step value, except the attributes named below as non-state.
- two promises of the schema itself: the derived methods are each
  class's own attributes, and a Generator field shares no state dict
  with the live Generator.
"""

import dataclasses
import hashlib
import pickle
import types
from collections import deque
from dataclasses import replace

import numpy as np
import pytest

from repro.durable import DurableStore, ResumableCampaign
from repro.guard.deadline import AdmissionController, CircuitBreaker
from repro.md.ddcmd import DdcMD, make_martini_membrane
from repro.md.integrators import LangevinThermostat
from repro.resilience import FaultInjector
from repro.sched import Fcfs, SimulatorSession, SjfWithQuota
from repro.sched.workloads import poisson_workload
from repro.solvers.boomeramg import BoomerAMG
from repro.solvers.csr import CsrMatrix
from repro.solvers.krylov import PcgSolver
from repro.solvers.problems import poisson_2d, random_spd
from repro.tenant import BrownoutLadder, multitenant_pileup
from repro.util.rng import make_rng
from repro.util.state import Tail, resolve_tails, saved_lengths
from repro.workflow.mummi import MummiCampaign

# -- scenarios ---------------------------------------------------------


def _jobs():
    """An overloaded stream (rate 1.0 on 8 GPUs x mean service 10)
    with priorities and deadlines, so admission sheds and the breaker
    trips under chaos."""
    return [
        replace(job, priority=job.job_id % 4,
                deadline=(None if job.job_id % 3 == 0
                          else job.arrival + 3.0 * job.service + 50.0))
        for job in poisson_workload(n_jobs=240, arrival_rate=1.0, seed=4)
    ]


def _session(policy="fcfs", engine="fast", admission="breaker", seed=2):
    """A scheduler session with chaos and *admission*: ``"breaker"``
    (one controller + breaker), or an arbiter-on / arbiter-off tenant
    registry on a noisy-neighbour pile-up."""
    if admission == "breaker":
        jobs, n_gpus = _jobs(), 8
        adm = AdmissionController(
            max_queue=12, protect_priority=2,
            breaker=CircuitBreaker(failure_threshold=1,
                                   recovery_time=30.0),
        )
    else:
        bundle = multitenant_pileup(n_gpus=4, n_jobs_per_tenant=60,
                                    breaker_failure_threshold=2)
        jobs, n_gpus = bundle.jobs, 4
        adm = replace(bundle.tenancy,
                      arbiter_enabled=admission == "tenancy").make()
    return SimulatorSession(
        n_gpus, jobs, Fcfs() if policy == "fcfs" else SjfWithQuota(n_gpus),
        fault_injector=FaultInjector(mtbf=40.0, seed=seed),
        engine=engine, admission=adm,
    )


def _mummi(extras=False, seed=11):
    """The repo benchmark's mummi_durable campaign config (faults,
    retries, deadline sheds, breaker-driven surrogate cycles); with
    *extras*, also a brownout ladder."""
    return MummiCampaign(
        n_gpus=8, jobs_per_cycle=24, seed=seed, backend="serial",
        fault_injector=FaultInjector(mtbf=300.0, seed=seed),
        cycle_budget=190.0,
        breaker=CircuitBreaker(failure_threshold=2, recovery_time=3.0,
                               name="mummi"),
        admission=AdmissionController(),
        ladder=BrownoutLadder() if extras else None,
    )


def _pcg():
    a = CsrMatrix(random_spd(60, density=0.12, seed=0))
    return PcgSolver(a, make_rng(1).random(60), tol=1e-10, max_iter=400)


def _amg():
    amg = BoomerAMG(coarse_size=20)
    amg.setup(poisson_2d(12))
    return amg.solve_session(make_rng(0).random(144), tol=1e-8,
                             max_iter=60)


def _ddcmd():
    system, proc, bonds, angles = make_martini_membrane(
        n_lipids_per_leaflet=9, n_water=32, seed=3
    )
    return DdcMD(system, proc, dt=0.002, bonds=bonds, angles=angles,
                 thermostat=LangevinThermostat(temperature=1.0,
                                               friction=1.0, seed=7))


def _advance(stepper, k):
    for _ in range(k):
        stepper.step()
    return stepper


def _mid_session(**kw):
    ses = _session(**kw)
    ses.advance(150)
    return ses


def _mid_tenancy():
    ses = _session(admission="tenancy")
    ses.advance(120)
    return ses.admission


# -- layout pins -------------------------------------------------------


def _encode(obj, out):
    """Append a canonical token stream for a checkpoint value."""
    if isinstance(obj, dict):
        out.append(f"dict({len(obj)})")
        for key, value in obj.items():
            _encode(key, out)
            _encode(value, out)
    elif isinstance(obj, (list, tuple)):
        out.append(f"{type(obj).__name__}({len(obj)})")
        for value in obj:
            _encode(value, out)
    elif isinstance(obj, deque):
        out.append(f"deque({len(obj)},{obj.maxlen})")
        for value in obj:
            _encode(value, out)
    elif isinstance(obj, (set, frozenset)):
        out.append(f"{type(obj).__name__}({len(obj)})")
        out.extend(sorted(_canonical(value) for value in obj))
    elif isinstance(obj, np.ndarray):
        order = ("C" if obj.flags.c_contiguous
                 else "F" if obj.flags.f_contiguous else "-")
        out.append(f"ndarray({obj.dtype.str},{obj.shape},{order})")
        out.append(obj.tobytes().hex())
    elif isinstance(obj, np.generic):
        out.append(f"np{obj.dtype.str}:{obj.item()!r}")
    elif dataclasses.is_dataclass(obj):
        out.append(type(obj).__name__)
        for f in dataclasses.fields(obj):
            _encode(getattr(obj, f.name), out)
    else:
        out.append(f"{type(obj).__name__}:{obj!r}")


def _canonical(obj) -> str:
    out = []
    _encode(obj, out)
    return "\n".join(out)


def layout_digest(state) -> str:
    return hashlib.sha256(_canonical(state).encode()).hexdigest()


#: the stepper, or owned object, whose checkpoint_state() is pinned
SCENARIOS = {
    "CircuitBreaker": lambda: _mid_session().admission.breaker,
    "AdmissionController": lambda: _mid_session().admission,
    "FaultInjector": lambda: _mid_session().fault_injector,
    "_ReferenceQueue": lambda: _mid_session(engine="reference").queue,
    "KeyedFastQueue": lambda: _mid_session().queue,
    "QuotaFastQueue": lambda: _mid_session(policy="sjfq").queue,
    "SimulatorSession-fcfs-fast": lambda: _mid_session(),
    "SimulatorSession-fcfs-reference":
        lambda: _mid_session(engine="reference"),
    "SimulatorSession-sjfq-fast": lambda: _mid_session(policy="sjfq"),
    "SimulatorSession-tenancy": lambda: _mid_session(admission="tenancy"),
    "SimulatorSession-tenancy-off":
        lambda: _mid_session(admission="tenancy-off"),
    "BrownoutLadder": lambda: _mid_tenancy()._tenants["noisy"].ladder,
    "FlightRecorder": lambda: _mid_tenancy().recorder,
    "TenantRegistry": _mid_tenancy,
    "TenantRegistry-off": lambda: _mid_session(
        admission="tenancy-off").admission,
    "MummiCampaign": lambda: _advance(_mummi(), 6),
    "MummiCampaign-extras": lambda: _advance(_mummi(extras=True), 6),
    "PcgSolver": lambda: _advance(_pcg(), 10),
    "AmgSolve": lambda: _advance(_amg(), 3),
    "DdcMD": lambda: _advance(_ddcmd(), 5),
}

#: sha256 of each scenario's canonical checkpoint encoding, computed
#: from the hand-written checkpoint methods the schema replaced
LAYOUT_PINS = {
    "AdmissionController":
        "6b4566d5f9d0993de41cb73abcd7de2a499d5910c8faa200901ea6923563eb05",
    "AmgSolve":
        "db86dd00564d6e9331eb258237194e978dbf8e1998a506966eb9f343a8074cc0",
    "BrownoutLadder":
        "b14f3fd38a4924e2fd395d30d9be5f51ec0932b3af94d4e532053a51bc6d704c",
    "CircuitBreaker":
        "292e0f3b2dc846710e9edd94264988047dfe440ca94576f20bf91137ab979194",
    "DdcMD":
        "17ab6b210dadb0c7678b19ce6e7af4cdca33d88dac147c6bb95d568cc3052a54",
    "FaultInjector":
        "6df6c39f11e8ae95e7b75c074b68ca4a1fa94e7a25c9e28383d2dce22e528545",
    "FlightRecorder":
        "86b44ffb6e11e5d70bce7b111191e38701d3548094f23346f94cd535bbd818a7",
    "KeyedFastQueue":
        "58536b62f626b678185b0d0fcdadbc0ddbdf75c801d254f47e1062f1aa49f0b0",
    "MummiCampaign":
        "6a7b0d7c123526a33919b26ddc733d4f2b4aaec7d386fd97d56d3c008677daf1",
    "MummiCampaign-extras":
        "017cca5c042364b6f8ef499f5e479434f36e7b3091e5c993114bf1b2a4aee96a",
    "PcgSolver":
        "e62246eeac694b0706d3e7994a2c3e8d29303638cda3e53abf63446e399edf3b",
    "QuotaFastQueue":
        "d3e467786388bf1c83619d35d118bd089786946aa41198fa81896cadd3e5f86a",
    "SimulatorSession-fcfs-fast":
        "7c2dc86eaf3f1afd8c3a8b0a684a6155cd41e15ede90d5b50984a6f8ef5a658b",
    "SimulatorSession-fcfs-reference":
        "1febaf50c238ec6ec2cda1281cfd51a8e42c5e621febdf847feca1d600cbf5a7",
    "SimulatorSession-sjfq-fast":
        "382cf53d51f4ff0423646508cd90cba9d557b88aaed6053918cb760de1e397f6",
    "SimulatorSession-tenancy":
        "c9cdf3ef779601eae90081831a24017989ee149a06085c9b3ba2254ff685b704",
    "SimulatorSession-tenancy-off":
        "fc379a4130628d46d3ac847ae9c016a4b5c9557449d7eceef59e0334a7f20486",
    "TenantRegistry":
        "d5f9856a9a6f36c75eeb484619b4bd2420436b76f3e71430781ccfbaa7015cfe",
    "TenantRegistry-off":
        "cb6f17494407b7c55c06bdbd4728b2a4263946ca8b7433668c7a464ad3be1311",
    "_ReferenceQueue":
        "af35d109ba4107e51cb35155fb3306a3fdef1e622acc38d376ffe283d64dbd9f",
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_checkpoint_layout_is_pinned(name):
    assert layout_digest(SCENARIOS[name]().checkpoint_state()) \
        == LAYOUT_PINS[name]


def _recovered_mummi(root, n_cycles=40):
    """The mummi_durable op: journal a campaign, recover a fresh one."""
    with DurableStore(root, sync=False) as store:
        ResumableCampaign(_mummi(), store, cadence=10).run(n_cycles)
    with DurableStore(root, sync=False) as store:
        driver = ResumableCampaign(_mummi(), store)
        assert driver.recover() == n_cycles
    return driver.stepper


#: 40-cycle MuMMI runs (the benchmark's op length) and their pins,
#: computed before the evaluation streams were batched, the novelty
#: search sorted and the durable store's in-memory copy dropped
LONG_RUNS = {
    "MummiCampaign-40": (
        lambda root: _advance(_mummi(), 40),
        "8d53a683392861f12cc6620cde2f3b160cae869daf6b12937e38afcc5498ae73"),
    "MummiCampaign-40-recovered": (
        _recovered_mummi,
        "8d53a683392861f12cc6620cde2f3b160cae869daf6b12937e38afcc5498ae73"),
    "MummiCampaign-extras-40": (
        lambda root: _advance(_mummi(extras=True), 40),
        "8630bd2edbbea786b3215a8b7ab2a58842a7c4d9d2e83fb01ba13f549f2ff714"),
}


@pytest.mark.parametrize("name", sorted(LONG_RUNS))
def test_long_mummi_run_is_pinned(name, tmp_path):
    scenario, pin = LONG_RUNS[name]
    assert layout_digest(scenario(tmp_path).checkpoint_state()) == pin


# -- completeness ------------------------------------------------------

#: attributes a checkpoint leaves out on purpose, by owning class
NON_STATE = {
    ("TenantRegistry", "_last"):
        "the last_decision read-out of the most recent admit; no "
        "decision reads it",
    ("_TenantState", "shed_counter"):
        "a handle on a process-global metric; a resumed run rewinds "
        "the guard.* counters by prefix (ResumableCampaign)",
}

_LEAVES = (type(None), bool, int, float, complex, str, bytes, np.generic)
_CODE = (types.FunctionType, types.MethodType, types.BuiltinFunctionType,
         type)


def _attributes(obj):
    names = list(getattr(obj, "__dict__", ()))
    for cls in type(obj).__mro__:
        slots = cls.__dict__.get("__slots__", ())
        names.extend((slots,) if isinstance(slots, str) else slots)
    for name in names:
        if name not in ("__dict__", "__weakref__") and hasattr(obj, name):
            yield name, getattr(obj, name)


def _flatten(obj, path, out, stack, exempt):
    """Record a token for every value reachable from *obj*, by path:
    Generators by state, arrays by dtype, shape and bytes, frozen
    records (jobs) by repr, functions and classes by name, containers
    by type, length (and deque maxlen) plus their items, and any other
    object by class plus its attributes."""
    if isinstance(obj, _LEAVES):
        out[path] = (type(obj).__name__, repr(obj))
    elif isinstance(obj, np.random.Generator):
        out[path] = ("Generator", repr(obj.bit_generator.state))
    elif isinstance(obj, np.random.SeedSequence):
        out[path] = ("SeedSequence", obj.entropy, tuple(obj.spawn_key),
                     obj.n_children_spawned)
    elif isinstance(obj, np.ndarray):
        out[path] = ("ndarray", obj.dtype.str, obj.shape, obj.tobytes())
    elif dataclasses.is_dataclass(obj) \
            and obj.__dataclass_params__.frozen:
        out[path] = ("frozen", repr(obj))
    elif isinstance(obj, _CODE):
        out[path] = ("code", obj.__qualname__)
    elif id(obj) in stack:
        out[path] = ("cycle",)
    else:
        stack.add(id(obj))
        if isinstance(obj, dict):
            out[path] = ("dict", [repr(k) for k in obj])
            items = ((f"[{k!r}]", v) for k, v in obj.items())
        elif isinstance(obj, (list, tuple, deque)):
            out[path] = (type(obj).__name__, len(obj),
                         getattr(obj, "maxlen", None))
            items = ((f"[{i}]", v) for i, v in enumerate(obj))
        elif isinstance(obj, (set, frozenset)):
            out[path] = (type(obj).__name__, sorted(map(repr, obj)))
            items = ()
        else:
            out[path] = (type(obj).__name__,)
            owner = type(obj).__name__
            items = (
                (f".{name}", value) for name, value in _attributes(obj)
                if not (exempt and (owner, name) in NON_STATE)
            )
        for suffix, value in items:
            _flatten(value, path + suffix, out, stack, exempt)
        stack.discard(id(obj))


def _snapshot(obj, exempt=True):
    out = {}
    _flatten(obj, "", out, set(), exempt)
    return out


def _differences(before, after):
    return sorted(path for path in before.keys() | after.keys()
                  if before.get(path) != after.get(path))


def _at_event(k, **kw):
    ses = _session(**kw)
    ses.advance(k)
    return ses


#: name -> (build the stepper mid-run, step it k times)
COMPLETENESS = {
    **{
        f"SimulatorSession-{policy}-{engine}": (
            lambda policy=policy, engine=engine: _at_event(
                100, policy=policy, engine=engine),
            lambda ses: ses.advance(40),
        )
        for policy in ("fcfs", "sjfq") for engine in ("fast", "reference")
    },
    "SimulatorSession-tenancy": (
        lambda: _at_event(100, admission="tenancy"),
        lambda ses: ses.advance(40),
    ),
    "SimulatorSession-tenancy-off": (
        lambda: _at_event(100, admission="tenancy-off"),
        lambda ses: ses.advance(40),
    ),
    "MummiCampaign": (lambda: _advance(_mummi(), 3),
                      lambda c: _advance(c, 3)),
    "MummiCampaign-extras": (lambda: _advance(_mummi(extras=True), 3),
                             lambda c: _advance(c, 3)),
    "PcgSolver": (lambda: _advance(_pcg(), 10), lambda s: _advance(s, 5)),
    "AmgSolve": (lambda: _advance(_amg(), 2), lambda s: _advance(s, 2)),
    "DdcMD": (lambda: _advance(_ddcmd(), 3), lambda s: _advance(s, 3)),
}


@pytest.mark.parametrize("name", sorted(COMPLETENESS))
def test_restore_rewinds_every_attribute(name):
    """Checkpoint mid-run, step, restore from the pickled checkpoint:
    every attribute of the stepper and of everything it owns is back
    at its pre-step value, save the ones :data:`NON_STATE` names."""
    build, step = COMPLETENESS[name]
    stepper = build()
    before = _snapshot(stepper)
    blob = pickle.dumps(stepper.checkpoint_state())
    assert _snapshot(stepper) == before  # checkpointing is pure
    step(stepper)
    assert _differences(before, _snapshot(stepper))  # the steps moved it
    stepper.restore_state(pickle.loads(blob))
    assert _differences(before, _snapshot(stepper)) == []


def test_non_state_exemptions_are_each_needed():
    """Without the exemptions, the arbiter-on registry differs after a
    restore at exactly the attributes :data:`NON_STATE` names."""
    ses = _at_event(100, admission="tenancy")
    before = _snapshot(ses, exempt=False)
    blob = pickle.dumps(ses.checkpoint_state())
    ses.advance(40)
    ses.restore_state(pickle.loads(blob))
    names = {f".{name}" for _, name in NON_STATE}
    moved = [{name for name in names if name in path}
             for path in _differences(before, _snapshot(ses, exempt=False))]
    assert all(moved) and set().union(*moved) == names


def test_probe_catches_a_field_left_out_of_the_schema():
    solver = _advance(_pcg(), 10)
    solver._STATE = tuple(f for f in PcgSolver._STATE if f.key != "rz")
    before = _snapshot(solver)
    blob = pickle.dumps(solver.checkpoint_state())
    _advance(solver, 5)
    solver.restore_state(pickle.loads(blob))
    assert _differences(before, _snapshot(solver)) == [".rz"]


# -- append-only fields ------------------------------------------------

#: steppers with append-only fields: (build mid-run, step it)
TAILS = {
    "MummiCampaign": (lambda: _advance(_mummi(), 3),
                      lambda c: _advance(c, 2)),
    "MummiCampaign-extras": (lambda: _advance(_mummi(extras=True), 3),
                             lambda c: _advance(c, 2)),
    **{
        f"SimulatorSession-{admission}": (
            lambda admission=admission: _at_event(100, admission=admission),
            lambda ses: ses.advance(40),
        )
        for admission in ("breaker", "tenancy")
    },
}


@pytest.mark.parametrize("name", sorted(TAILS))
def test_tails_resolve_to_the_full_checkpoint(name):
    """Checkpoint, step, checkpoint the tails from the saved lengths:
    resolved against the first checkpoint, the pickled tails encode
    exactly as a full checkpoint, and each tail holds only the items
    the steps added."""
    build, step = TAILS[name]
    stepper = build()
    base = stepper.checkpoint_state()
    step(stepper)
    tails = stepper.checkpoint_tails(saved_lengths(base))
    full = stepper.checkpoint_state()
    resolved = resolve_tails(base, pickle.loads(pickle.dumps(tails)))
    assert layout_digest(resolved) == layout_digest(full)
    cut = {key: value for key, value in tails.items() if type(value) is Tail}
    assert len(cut) == (3 if name.startswith("Mummi") else 4)
    for key, tail in cut.items():
        assert tail.start == len(base[key])
        assert tail.items == full[key][tail.start:]
    assert any(tail.items for tail in cut.values())


def test_tails_refuse_a_list_that_shrank():
    campaign = _advance(_mummi(), 2)
    lengths = saved_lengths(campaign.checkpoint_state())
    campaign.explored.pop()
    with pytest.raises(ValueError, match="explored"):
        campaign.checkpoint_tails(lengths)


def test_resolve_tails_needs_the_base_items():
    assert resolve_tails(None, {"xs": Tail(0, [1])}) == {"xs": [1]}
    assert resolve_tails({"xs": [1, 2, 3]}, {"xs": Tail(2, [4])}) \
        == {"xs": [1, 2, 4]}
    with pytest.raises(ValueError):
        resolve_tails({"xs": [1]}, {"xs": Tail(2, [3])})


# -- the schema itself -------------------------------------------------


def test_derived_methods_are_each_class_own_attributes():
    """perfbench's layer tracer patches ``MummiCampaign.__dict__``; an
    override up the hierarchy (the streamed-session refusal) wins."""
    from repro.sched.simulator import SimulatorSession
    from repro.tenant import TenantRegistry

    for cls in (MummiCampaign, SimulatorSession, TenantRegistry, DdcMD):
        assert {"checkpoint_state", "restore_state"} <= set(cls.__dict__)

    class Session(SimulatorSession):
        pass

    assert Session.checkpoint_state is SimulatorSession.checkpoint_state
    assert Session.restore_state is SimulatorSession.restore_state


def test_generator_field_shares_no_state_dict():
    """The Generator kind saves ``bit_generator.state`` without a deep
    copy: the getter must hand out a fresh dict and the setter copy
    its argument, so editing a checkpoint never moves the stream."""
    injector = FaultInjector(seed=3)
    saved = injector.checkpoint_state()
    saved["rng"]["state"]["state"] += 1  # edit the checkpoint ...
    assert injector.checkpoint_state() != saved  # ... not the Generator
    injector.restore_state(saved)
    assert injector.checkpoint_state() == saved
    saved["rng"]["state"]["state"] += 1  # edit what restore was given
    assert injector.checkpoint_state() != saved
