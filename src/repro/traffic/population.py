"""A large simulated user population behind the arrival stream.

The paper's cluster serves many users at once; what matters for the
guard layer is that jobs are *heterogeneous* — different users bring
different service demands, priorities, and deadline discipline.  A
:class:`UserPopulation` models millions of users without materializing
any of them:

- **Lazy per-user RNG streams.**  User *u*'s stream is
  ``SeedSequence(seed, spawn_key=(NS, u))`` — a pure function of the
  population seed and the user id, constructed on first touch.  No
  O(n_users) state, no overlap between users (SeedSequence spawn-key
  partitioning), and bit-reproducibility regardless of how many users
  the run actually touches.  :func:`repro.util.rng.keyed_rngs` builds
  the streams of every user a batch touches first in one call.
- **Skewed popularity.**  Job submitters follow a power-law: arrival
  *k*'s user is ``floor(n_users * u^skew)`` for a uniform draw *u*
  from the assignment stream, concentrating traffic on the heavy
  users the way production queues see it.
- **Per-user profiles.**  Each user gets a stable service-scale,
  priority class, deadline slack, and best-effort flag, drawn once
  from a dedicated profile stream; services then come from the user's
  own job stream via :func:`repro.sched.workloads.draw_services`, so
  the population's realized mean service stays ``mean_service``.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.sched.simulator import Job
from repro.sched.workloads import draw_services
from repro.util.rng import keyed_rngs

#: spawn-key namespaces: assignment stream / per-user jobs / profiles
_NS_ASSIGN, _NS_JOBS, _NS_PROFILE = 0, 1, 2
#: arrivals :meth:`UserPopulation.stream_jobs` turns into jobs at a time
STREAM_BATCH = 256


class UserProfile:
    """Stable per-user traits (a pure function of seed and user id)."""

    __slots__ = ("user_id", "mean_scale", "priority", "slack",
                 "best_effort")

    def __init__(self, user_id: int, mean_scale: float, priority: int,
                 slack: float, best_effort: bool):
        self.user_id = user_id
        self.mean_scale = mean_scale
        self.priority = priority
        self.slack = slack
        self.best_effort = best_effort


class UserPopulation:
    """Millions of lazily-materialized simulated users.

    ``jobs_for(arrivals)`` assigns each arrival to a user and draws
    that job's service/priority/deadline from the user's own streams.
    The mapping is deterministic: the same population (seed + params)
    fed the same arrival count sequence produces bit-identical jobs,
    which is what lets a recorded trace double as a cross-check on the
    generator.
    """

    def __init__(
        self,
        n_users: int = 1_000_000,
        seed: int = 0,
        mean_service: float = 10.0,
        sigma: float = 0.8,
        long_fraction: float = 0.1,
        skew: float = 2.0,
        n_priorities: int = 3,
        deadline_slack: Sequence[float] = (2.0, 6.0),
        best_effort_fraction: float = 0.25,
        tenant: Optional[str] = None,
    ):
        # user ids key their streams as one uint32 spawn-key word
        if not (1 <= n_users <= 2**32):
            raise ValueError("n_users in [1, 2**32]")
        if mean_service <= 0 or sigma <= 0:
            raise ValueError("bad service parameters")
        if not (0.0 <= long_fraction <= 1.0):
            raise ValueError("long_fraction in [0, 1]")
        if skew < 1.0:
            raise ValueError("skew >= 1 (1 = uniform popularity)")
        if n_priorities < 1:
            raise ValueError("need at least one priority class")
        if len(deadline_slack) != 2 or deadline_slack[0] <= 0 \
                or deadline_slack[1] < deadline_slack[0]:
            raise ValueError("deadline_slack is (lo, hi), 0 < lo <= hi")
        if not (0.0 <= best_effort_fraction <= 1.0):
            raise ValueError("best_effort_fraction in [0, 1]")
        self.n_users = n_users
        self.seed = seed
        self.mean_service = mean_service
        self.sigma = sigma
        self.long_fraction = long_fraction
        self.skew = skew
        self.n_priorities = n_priorities
        self.deadline_slack = (float(deadline_slack[0]),
                               float(deadline_slack[1]))
        self.best_effort_fraction = best_effort_fraction
        #: tenant tag stamped on every synthesized job (None = anonymous)
        self.tenant = tenant
        self.reset()

    def reset(self) -> None:
        """Rewind every stream to the just-constructed state."""
        self._assign_rng = np.random.default_rng(
            np.random.SeedSequence(self.seed, spawn_key=(_NS_ASSIGN,))
        )
        self._user_rngs: Dict[int, np.random.Generator] = {}
        self._profiles: Dict[int, UserProfile] = {}

    # -- lazy per-user state -------------------------------------------

    def _new_profiles(self, user_ids: List[int]) -> None:
        lo, hi = self.deadline_slack
        for uid, rng in zip(user_ids,
                            keyed_rngs(self.seed, _NS_PROFILE, user_ids)):
            # lognormal service scale with unit mean, so the
            # population-wide realized mean stays `mean_service`
            mean_scale = float(np.exp(rng.normal(-0.08, 0.4)))
            self._profiles[uid] = UserProfile(
                user_id=uid,
                mean_scale=mean_scale,
                priority=int(rng.integers(self.n_priorities)),
                slack=float(rng.uniform(lo, hi)),
                best_effort=bool(rng.random() < self.best_effort_fraction),
            )

    def profile(self, user_id: int) -> UserProfile:
        """The stable profile of *user_id* (cached after first touch)."""
        if not (0 <= user_id < self.n_users):
            raise ValueError("user_id out of range")
        if user_id not in self._profiles:
            self._new_profiles([user_id])
        return self._profiles[user_id]

    # -- job synthesis --------------------------------------------------

    def jobs_for(self, arrivals: Sequence[float],
                 job_id_base: int = 0) -> List[Job]:
        """One :class:`Job` per arrival, drawn from per-user streams.

        Arrival *k* goes to the user picked by the *k*-th draw of the
        assignment stream; its service comes from that user's next
        draws.  Streams of users touched for the first time are built
        in one batch per namespace.
        """
        times = np.asarray(arrivals, dtype=float).tolist()
        n_users, skew = self.n_users, self.skew
        # Python floats, not NumPy `**`, whose rounding may differ from
        # C pow in the last place
        uids = [min(int(n_users * u ** skew), n_users - 1)
                for u in self._assign_rng.random(len(times)).tolist()]
        profiles, streams = self._profiles, self._user_rngs
        touched = dict.fromkeys(uids)
        self._new_profiles([u for u in touched if u not in profiles])
        fresh = [u for u in touched if u not in streams]
        streams.update(zip(fresh, keyed_rngs(self.seed, _NS_JOBS, fresh)))
        jobs = []
        for k, (arrival, uid) in enumerate(zip(times, uids)):
            prof = profiles[uid]
            service, is_long = draw_services(
                streams[uid], None, self.mean_service * prof.mean_scale,
                self.sigma, self.long_fraction,
            )
            jobs.append(Job(
                job_id=job_id_base + k,
                arrival=arrival,
                service=service,
                is_long=is_long,
                priority=prof.priority,
                deadline=(None if prof.best_effort
                          else arrival + prof.slack * service),
                tenant=self.tenant,
            ))
        return jobs

    def stream_jobs(self, times, job_id_base: int = 0):
        """Lazy twin of :meth:`jobs_for`: one :class:`Job` per arrival
        pulled from the (possibly unbounded) *times* iterable.

        Runs :meth:`jobs_for` over consecutive batches of
        ``STREAM_BATCH`` arrivals, so the first ``n`` jobs are bit-exact
        with ``jobs_for(sample(n))`` on a freshly :meth:`reset`
        population (the streamed-vs-materialized equivalence the
        capture tests gate).  Jobs are still yielded one at a time, and
        at most ``STREAM_BATCH - 1`` arrival times are read past the
        last job yielded: a horizon-bounded
        :class:`~repro.sched.simulator.SimulatorSession` consumes it one
        lookahead job at a time.
        """
        times = iter(times)
        while True:
            batch = list(itertools.islice(times, STREAM_BATCH))
            if not batch:
                return
            yield from self.jobs_for(batch, job_id_base)
            job_id_base += len(batch)

    @property
    def touched_users(self) -> int:
        """Users whose job stream has been materialized so far."""
        return len(self._user_rngs)

    def describe(self) -> dict:
        """JSON-able parameter record for trace headers."""
        return {
            "n_users": self.n_users,
            "seed": self.seed,
            "mean_service": self.mean_service,
            "sigma": self.sigma,
            "long_fraction": self.long_fraction,
            "skew": self.skew,
            "n_priorities": self.n_priorities,
            "deadline_slack": list(self.deadline_slack),
            "best_effort_fraction": self.best_effort_fraction,
            "tenant": self.tenant,
        }

    @classmethod
    def from_description(cls, desc: dict) -> "UserPopulation":
        return cls(
            n_users=desc["n_users"], seed=desc["seed"],
            mean_service=desc["mean_service"], sigma=desc["sigma"],
            long_fraction=desc["long_fraction"], skew=desc["skew"],
            n_priorities=desc["n_priorities"],
            deadline_slack=tuple(desc["deadline_slack"]),
            best_effort_fraction=desc["best_effort_fraction"],
            # .get: traces recorded before the tenant layer carry no tag
            tenant=desc.get("tenant"),
        )
