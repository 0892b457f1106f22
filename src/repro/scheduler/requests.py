"""The fleet scheduler's input: a stream of container placement requests.

A request is everything the cluster control plane knows when a container
arrives: the workload (its profile — in a real deployment this would be the
image plus whatever the operator declared), the vCPU count the customer
bought, and an optional performance goal expressed the paper's way, as a
fraction of the baseline placement's performance (Section 7 uses 0.9, 1.0,
and 1.1).

:func:`generate_request_stream` builds a deterministic heterogeneous stream
for experiments and benchmarks: workloads drawn from the paper's 18
applications (optionally jittered into synthetic variants), mixed vCPU
sizes, and a mix of goal-bearing and best-effort requests.

For the dynamic lifecycle engine (:mod:`repro.scheduler.lifecycle`), a
request additionally carries an ``arrival_time`` and an optional
``lifetime``; :func:`generate_churn_stream` draws Poisson arrivals and
exponential or heavy-tailed (Pareto) lifetimes, the churn regime where
containers arrive *and* leave and free capacity fragments across hosts.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Sequence

import numpy as np

from repro.core.serialize import Record
from repro.perfsim.generator import WorkloadGenerator
from repro.perfsim.library import paper_workloads
from repro.perfsim.workload import WorkloadProfile


@dataclass(frozen=True, slots=True)
class PlacementRequest(Record):
    """One container arriving at the fleet scheduler.

    ``arrival_time`` and ``lifetime`` (both in simulated seconds) only
    matter to the event-driven lifecycle engine; the one-shot scheduler
    ignores them.  ``lifetime=None`` means the container never departs.
    """

    request_id: int
    profile: WorkloadProfile
    vcpus: int
    goal_fraction: float | None = None
    arrival_time: float = 0.0
    lifetime: float | None = None

    def __post_init__(self) -> None:
        if self.vcpus < 1:
            raise ValueError("vcpus must be >= 1")
        if self.goal_fraction is not None and self.goal_fraction <= 0:
            raise ValueError("goal_fraction must be positive")
        if self.arrival_time < 0:
            raise ValueError("arrival_time must be >= 0")
        if self.lifetime is not None and self.lifetime <= 0:
            raise ValueError("lifetime must be positive")

    @property
    def workload_name(self) -> str:
        return self.profile.name

    @property
    def departure_time(self) -> float | None:
        """When the container leaves, or None if it stays forever."""
        if self.lifetime is None:
            return None
        return self.arrival_time + self.lifetime

    def describe(self) -> str:
        goal = (
            f"goal {self.goal_fraction:.0%}"
            if self.goal_fraction is not None
            else "best-effort"
        )
        return f"req#{self.request_id} {self.profile.name} x{self.vcpus} ({goal})"


def generate_request_stream(
    n_requests: int,
    *,
    seed: int = 0,
    vcpus_choices: Sequence[int] = (8, 16),
    goal_choices: Sequence[float | None] = (None, 0.9, 1.0),
    jitter: float = 0.0,
) -> List[PlacementRequest]:
    """A deterministic stream of heterogeneous placement requests.

    Parameters
    ----------
    n_requests:
        Stream length.
    seed:
        Drives every draw; equal seeds give equal streams.
    vcpus_choices:
        Container sizes to sample uniformly.
    goal_choices:
        Performance goals to sample uniformly (``None`` = best effort).
    jitter:
        When positive, each request's workload is a jittered synthetic
        variant instead of a verbatim paper profile, so no two requests are
        exactly alike.
    """
    if n_requests < 1:
        raise ValueError("n_requests must be >= 1")
    if not vcpus_choices:
        raise ValueError("vcpus_choices must not be empty")
    if not goal_choices:
        raise ValueError("goal_choices must not be empty")
    rng = np.random.default_rng(seed)
    base = paper_workloads()
    # Namespaced: synthetic names are only unique per generator, and an
    # online-learning run deduplicates observed workloads against its
    # training corpus *by name* — an un-namespaced stream would collide
    # with the corpus's own synthetic names and silently mask novel
    # workloads from retraining.
    generator = (
        WorkloadGenerator(seed=seed, jitter=jitter, namespace="stream")
        if jitter > 0
        else None
    )
    requests: List[PlacementRequest] = []
    for request_id in range(1, n_requests + 1):
        if generator is not None:
            profile = generator.sample_one()
        else:
            profile = base[int(rng.integers(0, len(base)))]
        vcpus = int(vcpus_choices[int(rng.integers(0, len(vcpus_choices)))])
        goal = goal_choices[int(rng.integers(0, len(goal_choices)))]
        requests.append(
            PlacementRequest(
                request_id=request_id,
                profile=profile,
                vcpus=vcpus,
                goal_fraction=goal,
            )
        )
    return requests


@dataclass(frozen=True)
class ArrivalPhase:
    """One segment of a phase-shift schedule: from ``start_fraction`` of
    the stream onward, arrivals draw their workloads from this mix.

    ``archetype_weights`` changes *which* behaviour categories arrive
    (the mix shift); ``template_scale`` moves the categories' centres so
    the post-shift population is out of the training distribution (the
    concept shift).  ``None`` weights sample all archetypes uniformly.
    """

    start_fraction: float
    archetype_weights: Dict[str, float] | None = None
    template_scale: Dict[str, float] | None = None
    jitter: float = 0.35

    def __post_init__(self) -> None:
        if not 0.0 <= self.start_fraction < 1.0:
            raise ValueError("start_fraction must be in [0, 1)")
        if self.jitter < 0:
            raise ValueError("jitter must be >= 0")


def drift_phase_schedule() -> List[ArrivalPhase]:
    """The canonical two-phase drift scenario used by the CLI, the
    online-learning example, and ``benchmarks/bench_online.py``.

    Phase 1 is a tame, in-distribution mix (the training corpus covers
    these archetypes at these centres).  Phase 2 shifts the arrival mix to
    communication- and bandwidth-heavy archetypes *and* rescales their
    templates — bigger working sets, far chattier threads — a population
    the offline corpus never sampled.  A frozen model's rolling MAPE
    degrades across the shift; the online loop retrains on the observed
    arrivals and recovers.
    """
    return [
        ArrivalPhase(
            start_fraction=0.0,
            archetype_weights={
                "cpu-bound": 2.0,
                "cache-capacity": 2.0,
                "oltp": 1.0,
            },
            jitter=0.2,
        ),
        ArrivalPhase(
            start_fraction=0.5,
            archetype_weights={
                "latency-bound": 2.0,
                "bandwidth-bound": 1.0,
                "analytics": 1.0,
            },
            template_scale={
                "working_set_mb": 4.0,
                "membw_per_vcpu": 2.0,
                "comm_bytes_per_vcpu": 3.0,
            },
            jitter=0.45,
        ),
    ]


def _phase_profiles(
    n_requests: int, phases: Sequence[ArrivalPhase], seed: int
) -> List[WorkloadProfile]:
    """One workload profile per request position, following the schedule.

    Each phase gets its own deterministically derived generator, so
    inserting or tuning a later phase never perturbs an earlier phase's
    draws.  Positions before the first phase's start keep the base
    stream's profiles (signalled here as None-free by construction:
    callers only replace positions this function covers).
    """
    ordered = sorted(phases, key=lambda p: p.start_fraction)
    starts = [int(p.start_fraction * n_requests) for p in ordered]
    profiles: List[WorkloadProfile | None] = [None] * n_requests
    for index, phase in enumerate(ordered):
        begin = starts[index]
        end = starts[index + 1] if index + 1 < len(ordered) else n_requests
        # Namespaced: phase profiles must never collide by name with each
        # other or with a training corpus (dedup-by-name downstream).
        generator = WorkloadGenerator(
            seed=seed + 7919 * (index + 1),
            jitter=phase.jitter,
            namespace=f"phase{index + 1}",
        )
        for position in range(begin, end):
            profiles[position] = generator.sample_one(
                weights=phase.archetype_weights,
                template_scale=phase.template_scale,
            )
    return profiles


def generate_churn_stream(
    n_requests: int,
    *,
    seed: int = 0,
    arrival_rate: float = 1.0,
    mean_lifetime: float = 60.0,
    heavy_tail: bool = False,
    pareto_shape: float = 1.5,
    immortal_fraction: float = 0.0,
    vcpus_choices: Sequence[int] = (8, 16),
    goal_choices: Sequence[float | None] = (None, 0.9, 1.0),
    jitter: float = 0.0,
    phases: Sequence[ArrivalPhase] | None = None,
) -> List[PlacementRequest]:
    """A deterministic churn stream: timestamped arrivals with lifetimes.

    Arrivals form a Poisson process of intensity ``arrival_rate``
    (exponential inter-arrival gaps).  Lifetimes are exponential with mean
    ``mean_lifetime``, or — with ``heavy_tail=True`` — Lomax/Pareto-II
    with shape ``pareto_shape`` rescaled to the same mean, the
    "most containers are short-lived, a few pin their nodes for ages"
    distribution that fragments a fleet fastest.  A ``pareto_shape`` of at
    most 1 has no finite mean, so it must be > 1.

    ``immortal_fraction`` of requests get ``lifetime=None`` (they never
    depart — long-running services between which the churning batch jobs
    must fit).

    ``phases`` applies a phase-shift schedule (see :class:`ArrivalPhase`):
    the arrival-mix archetype distribution changes mid-stream, the drift
    scenario the online model lifecycle exists for.  Only the workload
    profiles change — request ids, vCPU sizes, goals, arrival times, and
    lifetimes are drawn exactly as in the unphased stream, so a phased and
    an unphased run are comparable event for event (and ``phases=None``
    is bit-for-bit today's stream).
    """
    if n_requests < 1:
        raise ValueError("n_requests must be >= 1")
    if arrival_rate <= 0:
        raise ValueError("arrival_rate must be positive")
    if mean_lifetime <= 0:
        raise ValueError("mean_lifetime must be positive")
    if heavy_tail and pareto_shape <= 1.0:
        raise ValueError("pareto_shape must be > 1 for a finite mean lifetime")
    if not 0.0 <= immortal_fraction < 1.0:
        raise ValueError("immortal_fraction must be in [0, 1)")

    base = generate_request_stream(
        n_requests,
        seed=seed,
        vcpus_choices=vcpus_choices,
        goal_choices=goal_choices,
        jitter=jitter,
    )
    if phases:
        profiles = _phase_profiles(n_requests, phases, seed)
        base = [
            request
            if profile is None
            else replace(request, profile=profile)
            for request, profile in zip(base, profiles)
        ]
    rng = np.random.default_rng(seed + 1)
    clock = 0.0
    requests: List[PlacementRequest] = []
    for request in base:
        clock += float(rng.exponential(1.0 / arrival_rate))
        if immortal_fraction > 0 and rng.random() < immortal_fraction:
            lifetime = None
        elif heavy_tail:
            # Lomax(shape) has mean 1/(shape-1); rescale to mean_lifetime.
            draw = float(rng.pareto(pareto_shape))
            lifetime = max(draw * mean_lifetime * (pareto_shape - 1.0), 1e-6)
        else:
            lifetime = max(float(rng.exponential(mean_lifetime)), 1e-6)
        requests.append(
            PlacementRequest(
                request_id=request.request_id,
                profile=request.profile,
                vcpus=request.vcpus,
                goal_fraction=request.goal_fraction,
                arrival_time=clock,
                lifetime=lifetime,
            )
        )
    return requests
