"""A perf gate that does not read a clock.

The decision path's cost on batches of one is Python scaffolding around
two probe draws and one forest call, and this sandbox's wall clock
spreads ±15 % between identical runs — so the gate counts instead:
function calls under ``cProfile`` on a warm, seeded stream are the same
on every machine.  What it guards is the shape of the path (state that
is a pure function of a ``(shape, vCPUs)`` key is compiled into the
policy's lanes, not re-derived per event; a value object's identity is
derived once per object, not once per lookup), not its speed.
"""

import cProfile
import operator
import pstats
from dataclasses import replace

import numpy as np

from repro.core.placements import Placement
from repro.ml.arena import ForestArena
from repro.perfsim import simulator as simulator_module
from repro.perfsim.simulator import PerformanceSimulator
from repro.perfsim.workload import WorkloadProfile
from repro.scheduler import (
    ChurnFold,
    EventKind,
    Fleet,
    FleetIndex,
    GoalAwareFleetPolicy,
    LifecycleScheduler,
    ModelRegistry,
    ScheduleConfig,
    SchedulerService,
    events_from_requests,
    generate_churn_stream,
)
from repro.scheduler import policies as policies_module
from repro.scheduler.events import LifecycleEvent
from repro.scheduler.lifecycle import FragmentationSample
from repro.topology import amd_opteron_6272, intel_xeon_e7_4830_v3
from repro.topology import machine as machine_module

ARRIVALS = 400
#: Python-level and builtin calls per arrival (departures included) the
#: stream below may cost.  On CPython 3.11 / numpy 2.4 it reads 437 (the
#: commit before the lanes: 564; before profiles, placements and lanes
#: carried their identity: 495; before a batch's probe generators were
#: derived in one pass: 416 — that pass is some 25 calls per batch, which
#: at one request per batch is not repaid in calls, only in time), about
#: 16 of them inside numpy's own Python wrappers and the lock each
#: generator takes — the part another numpy may count differently, hence
#: the headroom; later interpreters inline comprehensions and read lower.
#: Raise it only for a change that knowingly buys something with the
#: extra calls.
CALLS_PER_ARRIVAL_BUDGET = 450
#: Calls one finally-rejected arrival may cost on the saturated stream
#: below.  It reads 184-292, nearly all of it the rebalance plan that
#: finds nothing to move; the probes, forest call and rank walk it no
#: longer pays for were some 250 more.
CALLS_PER_REJECT_BUDGET = 330
#: Calls the first arrival of a never-seen profile may make above the same
#: request once its profile is known: one scalar simulation per probe row
#: and grade it misses (two probe placements on each of two shapes, one or
#: two grading rows), the noise prefixes of the probe placements and the
#: profile's identity, each built once.  It reads 195 (323 for the
#: warm arrival); at the commit before misses took the scalar path, each
#: probe miss was a one-cell ``breakdown_batch`` grid and it read 457.
FIRST_ENCOUNTER_EXTRA_CALLS_BUDGET = 225


def _stream(seed, first_id, arrivals=ARRIVALS):
    stream = generate_churn_stream(
        arrivals,
        seed=seed,
        vcpus_choices=(8, 8, 16, 32),
        arrival_rate=20.0,
        mean_lifetime=60.0,
    )
    return [replace(r, request_id=first_id + r.request_id) for r in stream]


def _engine(hosts_per_shape=200):
    registry = ModelRegistry(n_estimators=6, n_synthetic=2, seed=0)
    return LifecycleScheduler(
        Fleet.mixed(
            [
                (amd_opteron_6272(), hosts_per_shape),
                (intel_xeon_e7_4830_v3(), hosts_per_shape),
            ]
        ),
        GoalAwareFleetPolicy(registry),
        registry=registry,
    )


def _replay(engine, requests):
    for event in events_from_requests(requests).drain():
        engine.step(event)


def _key(function):
    code = function.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


def _calls(stats, function):
    """Times ``function`` ran under the profile."""
    entry = stats.stats.get(_key(function))
    return entry[1] if entry else 0


def _hash_calls_from(stats, function):
    """Times ``function`` called the ``hash`` builtin: how often it
    *computed* a hash, as opposed to handing out a kept one."""
    for (_, _, name), entry in stats.stats.items():
        if name == "<built-in method builtins.hash>":
            made = entry[4].get(_key(function))
            return made[1] if made else 0
    return 0


def test_decision_path_stays_within_its_call_budget():
    engine = _engine()
    _replay(engine, _stream(99, 10**9))  # models, tables, lanes, memos: warm
    engine.begin()
    profile = cProfile.Profile()
    profile.enable()
    _replay(engine, _stream(17, 0))
    profile.disable()
    stats = pstats.Stats(profile)

    per_arrival = stats.total_calls / ARRIVALS
    assert per_arrival <= CALLS_PER_ARRIVAL_BUDGET, (
        f"{per_arrival:.0f} calls per arrival, budget "
        f"{CALLS_PER_ARRIVAL_BUDGET}: per-event scaffolding crept back "
        "into the decision path"
    )

    placed = [g.decision for g in engine.graded if g.decision.placed]
    assert len(placed) == ARRIVALS and not engine.stats.migrations
    realised = {
        (d.placement.machine.name, d.placement_id, d.placement.nodes)
        for d in placed
    }
    # At most once per distinct realised (candidate, block) — fewer
    # here, the warm-up having realised most of them already.
    assert _calls(stats, Placement.__init__) <= len(realised) < ARRIVALS // 4


def test_identity_is_derived_once_per_object(monkeypatch):
    """From a cold engine through 512 arrivals: a profile hashes its 17
    fields at most once per object, a placement exactly once (when it is
    built), a machine builds one fingerprint tuple — however many dict
    lookups each of them keys — and the lanes did not change how often
    the registry is probed."""
    built = []

    class CountedFingerprint(machine_module.Fingerprint):
        def __new__(cls, fields):
            built.append(fields[0])
            return super().__new__(cls, fields)

    monkeypatch.setattr(machine_module, "Fingerprint", CountedFingerprint)
    requests = _stream(17, 0, arrivals=512)
    profile = cProfile.Profile()
    profile.enable()
    engine = _engine()
    _replay(engine, requests)
    profile.disable()
    stats = pstats.Stats(profile)
    assert sum(g.decision.placed for g in engine.graded) == len(requests)

    profiles = {id(request.profile) for request in requests}
    lookups = _calls(stats, WorkloadProfile.__hash__)
    assert lookups > 4 * len(requests)  # two probes per shape, and grading
    assert _hash_calls_from(stats, WorkloadProfile.__hash__) <= len(profiles)

    constructed = _calls(stats, Placement.__init__)
    assert constructed > 0 and _calls(stats, Placement.__hash__) > constructed
    assert _hash_calls_from(stats, Placement.__init__) == constructed
    assert _hash_calls_from(stats, Placement.__hash__) == 0

    machines = {id(host.machine): host.machine for host in engine.fleet.hosts}
    assert sorted(built) == sorted(m.name for m in machines.values())

    # One request per decision: one (shape, vcpus) group per shape, a
    # lane lookup and two probes for each.
    decisions = _calls(stats, GoalAwareFleetPolicy.decide_batch)
    assert decisions == len(requests) and not engine.stats.migrations
    assert _calls(stats, GoalAwareFleetPolicy._lane) == 2 * decisions
    assert _calls(stats, ModelRegistry.probe_ipc_batch) == 4 * decisions


def _count_draws(monkeypatch):
    """Counters of the batched noise kernel (calls, rows) and of
    ``np.random.default_rng``, patched in where the decision path
    would reach them."""
    counts = {"kernel": 0, "rows": 0, "generators": 0}
    standard_normals, default_rng = (
        simulator_module.standard_normals,
        np.random.default_rng,
    )

    def counted_kernel(seeds):
        counts["kernel"] += 1
        counts["rows"] += len(seeds)
        return standard_normals(seeds)

    def counted_rng(*args, **kwargs):
        counts["generators"] += 1
        return default_rng(*args, **kwargs)

    monkeypatch.setattr(simulator_module, "standard_normals", counted_kernel)
    monkeypatch.setattr(np.random, "default_rng", counted_rng)
    return counts


def test_a_decision_batch_draws_its_probes_in_one_kernel_call(monkeypatch):
    """However many groups, shapes and inputs a goal-aware batch probes,
    their noise is one kernel call with one row per probe, and no
    generator is built one at a time."""
    engine = _engine()
    _replay(engine, _stream(99, 10**9))
    engine.begin()
    requests, warm = _stream(17, 0, arrivals=64), _stream(23, 10**6, arrivals=32)
    counts = _count_draws(monkeypatch)
    shapes = len(engine.fleet.shapes)
    for start in range(0, len(requests), 8):
        window = requests[start : start + 8]
        counts.update(kernel=0, rows=0)
        engine.policy.decide_batch(window, engine.fleet)
        # Every shape has room on this half-empty fleet: two probes per
        # request on each.
        assert (counts["kernel"], counts["rows"]) == (1, 2 * shapes * len(window))
    _replay(engine, warm)
    assert counts["generators"] == 0


def test_a_capacity_reject_is_the_cheapest_answer(monkeypatch):
    """On a fleet driven to saturation: an arrival nothing can hold is
    answered from the index — no noise draw, no forest call, no rank walk
    — and one the rebalancer recovers pays for exactly one decision (two
    probes and one forest call on the shape the rebalancer made room
    on), not a failed one and then a second."""
    counts = _count_draws(monkeypatch)
    counts["fused"] = 0
    predict_fused = policies_module.predict_fused

    def counted_fused(plans):
        counts["fused"] += 1
        return predict_fused(plans)

    monkeypatch.setattr(policies_module, "predict_fused", counted_fused)

    engine = _engine(hosts_per_shape=20)

    def saturating(seed, first_id):
        # 40 hosts offered what keeps the other tests' 400 half empty.
        return [
            replace(r, lifetime=r.lifetime / 7.5)
            for r in _stream(seed, first_id)
        ]

    _replay(engine, saturating(99, 10**9))  # warm, and drained again
    engine.begin()
    rejected = recovered = 0
    for event in events_from_requests(saturating(17, 0)).drain():
        if event.kind is not EventKind.ARRIVAL:
            engine.step(event)
            continue
        counts.update(kernel=0, rows=0, generators=0, fused=0)
        recovered_before = engine.stats.rebalance_recovered
        profile = cProfile.Profile()
        profile.enable()
        entry = engine.step(event)
        profile.disable()
        stats = pstats.Stats(profile)
        forests = _calls(stats, ForestArena._mean)
        walked = _calls(stats, FleetIndex.lowest_host)
        assert counts["generators"] == 0
        draws = (counts["kernel"], counts["rows"], counts["fused"])
        if engine.stats.rebalance_recovered > recovered_before:
            recovered += 1
            # The first decision found no shape with room; the rebalancer
            # then freed a block on one host, so the second decision
            # probes and predicts on that host's shape only.  (While lanes
            # without room were still probed, this read four rows and two
            # forests.)
            assert draws + (forests,) == (1, 2, 1, 1)
        elif not entry.decision.placed:
            rejected += 1
            assert entry.decision.reject_reason == "capacity"
            assert draws + (forests, walked) == (0, 0, 0, 0, 0)
            assert stats.total_calls <= CALLS_PER_REJECT_BUDGET
    assert rejected >= 20 and recovered >= 2


def test_a_first_encounter_costs_about_a_warm_arrival():
    """On a warmed engine, the first arrival of a profile no memo row has
    seen simulates its misses on the scalar path, no grid kernel, and
    costs a bounded number of calls more than the same request once the
    profile is known."""
    engine = _engine()
    _replay(engine, _stream(99, 10**9))
    engine.begin()
    template = _stream(17, 0, arrivals=1)[0]
    profile = replace(
        template.profile, name=f"{template.profile.name}-never-seen"
    )
    registry = engine.registry

    def arrive(request_id):
        request = replace(template, request_id=request_id, profile=profile)
        misses = registry.ipc_cache_info().misses
        calls = cProfile.Profile()
        calls.enable()
        entry = engine.step(
            LifecycleEvent(0.0, request_id, EventKind.ARRIVAL, request)
        )
        calls.disable()
        engine.depart(request_id, 0.0)
        assert entry.decision.placed
        return pstats.Stats(calls), registry.ipc_cache_info().misses - misses

    first, misses = arrive(1)
    warm, _ = arrive(2)
    # Two probe placements on each of two shapes missed, at least; each
    # miss is one scalar simulation.
    assert misses >= 4
    assert _calls(first, PerformanceSimulator.measured_ipc) == misses
    assert _calls(first, PerformanceSimulator.breakdown_batch) == 0
    extra = first.total_calls - warm.total_calls
    assert extra <= FIRST_ENCOUNTER_EXTRA_CALLS_BUDGET, (
        f"a first encounter made {extra} calls more than a warm arrival, "
        f"budget {FIRST_ENCOUNTER_EXTRA_CALLS_BUDGET}"
    )


#: Python-level and builtin calls the front end may spend per departure
#: row of a shard's reply, over what a reply costs whatever its length.
#: It reads 8: a length check and an append to the rows it folds, then
#: the timeline's append and its five column appends.  When the front
#: end decoded each row into a state change object and a fragmentation
#: sample first, it read 12.
FOLD_CALLS_PER_DEPARTURE_BUDGET = 8


def test_a_departure_row_is_folded_as_it_arrived():
    """The front end folds a reply's departure rows without decoding
    them: the fold is handed the very rows the shard sent, builds no
    ``FragmentationSample``, and each row costs a pinned number of calls
    (the marginal cost between a reply of ``n`` rows and one of ``2n``)."""
    config = ScheduleConfig(machine="amd", hosts=4, policy="first-fit", shards=2)
    with SchedulerService(config) as service:

        def reply(rows):
            return service.clients[0].request(
                {"op": "depart", "events": [[k, float(k)] for k in range(rows)]}
            )

        def fold_calls(response):
            service._churn = ChurnFold(2)
            profile = cProfile.Profile()
            profile.enable()
            service._fold_reply(0, response, ())
            profile.disable()
            return pstats.Stats(profile)

        n = 200
        short, long = reply(n), reply(2 * n)
        per_row = (fold_calls(long).total_calls - fold_calls(short).total_calls) / n
        assert per_row <= FOLD_CALLS_PER_DEPARTURE_BUDGET, (
            f"{per_row:.1f} calls per departure row folded, budget "
            f"{FOLD_CALLS_PER_DEPARTURE_BUDGET}"
        )
        assert _calls(fold_calls(long), FragmentationSample.__new__) == 0

        folded = []

        class Spy(ChurnFold):
            __slots__ = ()

            def fold(self, records, shard=0):
                folded.extend(records)
                super().fold(records, shard)

        service._churn = Spy(2)
        service._fold_reply(0, long, ())
        assert len(folded) == 2 * n
        assert all(map(operator.is_, folded, long["records"]))
        assert service._churn.stats.departures == 0  # nothing was placed
        assert len(service._churn.timelines[0]) == 2 * n
