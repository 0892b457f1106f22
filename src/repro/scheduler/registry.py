"""Per-shape artifacts the fleet scheduler needs: placements, models,
simulators.

Everything the paper trains or enumerates is keyed by ``(machine shape,
vCPU count)``, and a fleet sees only a handful of distinct keys across
thousands of requests.  What is a pure function of the key and the
registry's parameters is computed once per process and *shared*: the
registry holds per-registry views filled from the process-wide
:data:`~repro.core.memo.DEFAULT_ENUMERATION_CACHE` and
:data:`~repro.scheduler.artifacts.DEFAULT_ARTIFACT_STORE`, so a second
registry with equal parameters (another shard, a respawned worker) is
served the same objects without enumerating or fitting anything:

* **important placements** — one
  :class:`~repro.core.enumeration.ImportantPlacementSet` per key (the
  unmemoized pipeline, re-enumerating on every call, is the test oracle
  ``tests/scheduler/oracle_linear.py``);
* **prediction models** — one fitted :class:`~repro.core.model.PlacementModel`
  per key, and the :class:`~repro.core.training.TrainingSet` it was fitted
  on.  The canonical input pair from :mod:`repro.experiments` is used
  when the key matches the paper's evaluation; other keys fall back to a
  fixed (first, last) pair rather than paying the minutes-long automatic
  search per shape.

The views are only ever *rebound* (online learning promotes a fresh model
into one registry's view; its siblings and the store keep the original).
What depends on a registry's own history stays private to it:

* **simulators** — one :class:`~repro.perfsim.simulator.PerformanceSimulator`
  per shape, standing in for the fleet's measurement plane;
* **noise-free IPC evaluations** — the grader's and the prober's
  inputs.  The baseline (denominator) IPC depends only on ``(shape,
  vcpus, workload profile)`` and the achieved (numerator) IPC only on
  ``(shape, realized placement, profile)``, both deterministic, so
  repeated shapes/profiles never re-simulate
  (:meth:`ModelRegistry.baseline_ipc` / :meth:`ModelRegistry.solo_ipc`;
  layout under :class:`ModelRegistry`).
"""

from __future__ import annotations

from operator import mul
from typing import Dict, List, NamedTuple, Sequence, Tuple

from repro.core.enumeration import ImportantPlacementSet
from repro.core.memo import DEFAULT_ENUMERATION_CACHE, CacheInfo
from repro.core.model import PlacementModel
from repro.core.placements import Placement
from repro.core.training import TrainingSet
from repro.experiments import CANONICAL_PAIRS, paper_vcpus
from repro.perfsim.simulator import PerformanceSimulator
from repro.perfsim.workload import WorkloadProfile
from repro.scheduler.artifacts import DEFAULT_ARTIFACT_STORE
from repro.scheduler.fleet import minimal_shape
from repro.topology.machine import MachineTopology


class ProbeRow(NamedTuple):
    """What probing one placement of one shape keys, resolved:
    :meth:`ModelRegistry.probe_row` looks the three up once, and a caller
    that probes the same placement again and again (a policy lane) hands
    the result back to :meth:`ModelRegistry.probe_ipc_batch`.

    All three are fixed for the registry's lifetime — memo rows are never
    dropped, a shape keeps its simulator, a simulator keeps its tables —
    so a held row cannot go stale.
    """

    #: The placement's ``profile -> noise-free IPC`` memo row.
    ipcs: Dict[WorkloadProfile, float]
    simulator: PerformanceSimulator
    #: The simulator's ``profile name -> noise-seed prefix`` table of the
    #: placement.
    prefixes: Dict[str, int]


class ModelRegistry:
    """Lazily built, memoized per-(shape, vcpus) scheduler artifacts.

    Memo layout.  ``_placements`` / ``_models`` / ``_training_sets`` are
    ``(fingerprint, vcpus)``-keyed views of the process-wide caches.
    Noise-free IPCs live in **rows** — ``{profile: ipc}`` dicts under an
    outer key of things that hash themselves once (a fingerprint, a
    placement) or are small integers, so a lookup costs one short tuple
    and one cached profile hash, never a tuple wrapped around the
    profile.  ``_solo_ipc[(fingerprint, placement)]`` is the row of one
    placement: the hot caller — :meth:`probe_ipc_batch`, twice per
    ``(shape, vcpus)`` group of every batch — asks about many profiles in
    *one* placement, and a caller that probes the same placement again
    and again resolves the row once (:meth:`probe_row`) and hands it
    back.  :meth:`solo_ipc` reads the same rows one profile at a time;
    hits and misses are counted per profile either way and
    :meth:`ipc_cache_info` sums the rows, so the accounting does not
    show the layout.  ``_baseline_ipc[(fingerprint, vcpus, model-version
    token)]`` is the row of one key's baseline placement under one model
    version: the one memo a promotion must purge, a row at a time.
    Solo rows are pure functions of their keys and are never invalidated.

    Parameters
    ----------
    n_estimators:
        Forest size for fleet models.  Smaller than the paper's 100: the
        fleet scheduler calls the model thousands of times and Section 6's
        accuracy is not the experiment here.
    n_synthetic:
        Synthetic workloads added to the 18 paper applications in each
        training corpus.
    seed:
        Seeds the training corpus, the simulators, and the forests.
    """

    def __init__(
        self,
        *,
        n_estimators: int = 40,
        n_synthetic: int = 32,
        seed: int = 0,
    ) -> None:
        self.n_estimators = n_estimators
        self.n_synthetic = n_synthetic
        self.seed = seed
        #: (fingerprint, vcpus) -> this registry's view of the process-wide
        #: enumeration cache's placement sets and the artifact store's
        #: models and training sets.  Entries are rebound, never written
        #: through: the objects are shared.
        self._placements: Dict[Tuple, ImportantPlacementSet] = {}
        self._models: Dict[Tuple, PlacementModel] = {}
        #: Retained so online retraining can warm-start (append rows to a
        #: fresh copy) instead of re-simulating the whole corpus.
        self._training_sets: Dict[Tuple, TrainingSet] = {}
        #: Memoized placement lookups that ran the pipeline / did not.
        self._enumeration_misses = 0
        self._enumeration_hits = 0
        self._simulators: Dict[Tuple, PerformanceSimulator] = {}
        #: (fingerprint, vcpus, model-version token) -> {profile: baseline
        #: (denominator) IPC}.
        self._baseline_ipc: Dict[Tuple, Dict[WorkloadProfile, float]] = {}
        #: (fingerprint, placement) -> {profile: noise-free solo IPC}.
        #: Two levels because a probe batch asks about many profiles in
        #: one placement: the outer key is hashed once per call, the
        #: inner one once per row.
        self._solo_ipc: Dict[Tuple, Dict[WorkloadProfile, float]] = {}
        self._ipc_hits = 0
        self._ipc_misses = 0

    # ------------------------------------------------------------------

    def placements(
        self, machine: MachineTopology, vcpus: int
    ) -> ImportantPlacementSet:
        """Important placements for the key, memoized.

        A lookup counts as a miss only when it is the one that
        made the process-wide cache run the pipeline; a registry served
        from a cache another registry (or the service front end) already
        filled reports hits alone.
        """
        key = (machine.fingerprint(), int(vcpus))
        placements = self._placements.get(key)
        if placements is None:
            if (machine, vcpus) in DEFAULT_ENUMERATION_CACHE:
                self._enumeration_hits += 1
            else:
                self._enumeration_misses += 1
            placements = DEFAULT_ENUMERATION_CACHE.get(machine, vcpus)
            self._placements[key] = placements
        else:
            self._enumeration_hits += 1
        return placements

    def simulator(self, machine: MachineTopology) -> PerformanceSimulator:
        key = machine.fingerprint()
        simulator = self._simulators.get(key)
        if simulator is None:
            simulator = PerformanceSimulator(machine, seed=self.seed)
            self._simulators[key] = simulator
        return simulator

    def input_pair(
        self, machine: MachineTopology, vcpus: int
    ) -> Tuple[int, int]:
        """The model input pair for a key: the canonical searched pair when
        this is a paper configuration, else (first, last) — maximally far
        apart in the enumeration order, a serviceable stand-in for the
        cross-validated search."""
        if vcpus == paper_vcpus(machine) and machine.name in CANONICAL_PAIRS:
            return CANONICAL_PAIRS[machine.name]
        n = len(self.placements(machine, vcpus))
        if n < 2:
            raise ValueError(
                f"{machine.name} has only {n} important placement(s) for "
                f"{vcpus} vCPUs; the model needs two"
            )
        return (0, n - 1)

    def baseline_placement(
        self, machine: MachineTopology, vcpus: int
    ) -> Placement:
        """The placement performance goals are measured against: the
        model's baseline (first input-pair element).

        Some realizable container sizes have *no* important placement —
        the paper's Algorithm 2 only keeps blocks that tile the whole
        machine (e.g. 10 vCPUs on the 8-node AMD machine needs a 5-node
        block, which no whole-machine packing contains).  The heuristic
        policies still place such containers, so grading falls back to the
        minimal balanced shape on the machine's first nodes.
        """
        try:
            return self.placements(machine, vcpus)[
                self.input_pair(machine, vcpus)[0]
            ]
        except ValueError:
            n_nodes, l2_share = minimal_shape(machine, vcpus)
            return Placement(
                machine, range(n_nodes), vcpus, l2_share=l2_share
            )

    def model(self, machine: MachineTopology, vcpus: int) -> PlacementModel:
        """A fitted model for the key, trained once per process and reused.

        Fitting is memoized even by the unmemoized oracle registry in
        ``tests/scheduler/oracle_linear.py``: refitting per request would
        swamp the enumeration/prediction costs it is meant to isolate.
        """
        key = (machine.fingerprint(), int(vcpus))
        model = self._models.get(key)
        if model is None:
            artifacts = DEFAULT_ARTIFACT_STORE.get(
                machine,
                vcpus,
                placements=self.placements(machine, vcpus),
                input_pair=self.input_pair(machine, vcpus),
                seed=self.seed,
                n_estimators=self.n_estimators,
                n_synthetic=self.n_synthetic,
            )
            model = self._models[key] = artifacts.model
            self._training_sets[key] = artifacts.training_set
        return model

    def training_set(
        self, machine: MachineTopology, vcpus: int
    ) -> TrainingSet:
        """The corpus the key's model was fitted on (fitting it first if
        needed) — the warm-start base for online retraining."""
        key = (machine.fingerprint(), int(vcpus))
        if key not in self._training_sets:
            self.model(machine, vcpus)
        return self._training_sets[key]

    def model_version_token(
        self, machine: MachineTopology, vcpus: int
    ) -> int:
        """Cache-key component tying model-derived memo entries to the
        model version that produced them.

        The plain registry serves exactly one (frozen) model per key, so
        the token is constant; :class:`~repro.serving.server.ModelServer`
        overrides it with the key's active version id, which is what makes
        promotion invalidate exactly the stale ``baseline_ipc`` entries —
        same floats, different cache identity.
        """
        return 0

    def _current_version_token(self, fingerprint: Tuple, vcpus: int) -> int:
        """Fingerprint-keyed twin of :meth:`model_version_token` for the
        consistency hook (memo keys store fingerprints, not machines)."""
        return 0

    def assert_version_consistency(self) -> None:
        """Debug hook: every ``baseline_ipc`` memo row is keyed with
        its key's *current* model version token.

        Promotion purges the retiring version's rows in the same call
        that flips the active version, so a surviving row with a stale
        token means a promotion path skipped the purge.
        ``ModelServer.promote`` runs it after every purge, and
        ``tests/test_memo_surfaces.py`` after every step of its promotion
        property.
        """
        for fingerprint, vcpus, token in self._baseline_ipc:
            current = self._current_version_token(fingerprint, vcpus)
            if token != current:
                raise AssertionError(
                    f"baseline_ipc memo keyed at version token {token} "
                    f"but the key serves token {current}; a promotion "
                    "skipped its cache purge"
                )

    # ------------------------------------------------------------------
    # Noise-free IPC memoization (the grader's hot path)
    # ------------------------------------------------------------------

    def solo_ipc(
        self,
        machine: MachineTopology,
        profile: WorkloadProfile,
        placement: Placement,
    ) -> float:
        """Noise-free measured IPC of a workload alone in a placement.

        Deterministic in its inputs (profiles and placements are frozen
        and hashable), so it is memoized; a cache hit returns the exact
        float the simulation produced, keeping grading bit-for-bit stable.
        A lookup that raises (a placement of another machine) counts
        nothing and files no row: both happen once the value is measured.
        """
        row = self._solo_ipc.get((machine.fingerprint(), placement))
        value = None if row is None else row.get(profile)
        if value is not None:
            self._ipc_hits += 1
            return value
        value = self.simulator(machine).measured_ipc(profile, placement, noise=False)
        self._ipc_misses += 1
        self._ipc_row(machine, placement)[profile] = value
        return value

    def _ipc_row(
        self, machine: MachineTopology, placement: Placement
    ) -> Dict[WorkloadProfile, float]:
        """The memo's ``profile -> IPC`` row of one placement."""
        key = (machine.fingerprint(), placement)
        row = self._solo_ipc.get(key)
        if row is None:
            row = self._solo_ipc[key] = {}
        return row

    def probe_row(
        self, machine: MachineTopology, placement: Placement
    ) -> ProbeRow:
        """Everything :meth:`probe_ipc_batch` looks up by ``(machine,
        placement)``, looked up; a placement of another machine is a
        ``ValueError`` before any row is filed."""
        simulator = self.simulator(machine)
        simulator._check_placement(placement)
        return ProbeRow(
            self._ipc_row(machine, placement),
            simulator,
            simulator.noise_prefixes(placement),
        )

    def probe_ipc_batch(
        self,
        machine: MachineTopology,
        profiles: Sequence[WorkloadProfile],
        placement: Placement,
        *,
        multipliers: Sequence[float],
        row: ProbeRow | None = None,
    ) -> List[float]:
        """Probe observations for a whole request group in one placement.

        The assembly half of the goal-aware hot path: the deterministic
        parts are gathered from the placement's memo row, one lookup per
        profile (misses — distinct profiles the row has never seen — are
        simulated one by one by the row's simulator on the scalar
        :meth:`~repro.perfsim.simulator.PerformanceSimulator.measured_ipc`
        path: a first encounter is a handful of cells, fewer than pay for
        a grid kernel's fixed numpy passes), then each is multiplied by
        its probe's noise multiplier, drawn by the caller — a
        :class:`~repro.perfsim.simulator.NoiseBatch` spanning every probe
        of its batch.  When ``multipliers`` are what that batch draws for
        a probe length and ``repetitions``, entry ``k`` is bit-for-bit the
        simulator's noisy ``measured_ipc(profiles[k], placement,
        duration_s=..., repetition=repetitions[k])``; the per-row
        reference, with the same hit/miss accounting, is ``probe_ipc`` in
        ``tests/scheduler/oracle_linear.py``.  ``row`` is
        ``probe_row(machine, placement)`` from a caller that already holds
        it.
        """
        if len(profiles) != len(multipliers):
            raise ValueError("profiles and multipliers must align")
        held = row is not None
        if held:
            ipcs, simulator, _ = row
        else:  # looked up, not filed: see below
            ipcs = self._solo_ipc.get((machine.fingerprint(), placement), {})
            simulator = self.simulator(machine)
        fresh: Sequence[WorkloadProfile] = ()
        try:
            found = list(map(ipcs.__getitem__, profiles))
        except KeyError:
            # Each distinct never-seen profile is simulated once; a
            # repeat in the same group hits the just-filled row.  As in
            # solo_ipc, a lookup that raises (another machine's
            # placement) files and counts nothing: the row is filed and
            # filled once every miss is measured.
            fresh = list(dict.fromkeys(p for p in profiles if p not in ipcs))
            measured = {}
            for profile in fresh:
                measured[profile] = simulator.measured_ipc(
                    profile, placement, noise=False
                )
            if not held:
                ipcs = self._ipc_row(machine, placement)
            ipcs.update(measured)
            found = list(map(ipcs.__getitem__, profiles))
        self._ipc_misses += len(fresh)
        self._ipc_hits += len(found) - len(fresh)
        # Python-float products: the same IEEE multiply measured_ipc's
        # noisy arm does.
        return list(map(mul, found, multipliers))

    def baseline_ipc(
        self, machine: MachineTopology, vcpus: int, profile: WorkloadProfile
    ) -> float:
        """The grading denominator: the profile's noise-free IPC in the
        shape's baseline placement, cached per ``(fingerprint, vcpus)``
        and profile so repeated shapes/profiles never re-simulate it."""
        # Version-keyed: the denominator depends on the *model's* baseline
        # placement (its input pair's first element), so a promoted model
        # version with a different pair must not be served another
        # version's rows.  solo_ipc stays unversioned — it is keyed by
        # the concrete placement, which no model version can change.
        key = (
            machine.fingerprint(),
            int(vcpus),
            self.model_version_token(machine, vcpus),
        )
        row = self._baseline_ipc.get(key)
        if row is None:
            row = self._baseline_ipc[key] = {}
        value = row.get(profile)
        if value is None:
            value = row[profile] = self.solo_ipc(
                machine, profile, self.baseline_placement(machine, vcpus)
            )
        return value

    def ipc_cache_info(self) -> CacheInfo:
        """Hit/miss accounting of the noise-free IPC memo."""
        entries = sum(len(row) for row in self._solo_ipc.values())
        return CacheInfo(self._ipc_hits, self._ipc_misses, entries)

    # ------------------------------------------------------------------

    def enumeration_info(self) -> CacheInfo:
        """Accounting of this registry's memoized placement lookups: a
        miss ran the Algorithm 1-3 pipeline, a hit was served from the
        registry's view or from the process-wide cache."""
        return CacheInfo(
            self._enumeration_hits,
            self._enumeration_misses,
            len(self._placements),
        )

    def enumeration_runs(self) -> int:
        """Times this registry's lookups made the Algorithm 1-3 pipeline
        execute.  Summed over every registry of a process (the service
        adds its front end's) this is the process-wide count; a registry
        served entirely from an already warm cache reports 0."""
        return self._enumeration_misses
