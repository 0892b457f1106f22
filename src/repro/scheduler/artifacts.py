"""Process-wide store of trained per-shape artifacts.

The paper's model is a property of ``(machine type, vCPU count)``: trained
once on a corpus run in the important placements, then applied to every
container on that machine type.  Everything it is built from is a pure
function of a handful of values, so the store keys on exactly those —
``(machine fingerprint, vcpus, input pair, seed, n_estimators,
n_synthetic)`` — and every :class:`~repro.scheduler.registry.ModelRegistry`
in the process (one per shard, plus the service front end's) is a *view*
filled from it.  Whichever registry asks first pays for the corpus
simulation and the fit; the rest are handed the same objects.  (The
important placements a key is trained in are shared the same way, one
level down: :data:`repro.core.memo.DEFAULT_ENUMERATION_CACHE`.)

Two consequences the sharded service relies on:

* worker processes started with ``fork`` inherit the parent's store, so a
  front end that resolves its keys before spawning hands every shard — and
  every respawn after a crash — its models for free.  Under ``spawn`` the
  child's store starts empty and the same code path trains; there is no
  transport- or platform-specific branch;
* entries are shared, so they are immutable: the training matrices and the
  compiled arena are sealed read-only on insertion, and a write through
  any registry raises instead of leaking into its siblings.  Online
  learning never needed to write — ``warm_refit`` and
  ``extend_training_set`` return fresh objects and ``ModelServer.promote``
  rebinds the promoting registry's own view.

The store is the only code that simulates a training corpus and the only
code that fits a fleet model, and it never enumerates: the caller hands it
the key's placement set.  It is LRU-bounded (:data:`ARTIFACT_STORE_MAX`
entries; an evicted key re-trains to an equal model) and exposes
:meth:`ArtifactStore.info` / :meth:`ArtifactStore.clear` like the other
process-wide caches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.core.enumeration import ImportantPlacementSet
from repro.core.memo import CacheInfo
from repro.core.model import PlacementModel
from repro.core.training import TrainingSet, build_training_set
from repro.experiments import training_corpus
from repro.perfsim.simulator import PerformanceSimulator
from repro.topology.machine import MachineTopology

#: Entries kept before the least recently used one is evicted.  A fleet
#: sees a handful of ``(shape, vcpus)`` keys; the bound only matters to a
#: long-lived process that keeps training under new seeds or forest sizes.
ARTIFACT_STORE_MAX = 64


@dataclass(frozen=True)
class TrainedArtifacts:
    """Everything trained for one key; shared by reference, never mutated."""

    #: The corpus run in the key's important placements (which it carries).
    training_set: TrainingSet
    #: Fitted, with its forest's arena already compiled.
    model: PlacementModel


class ArtifactStore:
    """Content-keyed, LRU-bounded memo of trained models."""

    def __init__(self, maxsize: int = ARTIFACT_STORE_MAX) -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.maxsize = maxsize
        self._entries: Dict[Tuple, TrainedArtifacts] = {}
        self._hits = 0
        self._misses = 0

    def get(
        self,
        machine: MachineTopology,
        vcpus: int,
        *,
        placements: ImportantPlacementSet,
        input_pair: Tuple[int, int],
        seed: int,
        n_estimators: int,
        n_synthetic: int,
    ) -> TrainedArtifacts:
        """The trained artifacts for a key, built on the first request.

        ``placements`` is the key's important placement set (a pure
        function of ``machine`` and ``vcpus``, so not part of the key);
        ``seed`` seeds the corpus, the simulated measurements and the
        forest.
        """
        pair = tuple(input_pair)
        key = (
            machine.fingerprint(),
            int(vcpus),
            pair,
            seed,
            n_estimators,
            n_synthetic,
        )
        entry = self._entries.pop(key, None)
        if entry is None:
            self._misses += 1
            training_set = build_training_set(
                machine,
                vcpus,
                training_corpus(seed=seed + 42, n_synthetic=n_synthetic),
                simulator=PerformanceSimulator(machine, seed=seed),
                placements=placements,
                baseline_index=pair[0],
            )
            model = PlacementModel(
                input_pair=pair,
                n_estimators=n_estimators,
                random_state=seed,
            ).fit(training_set)
            entry = _sealed(TrainedArtifacts(training_set, model))
            while len(self._entries) >= self.maxsize:
                del self._entries[next(iter(self._entries))]
        else:
            self._hits += 1
        self._entries[key] = entry  # (re)inserted last: most recently used
        return entry

    def info(self) -> CacheInfo:
        """A miss is one corpus simulation plus one ``PlacementModel.fit``."""
        return CacheInfo(self._hits, self._misses, len(self._entries))

    def clear(self) -> None:
        self._entries.clear()
        self._hits = 0
        self._misses = 0


def _sealed(entry: TrainedArtifacts) -> TrainedArtifacts:
    """Make the entry's training matrices and compiled arena — node
    arrays and bit tables, built here and never again — read-only."""
    training_set = entry.training_set
    for array in (
        training_set.ipc,
        training_set.vectors,
        training_set.hpe_features,
        *entry.model.forest.arena().arrays(),
    ):
        array.flags.writeable = False
    return entry


#: The process-wide store every :class:`~repro.scheduler.registry.
#: ModelRegistry` is a view of.
DEFAULT_ARTIFACT_STORE = ArtifactStore()
