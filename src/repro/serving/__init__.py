"""Online model lifecycle: trace-fed retraining and versioned serving.

The paper trains its model once from an offline corpus, but a running
fleet continuously produces exactly the data the model needs — two probe
measurements and a realized outcome per placement.  This package closes
that loop:

* :mod:`repro.serving.traces` — bounded, shape-partitioned collection of
  :class:`PlacementObservation` records (prediction vs realized outcome);
* :mod:`repro.serving.drift` — rolling-MAPE drift detection over the live
  error stream;
* :mod:`repro.serving.retrain` — warm-start corpus growth plus
  grow-and-prune forest refits that turn a trace window into a candidate
  model;
* :mod:`repro.serving.server` — the versioned :class:`ModelServer`
  (a drop-in :class:`~repro.scheduler.registry.ModelRegistry`): shadow
  candidates, paired holdout gates, atomic promotion with exact memo
  invalidation;
* :mod:`repro.serving.online` — :class:`OnlineLearner`, the loop driver
  the lifecycle scheduler calls per graded placement.

With no learner attached (or no candidate ever promoted) every decision
the fleet makes is bit-for-bit what the frozen pipeline decides — the
equivalence tests assert it.
"""

from repro._lazy import lazy_exports

#: Public name -> the module that defines it, imported on first read.
_EXPORTS = {
    "DriftConfig": "repro.serving.drift",
    "DriftEvent": "repro.serving.drift",
    "DriftMonitor": "repro.serving.drift",
    "ModelServer": "repro.serving.server",
    "ModelVersion": "repro.serving.server",
    "OnlineLearner": "repro.serving.online",
    "OnlineLearningConfig": "repro.serving.online",
    "OnlineStats": "repro.serving.online",
    "PlacementObservation": "repro.serving.traces",
    "PromotionRecord": "repro.serving.server",
    "RetrainConfig": "repro.serving.retrain",
    "Retrainer": "repro.serving.retrain",
    "TraceStore": "repro.serving.traces",
    "VersionStatus": "repro.serving.server",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
