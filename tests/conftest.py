"""Fixtures shared by the whole suite."""

from __future__ import annotations

import pytest

from repro.core.memo import DEFAULT_ENUMERATION_CACHE
from repro.scheduler.artifacts import DEFAULT_ARTIFACT_STORE


@pytest.fixture
def empty_artifact_store():
    """The process-wide artifact store, emptied first — and the
    process-wide enumeration cache with it.

    Every ``ModelRegistry`` in the test process is a view of the two, so a
    test that counts enumerations or fits must not inherit what an earlier
    test computed.  Everything else leaves them warm — that is what keeps
    hundreds of ``ModelRegistry(n_estimators=6, ...)`` cheap.
    """
    DEFAULT_ENUMERATION_CACHE.clear()
    DEFAULT_ARTIFACT_STORE.clear()
    return DEFAULT_ARTIFACT_STORE
