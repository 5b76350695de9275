"""Observability test fixtures: never leak an enabled tracer/registry."""

from __future__ import annotations

import pytest

from repro.obs import disable_metrics, disable_tracing


@pytest.fixture(autouse=True)
def _obs_clean_slate():
    """Tracing and metrics are global knobs; reset around each test."""
    disable_tracing()
    disable_metrics()
    yield
    disable_tracing()
    disable_metrics()
