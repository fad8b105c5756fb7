"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.manu import ManuCluster
from repro.core.entity import reset_auto_id_counter


@pytest.fixture(autouse=True)
def _fresh_auto_ids():
    """Keep auto-generated primary keys deterministic per test."""
    reset_auto_id_counter()
    yield
    reset_auto_id_counter()


@pytest.fixture(autouse=True)
def _manu_check(monkeypatch):
    """Arm the log backbone's runtime checks for every broker a test
    builds (``LogBroker(manu_check=False)`` still builds one unarmed)."""
    monkeypatch.setenv("MANU_CHECK", "1")


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(42)


@pytest.fixture
def cluster() -> ManuCluster:
    return ManuCluster(num_query_nodes=2, num_index_nodes=1,
                       num_data_nodes=1, num_proxies=1, num_loggers=2)
