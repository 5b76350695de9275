"""The golden ledgers: committed surrogates that every fit kernel verifies.

``golden_k<N>/`` holds one model entry (a tiny regression forest) and one
surrogate entry (3 splines, 2,000 D* samples) written by fit kernel N.
The current kernel's ledger verifies bit for bit; every older one must
still verify within the pinned cross-kernel tolerance.  Bit
equality also assumes the numpy/BLAS build the fixture was written with.

Regenerate it (only together with a kernel change that needs it) with::

    PYTHONPATH=src python -m tests.ledger.test_golden
"""

from __future__ import annotations

import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.core import GEF, KERNEL_VERSION, GEFConfig
from repro.forest import GradientBoostingRegressor, forest_fingerprint
from repro.ledger import (
    LedgerStore,
    kernel_version_of,
    record_model,
    record_surrogate,
    render_verify,
    surrogate_key,
    verify_entry,
)

HERE = Path(__file__).resolve().parent
#: The current kernel's golden ledger.
GOLDEN = HERE / f"golden_k{KERNEL_VERSION}"

GOLDEN_CONFIG = dict(
    n_univariate=3, n_samples=2_000, k_points=16, n_splines=8, random_state=0
)


def write_golden(root: Path) -> None:
    """Train the tiny forest, explain it and ledger both under ``root``."""
    rng = np.random.default_rng(11)
    X = rng.uniform(-1.0, 1.0, size=(300, 3))
    y = 2.0 * X[:, 0] + np.sin(3.0 * X[:, 1]) + 0.5 * X[:, 2] ** 2
    forest = GradientBoostingRegressor(
        n_estimators=10, num_leaves=8, learning_rate=0.3, random_state=0
    ).fit(X, y)
    store = LedgerStore(root)
    record_model(store, forest)
    explanation = GEF(GEFConfig(**GOLDEN_CONFIG)).explain(forest)
    record_surrogate(store, explanation, forest_fingerprint(forest))


def _copy(tmp_path, kernel):
    """A writable copy of kernel ``kernel``'s golden ledger and its
    surrogate entry."""
    shutil.copytree(HERE / f"golden_k{kernel}", tmp_path / "ledger")
    store = LedgerStore(tmp_path / "ledger")
    (entry,) = store.entries(kind="surrogate")
    assert kernel_version_of(entry) == kernel
    return store, entry


@pytest.fixture()
def golden(tmp_path):
    """A writable copy of the current kernel's golden ledger."""
    return _copy(tmp_path, KERNEL_VERSION)


def test_golden_ledger_verifies(golden):
    store, entry = golden
    report = verify_entry(store, entry.entry_id)
    assert report["match"] is True, report["mismatches"]
    assert report["comparison"] == "bitwise"
    assert "bit for bit" in render_verify(report)


@pytest.mark.parametrize("kernel", range(1, KERNEL_VERSION))
def test_older_golden_ledger_verifies_within_tolerance(tmp_path, kernel):
    store, entry = _copy(tmp_path, kernel)
    report = verify_entry(store, entry.entry_id)
    assert report["kernel"] == {"recorded": kernel, "current": KERNEL_VERSION}
    assert report["comparison"] == "tolerance"
    assert report["match"] is True, report["mismatches"]
    text = render_verify(report)
    assert f"kernel {kernel} → {KERNEL_VERSION}" in text
    assert "MISMATCH" not in text and "bit for bit" not in text


def test_golden_entry_as_kernel_0_gets_the_tolerance_report(golden):
    store, entry = golden
    # The same archive as an entry from before kernels were versioned: no
    # kernel_version field, the two-part chain key.
    payload = {k: v for k, v in entry.payload.items() if k != "kernel_version"}
    legacy = store.append(
        "surrogate",
        surrogate_key(payload["fingerprint"], payload["config_hash"], 0),
        payload,
    )
    assert kernel_version_of(legacy) == 0
    report = verify_entry(store, legacy.entry_id)
    assert report["kernel"] == {"recorded": 0, "current": KERNEL_VERSION}
    assert report["comparison"] == "tolerance"
    assert report["match"] is True, report["mismatches"]
    assert report["deviation"]["contribution"] <= 1e-6
    text = render_verify(report)
    assert f"kernel 0 → {KERNEL_VERSION}" in text
    assert "MISMATCH" not in text and "bit for bit" not in text


if __name__ == "__main__":
    shutil.rmtree(GOLDEN, ignore_errors=True)
    write_golden(GOLDEN)
    print(f"golden ledger written to {GOLDEN}")
