"""Synthetic explanation dataset D* (sampling + forest labelling).

Instances are drawn uniformly at random from the product of the per-feature
sampling domains and labelled by querying the forest — the only "oracle"
available in GEF's data-free setting.  Every feature the forest uses is
sampled (so the forest is exercised over its whole decision space); the
GAM later models only the selected subset F', treating the remainder as
marginalized noise.

Labelling streams through the forest's ``predict_raw`` (the bitvector
engine, or the per-tree loop for forests it declines) in bounded row
chunks, so D* never holds more than one chunk of engine working buffers
at a time; rows are independent, so the chunked labels are bitwise
identical to one whole-matrix call.  Sampling itself stays whole-matrix
— one ``rng.choice`` per feature — because the RNG stream (and therefore
D* itself) is pinned by the fidelity tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from .._rng import as_generator
from ..obs.metrics import inc as metric_inc
from ..obs.trace import span as obs_span
from .errors import SamplingError

__all__ = ["ExplanationDataset", "sample_instances", "generate_dataset"]

#: Rows labelled per engine call while building D*.
_LABEL_CHUNK_ROWS = 65_536


@dataclass
class ExplanationDataset:
    """D* with its train/test split (test measures surrogate fidelity)."""

    X_train: np.ndarray
    y_train: np.ndarray
    X_test: np.ndarray
    y_test: np.ndarray
    domains: dict[int, np.ndarray]

    @property
    def n_samples(self) -> int:
        """Total number of synthetic instances."""
        return len(self.X_train) + len(self.X_test)


def sample_instances(
    domains: dict[int, np.ndarray],
    n_samples: int,
    n_features: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw ``n_samples`` rows uniformly from the domain product space.

    Features without a domain (unused by the forest) are set to zero; the
    forest's output is invariant to them by construction.
    """
    if n_samples < 1:
        raise SamplingError("n_samples must be >= 1")
    X = np.zeros((n_samples, n_features))
    for feature, domain in domains.items():
        if not 0 <= feature < n_features:
            raise SamplingError(f"domain feature {feature} out of range")
        X[:, feature] = rng.choice(domain, size=n_samples, replace=True)
    return X


def _label_with_forest(forest, X: np.ndarray, label: str) -> np.ndarray:
    is_classifier = hasattr(forest, "predict_proba")
    if label == "auto":
        label = "probability" if is_classifier else "raw"
    if label == "probability" and not is_classifier:
        raise SamplingError("'probability' labels require a classifier forest")
    query = forest.predict_proba if label == "probability" else forest.predict_raw
    n = X.shape[0]
    with obs_span("sample.label", rows=int(n), label=label):
        if n <= _LABEL_CHUNK_ROWS:
            metric_inc("sample.label_chunks")
            return np.asarray(query(X), dtype=np.float64)
        y = np.empty(n)
        for lo in range(0, n, _LABEL_CHUNK_ROWS):
            hi = min(lo + _LABEL_CHUNK_ROWS, n)
            y[lo:hi] = np.asarray(query(X[lo:hi]), dtype=np.float64)
            metric_inc("sample.label_chunks")
    return y


def generate_dataset(
    forest,
    domains: dict[int, np.ndarray],
    n_samples: int,
    test_fraction: float = 0.2,
    label: str = "auto",
    random_state: int | np.random.Generator | None = 0,
) -> ExplanationDataset:
    """Build D*: sample instances, label with the forest, split train/test."""
    if not 0.0 < test_fraction < 1.0:
        raise SamplingError("test_fraction must be in (0, 1)")
    rng = as_generator(random_state)
    with obs_span("sample.generate", rows=int(n_samples), features=len(domains)):
        X = sample_instances(domains, n_samples, int(forest.n_features_), rng)
    y = _label_with_forest(forest, X, label)
    n_test = max(1, int(round(test_fraction * n_samples)))
    if n_test >= n_samples:
        raise SamplingError("test_fraction leaves no training data")
    return ExplanationDataset(
        X_train=X[n_test:],
        y_train=y[n_test:],
        X_test=X[:n_test],
        y_test=y[:n_test],
        domains=domains,
    )
