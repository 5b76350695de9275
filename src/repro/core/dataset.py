"""Synthetic explanation dataset D* (sampling + forest labelling).

Instances are drawn uniformly at random from the product of the per-feature
sampling domains and labelled by querying the forest — the only "oracle"
available in GEF's data-free setting.  Every feature the forest uses is
sampled (so the forest is exercised over its whole decision space); the
GAM later models only the selected subset F', treating the remainder as
marginalized noise.

D* is drawn *by code*: one ``rng.choice(len(domain), n)`` per feature
picks indices into that feature's domain, and ``X[:, f] =
domain[codes]``.  That is the RNG stream of ``rng.choice(domain, n)``, so
D* itself (pinned by the fidelity tests) is unchanged.  The codes, in
the smallest unsigned dtype that holds them, travel with D*: a feature's
forest threshold positions and GAM basis rows are computed once per
domain value and gathered by code (see :meth:`ExplanationDataset.coding`).

Labelling streams through the forest's ``predict_raw`` (the bitvector
engine, or the per-tree loop for forests it declines) in bounded row
chunks, so D* never holds more than one chunk of engine working buffers
at a time; rows are independent, so the chunked labels are bitwise
identical to one whole-matrix call.
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
    """D* with its train/test split (test measures surrogate fidelity).

    ``codes_train`` and ``codes_test`` map each sampled feature to the
    codes of its split's rows, with ``X[:, f] == domains[f][codes[f]]``;
    they are ``None`` for a dataset restored from an archive.
    """

    X_train: np.ndarray
    y_train: np.ndarray
    X_test: np.ndarray
    y_test: np.ndarray
    domains: dict[int, np.ndarray]
    codes_train: dict[int, np.ndarray] | None = None
    codes_test: dict[int, np.ndarray] | None = None

    @property
    def n_samples(self) -> int:
        """Total number of synthetic instances."""
        return len(self.X_train) + len(self.X_test)

    def coding(self, split: str):
        """The ``(domains, codes)`` coding of the ``"train"`` or ``"test"``
        rows, as :meth:`GAM._design <repro.gam.model.GAM._design>` and
        the forest's ``predict_raw`` take it."""
        codes = self.codes_train if split == "train" else self.codes_test
        return None if codes is None else (self.domains, codes)


def _sample_codes(
    domains: dict[int, np.ndarray],
    n_samples: int,
    n_features: int,
    rng: np.random.Generator,
) -> dict[int, np.ndarray]:
    """``n_samples`` uniform indices into each feature's domain."""
    if n_samples < 1:
        raise SamplingError("n_samples must be >= 1")
    codes = {}
    for feature, domain in domains.items():
        if not 0 <= feature < n_features:
            raise SamplingError(f"domain feature {feature} out of range")
        drawn = rng.choice(len(domain), size=n_samples, replace=True)
        codes[feature] = drawn.astype(np.min_scalar_type(max(len(domain) - 1, 0)))
    return codes


def _decode(domains, codes, n_samples: int, n_features: int) -> np.ndarray:
    """The instances coded by ``codes``; features without a domain are 0."""
    X = np.zeros((n_samples, n_features))
    for feature, feature_codes in codes.items():
        X[:, feature] = np.asarray(domains[feature], dtype=np.float64)[feature_codes]
    return X


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
    codes = _sample_codes(domains, n_samples, n_features, rng)
    return _decode(domains, codes, n_samples, n_features)


def _label_with_forest(forest, X: np.ndarray, coding, label: str) -> np.ndarray:
    is_classifier = hasattr(forest, "predict_proba")
    if label == "auto":
        label = "probability" if is_classifier else "raw"
    if label == "probability" and not is_classifier:
        raise SamplingError("'probability' labels require a classifier forest")
    query = forest.predict_proba if label == "probability" else forest.predict_raw
    from ..forest.engines import FittedForest  # core loads before forest

    # Only a fitted forest of this package takes the coding; any other
    # forest object is queried on the values alone.
    coded = isinstance(forest, FittedForest)
    domains, codes = coding
    n = X.shape[0]
    y = np.empty(n)
    with obs_span("sample.label", rows=int(n), label=label):
        for lo in range(0, n, _LABEL_CHUNK_ROWS):
            hi = min(lo + _LABEL_CHUNK_ROWS, n)
            kwargs = {}
            if coded:
                kwargs["coding"] = (domains, {f: c[lo:hi] for f, c in codes.items()})
            y[lo:hi] = np.asarray(query(X[lo:hi], **kwargs), dtype=np.float64)
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
    n_features = int(forest.n_features_)
    with obs_span("sample.generate", rows=int(n_samples), features=len(domains)):
        codes = _sample_codes(domains, n_samples, n_features, rng)
        X = _decode(domains, codes, n_samples, n_features)
    y = _label_with_forest(forest, X, (domains, codes), label)
    n_test = max(1, int(round(test_fraction * n_samples)))
    if n_test >= n_samples:
        raise SamplingError("test_fraction leaves no training data")
    return ExplanationDataset(
        X_train=X[n_test:],
        y_train=y[n_test:],
        X_test=X[:n_test],
        y_test=y[:n_test],
        domains=domains,
        codes_train={f: c[n_test:] for f, c in codes.items()},
        codes_test={f: c[:n_test] for f, c in codes.items()},
    )
