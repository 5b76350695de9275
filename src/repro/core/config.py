"""Configuration of the GEF explanation pipeline.

The paper leaves three choices to the analyst — the number of univariate
components |F'|, the number of bi-variate components |F''| and the
sampling strategy with its budget K — and fixes the rest (third-order
splines with a fixed basis size, factor terms for categoricals detected by
the L-threshold heuristic, shared lambda chosen by GCV).  All of that is
collected here.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .numerics import get_numerics_mode, set_numerics_mode

__all__ = [
    "GEFConfig",
    "INTERACTION_STRATEGY_NAMES",
    "SAMPLING_STRATEGY_NAMES",
    "explain_config_hash",
    "get_numerics_mode",
    "get_prediction_engine",
    "set_numerics_mode",
    "set_prediction_engine",
]


def set_prediction_engine(name: str) -> None:
    """Select the forest evaluation engine used by every ``predict_raw``.

    ``"bitvector"`` (the default) evaluates trees traversal-free from
    QuickScorer-style threshold-sorted bitmasks, falling back to the
    per-tree loop for forests it cannot encode; ``"loop"`` always runs
    the per-tree loop.  Outputs are bitwise identical — the knob exists
    for benchmarking and as the equivalence reference.  Delegates to
    :mod:`repro.forest.engines`, imported lazily to keep ``repro.core``
    import-light.
    """
    from .. import forest

    forest.set_prediction_engine(name)


def get_prediction_engine() -> str:
    """The currently selected forest evaluation engine name."""
    from .. import forest

    return forest.get_prediction_engine()

def explain_config_hash(config: "GEFConfig") -> str:
    """A 16-hex-digit content hash of everything a GEF run depends on.

    Two runs with equal hashes (on the same forest) produce bitwise
    identical explanations, so the hash — together with the forest
    fingerprint — is the cache/ledger key of a fitted surrogate.  The
    hash covers every :class:`GEFConfig` field, canonically serialized
    (sorted keys, ``lam_grid`` as a list).  A caller-owned
    ``np.random.Generator`` as ``random_state`` is *not* reproducible
    from the config alone; it hashes to an explicit non-reproducible
    marker so such configs never collide with seeded ones.
    """
    data = dataclasses.asdict(config)
    lam_grid = data.get("lam_grid")
    if lam_grid is not None:
        data["lam_grid"] = np.asarray(lam_grid).tolist()
    if isinstance(data.get("random_state"), np.random.Generator):
        data["random_state"] = "<generator:non-reproducible>"
    payload = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


SAMPLING_STRATEGY_NAMES = (
    "all-thresholds",
    "k-quantile",
    "equi-width",
    "k-means",
    "equi-size",
)

INTERACTION_STRATEGY_NAMES = ("pair-gain", "count-path", "gain-path", "h-stat")


@dataclass
class GEFConfig:
    """All knobs of a GEF run.

    Attributes
    ----------
    n_univariate:
        |F'| — number of univariate components; ``None`` keeps every
        feature the forest uses.
    n_interactions:
        |F''| — number of bi-variate (tensor) components.
    sampling_strategy:
        One of :data:`SAMPLING_STRATEGY_NAMES` (section 3.3).
    k_points:
        K — sampling-domain size per feature (ignored by All-Thresholds,
        which uses every midpoint).
    n_samples:
        N — number of instances of the synthetic dataset D*.
    interaction_strategy:
        One of :data:`INTERACTION_STRATEGY_NAMES` (section 3.4).
    categorical_threshold:
        L — features with fewer distinct forest thresholds than this are
        modeled with factor terms (the paper uses L = 10).
    epsilon_fraction:
        Domain extension beyond the extreme thresholds, as a fraction of
        the threshold range (the paper uses 0.05).
    n_splines / tensor_splines:
        P-spline basis sizes for univariate and tensor terms.
    component_type:
        ``"spline"`` (the paper's GAM) or ``"linear"`` — one coefficient
        per continuous feature, turning the surrogate into the GLM the
        paper's section 3.1 discusses as the more interpretable but less
        flexible alternative.
    lam_grid:
        Shared-lambda candidates for GCV (``None`` uses the default grid).
    test_fraction:
        Share of D* held out to measure the surrogate's fidelity.
    hstat_sample:
        Sample size for the partial-dependence estimates of H-Stat.
    label:
        What the forest labels D* with: ``"auto"`` (raw score for
        regressors, probability for classifiers), ``"raw"`` or
        ``"probability"``.
    random_state:
        Seed (or an ``np.random.Generator`` to stream caller-owned
        randomness) for domain construction and D* sampling.
    strict:
        Fail fast: disable the degradation ladder, the reseeding retries
        and the interaction fallback — the first stage failure raises its
        typed :class:`~repro.core.errors.ReproError` immediately.
    validate_inputs:
        Run :func:`~repro.core.validate.validate_forest` (and domain
        sanity checks) before any pipeline work.  On by default; the cost
        is one vectorized O(nodes) pass.
    max_retries:
        Recoverable-failure retries per stage (reseeded resampling on a
        degenerate D*, lambda-grid escalation / ridge bump on a divergent
        fit) before the stage degrades or fails.
    retry_backoff:
        Base seconds of the exponential retry backoff
        (``backoff * 2**(attempt-1)``); 0 (the default) retries
        immediately, keeping test runs deterministic and fast.
    stage_timeout:
        Per-stage wall-clock budget in seconds — a scalar applying to
        every stage, a ``{stage_name: seconds}`` mapping, or ``None``
        (no budgets).  A stage exceeding its budget raises
        :class:`~repro.core.errors.StageTimeoutError`.
    """

    n_univariate: int | None = None
    n_interactions: int = 0
    sampling_strategy: str = "equi-size"
    k_points: int = 64
    n_samples: int = 100_000
    interaction_strategy: str = "gain-path"
    categorical_threshold: int = 10
    epsilon_fraction: float = 0.05
    n_splines: int = 20
    tensor_splines: int = 7
    component_type: str = "spline"
    lam_grid: np.ndarray | None = field(default=None, repr=False)
    test_fraction: float = 0.2
    hstat_sample: int = 100
    label: str = "auto"
    random_state: int | np.random.Generator | None = 0
    strict: bool = False
    validate_inputs: bool = True
    max_retries: int = 2
    retry_backoff: float = 0.0
    stage_timeout: float | dict[str, float] | None = None

    def __post_init__(self):
        if self.sampling_strategy not in SAMPLING_STRATEGY_NAMES:
            raise ValueError(
                f"unknown sampling strategy {self.sampling_strategy!r}; "
                f"choose from {SAMPLING_STRATEGY_NAMES}"
            )
        if self.interaction_strategy not in INTERACTION_STRATEGY_NAMES:
            raise ValueError(
                f"unknown interaction strategy {self.interaction_strategy!r}; "
                f"choose from {INTERACTION_STRATEGY_NAMES}"
            )
        if self.n_univariate is not None and self.n_univariate < 1:
            raise ValueError("n_univariate must be >= 1 (or None for all)")
        if self.n_interactions < 0:
            raise ValueError("n_interactions must be >= 0")
        if self.k_points < 2:
            raise ValueError("k_points must be >= 2")
        if self.n_samples < 10:
            raise ValueError("n_samples must be >= 10")
        if not 0.0 < self.test_fraction < 1.0:
            raise ValueError("test_fraction must be in (0, 1)")
        if not 0.0 <= self.epsilon_fraction <= 1.0:
            raise ValueError("epsilon_fraction must be in [0, 1]")
        if self.label not in ("auto", "raw", "probability"):
            raise ValueError("label must be 'auto', 'raw' or 'probability'")
        if self.component_type not in ("spline", "linear"):
            raise ValueError("component_type must be 'spline' or 'linear'")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.retry_backoff < 0:
            raise ValueError("retry_backoff must be >= 0")
        if self.stage_timeout is not None:
            budgets = (
                self.stage_timeout.values()
                if isinstance(self.stage_timeout, dict)
                else (self.stage_timeout,)
            )
            if any(b is not None and b <= 0 for b in budgets):
                raise ValueError("stage_timeout budgets must be positive")
