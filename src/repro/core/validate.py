"""Forest and sampling-domain validation: GEF's input contract, enforced.

GEF is *data-free*: the trained forest structure is the only trusted
input, so before any sampling or fitting work is spent the pipeline
checks that the structure actually is a forest — child indices in range,
every node reachable from the root exactly once (no orphans, no cycles,
no diamond sharing), finite thresholds/gains on test nodes, finite leaf
values, and feature indices inside ``[0, n_features_)``.  Beyond the
fitted, ``n_features_`` and ``init_score_`` checks, the contract is the
forest's node table (:mod:`repro.core.node_table`): building it raises
for a forest it cannot walk, and its ``defect`` names the first
non-finite value.  A fitted forest keeps that one O(total nodes) pass for
selection, the path heuristics and packing to reuse.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ForestValidationError, SamplingError
from .node_table import forest_table

__all__ = ["ForestValidationReport", "validate_forest", "validate_domains"]


@dataclass
class ForestValidationReport:
    """Summary of a successful forest validation."""

    n_trees: int
    n_nodes: int
    n_leaves: int
    n_features: int

    def __str__(self) -> str:
        return (
            f"{self.n_trees} trees, {self.n_nodes} nodes "
            f"({self.n_leaves} leaves), {self.n_features} features: OK"
        )


def _invalid(message: str) -> ForestValidationError:
    return ForestValidationError(message, stage="validate")


def validate_forest(forest) -> ForestValidationReport:
    """Check the forest structure against the GEF input contract.

    Verifies that the forest is fitted, reports a positive
    ``n_features_``, and that every tree is a well-formed binary tree
    with in-range child/feature indices and finite thresholds, gains and
    leaf values.  Raises :class:`~repro.core.errors.ForestValidationError`
    (stage ``validate``, naming the first offending tree and node) on any
    violation; returns a :class:`ForestValidationReport` on success.
    """
    trees = getattr(forest, "trees_", None)
    if not trees:
        raise _invalid("forest is not fitted (empty trees_)")
    n_features = getattr(forest, "n_features_", None)
    if n_features is None:
        raise _invalid("forest does not report n_features_")
    n_features = int(n_features)
    if n_features < 1:
        raise _invalid(f"forest reports n_features_ = {n_features}; need >= 1")
    init = getattr(forest, "init_score_", 0.0)
    if init is not None and not np.isfinite(float(init)):
        raise _invalid("forest init_score_ is not finite")
    table = forest_table(forest)  # raises for a forest it cannot walk
    if table.defect is not None:
        raise _invalid(table.defect)
    return ForestValidationReport(
        n_trees=len(trees),
        n_nodes=table.feature.size,
        n_leaves=int(np.count_nonzero(~table.internal)),
        n_features=n_features,
    )


def validate_domains(domains: dict[int, np.ndarray], n_features: int) -> None:
    """Sanity-check sampling domains before D* generation.

    Every domain must belong to a feature in ``[0, n_features)`` and be a
    non-empty, finite, strictly increasing 1-D array.  Raises
    :class:`~repro.core.errors.SamplingError` on the first violation.
    """
    if not domains:
        raise SamplingError("no sampling domains to draw from", stage="domains")
    for feature, domain in domains.items():
        if not 0 <= int(feature) < n_features:
            raise SamplingError(
                f"domain feature {feature} outside [0, {n_features})",
                stage="domains",
            )
        arr = np.asarray(domain, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            problem = "must be a non-empty 1-D array"
        elif not np.all(np.isfinite(arr)):
            problem = "contains non-finite values"
        elif arr.size >= 2 and not np.all(np.diff(arr) > 0):
            problem = "is not strictly increasing"
        else:
            continue
        raise SamplingError(
            f"feature {feature}: sampling domain {problem}", stage="domains"
        )
