"""The forest/domain validators: GEF's input contract, one fault at a time."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import (
    ForestValidationError,
    ForestValidationReport,
    ReproError,
    SamplingError,
    build_sampling_domains,
    feature_thresholds,
    validate_domains,
    validate_forest,
)
from repro.devtools import FOREST_FAULTS, corrupt_forest

_FAULT_MESSAGES = {
    "nan-threshold": "threshold",
    "inf-leaf": "leaf value",
    "dangling-child": "dangling child",
    "cyclic-child": "root is referenced",
    "orphan-node": "orphan",
    "feature-out-of-range": "feature index",
}


def test_clean_forest_passes(small_forest):
    report = validate_forest(small_forest)
    assert isinstance(report, ForestValidationReport)
    assert report.n_trees == len(small_forest.trees_)
    assert report.n_features == int(small_forest.n_features_)
    assert 0 < report.n_leaves < report.n_nodes
    assert "OK" in str(report)


@pytest.mark.parametrize("fault", FOREST_FAULTS)
def test_every_fault_class_is_caught(small_forest, fault):
    bad = corrupt_forest(small_forest, fault)
    with pytest.raises(ForestValidationError) as excinfo:
        validate_forest(bad)
    assert excinfo.value.stage == "validate"
    assert _FAULT_MESSAGES[fault] in str(excinfo.value)
    # tree index of the defect is named
    assert "tree 0" in str(excinfo.value)


@pytest.mark.parametrize("fault", FOREST_FAULTS)
def test_corruption_never_mutates_the_original(small_forest, fault):
    corrupt_forest(small_forest, fault)
    validate_forest(small_forest)  # still clean


def test_unknown_fault_rejected(small_forest):
    with pytest.raises(ValueError, match="unknown fault"):
        corrupt_forest(small_forest, "gamma-ray")


def test_validation_errors_are_valueerrors(small_forest):
    """Taxonomy compatibility: historical `except ValueError` still works."""
    bad = corrupt_forest(small_forest, "nan-threshold")
    with pytest.raises(ValueError):
        validate_forest(bad)
    with pytest.raises(ReproError):
        validate_forest(bad)


def test_unfitted_forest_rejected():
    class Unfitted:
        trees_ = []
        n_features_ = 4

    with pytest.raises(ForestValidationError, match="not fitted"):
        validate_forest(Unfitted())


def test_shared_subtree_rejected(small_forest):
    bad = corrupt_forest(small_forest, "nan-threshold")  # deep copy helper
    tree = bad.trees_[0]
    tree.threshold = np.asarray(small_forest.trees_[0].threshold).copy()
    internal = np.nonzero(np.asarray(tree.feature) != -1)[0]
    # Point a second parent at an already-referenced node: in-degree 2.
    target = int(tree.left[internal[0]])
    tree.right[internal[0]] = target
    with pytest.raises(ForestValidationError, match="referenced as a child"):
        validate_forest(bad)


def test_valid_domains_pass(small_forest):
    domains = build_sampling_domains(
        feature_thresholds(small_forest), "equi-size", k=32
    )
    validate_domains(domains, int(small_forest.n_features_))


@pytest.mark.parametrize(
    "domains, message",
    [
        ({}, "no sampling domains"),
        ({99: np.array([0.0, 1.0])}, "outside"),
        ({0: np.array([])}, "non-empty"),
        ({0: np.array([0.0, np.nan])}, "non-finite"),
        ({0: np.array([1.0, 0.5])}, "strictly"),
    ],
)
def test_bad_domains_rejected(domains, message):
    with pytest.raises(SamplingError, match=message) as excinfo:
        validate_domains(domains, 5)
    assert excinfo.value.stage == "domains"


# ----------------------------------------------------------------------
# Semantics pins: which tree and which check a message names.
# ----------------------------------------------------------------------
def _node_tree(feature, left, right, threshold=None, value=None, gain=None):
    """Hand-built node arrays (validation reads only these attributes)."""
    n = len(feature)
    return SimpleNamespace(
        feature=np.asarray(feature, dtype=np.int32),
        threshold=np.zeros(n) if threshold is None else np.asarray(threshold, float),
        left=np.asarray(left, dtype=np.int32),
        right=np.asarray(right, dtype=np.int32),
        value=np.zeros(n) if value is None else np.asarray(value, float),
        gain=np.ones(n) if gain is None else np.asarray(gain, float),
    )


def _two_split_tree():
    """0: x0 <= 0 ? 1 : 2;  2: x1 <= 0 ? 3 : 4;  leaves 1, 3, 4."""
    return _node_tree(
        feature=[0, -1, 1, -1, -1],
        left=[1, -1, 3, -1, -1],
        right=[2, -1, 4, -1, -1],
    )


def _forest(trees, n_features=2, init=0.0):
    return SimpleNamespace(trees_=trees, n_features_=n_features, init_score_=init)


def _message(forest):
    with pytest.raises(ForestValidationError) as excinfo:
        validate_forest(forest)
    assert excinfo.value.stage == "validate"
    return str(excinfo.value)


@pytest.mark.parametrize("fault", FOREST_FAULTS)
@pytest.mark.parametrize("tree_index", [1, 17, 39])
def test_corrupted_tree_index_is_named(small_forest, fault, tree_index):
    bad = corrupt_forest(small_forest, fault, tree_index=tree_index)
    message = _message(bad)
    assert message.startswith(f"tree {tree_index}: ")
    assert _FAULT_MESSAGES[fault] in message


@pytest.mark.parametrize("late_fault", FOREST_FAULTS)
def test_lowest_defective_tree_wins(small_forest, late_fault):
    # Tree 3 carries the last check in order, tree 7 any check.
    bad = corrupt_forest(small_forest, "orphan-node", tree_index=3)
    bad = corrupt_forest(bad, late_fault, tree_index=7)
    message = _message(bad)
    assert message.startswith("tree 3: orphan node ")


def test_orphan_before_later_dangling_child(small_forest):
    bad = corrupt_forest(small_forest, "orphan-node", tree_index=2)
    bad = corrupt_forest(bad, "dangling-child", tree_index=5)
    assert _message(bad).startswith("tree 2: orphan node ")


@pytest.mark.parametrize(
    "first, second, expected",
    [
        ("feature-out-of-range", "nan-threshold", "split feature index"),
        ("nan-threshold", "inf-leaf", "non-finite split threshold"),
        ("inf-leaf", "dangling-child", "non-finite leaf value"),
        ("dangling-child", "orphan-node", "dangling child"),
        ("cyclic-child", "orphan-node", "root is referenced"),
        ("feature-out-of-range", "orphan-node", "split feature index"),
    ],
)
def test_earlier_check_wins_within_a_tree(small_forest, first, second, expected):
    for a, b in ((first, second), (second, first)):
        bad = corrupt_forest(small_forest, a, tree_index=4)
        bad = corrupt_forest(bad, b, tree_index=4)
        message = _message(bad)
        assert message.startswith("tree 4: ")
        assert expected in message


def test_exact_messages_for_every_check():
    ok = _two_split_tree()

    def variant(**changes):
        tree = _two_split_tree()
        for name, (index, value) in changes.items():
            getattr(tree, name)[index] = value
        return _forest([ok, tree])

    cases = [
        (variant(feature=(2, 7)), "tree 1: split feature index 7 outside [0, 2)"),
        (variant(feature=(0, -3)), "tree 1: split feature index -3 outside [0, 2)"),
        (variant(threshold=(2, np.nan)), "tree 1: non-finite split threshold"),
        (variant(gain=(0, np.inf)), "tree 1: non-finite split gain"),
        (variant(value=(3, -np.inf)), "tree 1: non-finite leaf value"),
        (variant(left=(2, 9)), "tree 1: dangling child index 9 (tree has 5 nodes)"),
        (variant(right=(0, -2)), "tree 1: dangling child index -2 (tree has 5 nodes)"),
        (variant(left=(2, 0)), "tree 1: cyclic structure: the root is referenced as a child"),
        (
            variant(left=(2, 1)),
            "tree 1: node 1 is referenced as a child 2 times (cycle or shared subtree)",
        ),
    ]
    for forest, expected in cases:
        assert _message(forest) == expected
    # A left dangling child is named before a right one, even on a later node.
    both = _two_split_tree()
    both.right[0] = 11
    both.left[2] = 12
    assert _message(_forest([both])) == "tree 0: dangling child index 12 (tree has 5 nodes)"
    # Orphan: the lowest unreached node.
    orphaned = _node_tree(
        feature=[0, -1, -1, -1, -1], left=[1, -1, -1, -1, -1], right=[4, -1, -1, -1, -1]
    )
    assert _message(_forest([ok, ok, orphaned])) == (
        "tree 2: orphan node 2 is unreachable from the root"
    )


def test_empty_and_length_messages_unchanged():
    ok = _two_split_tree()
    empty = _node_tree(feature=[], left=[], right=[])
    assert _message(_forest([ok, empty])) == "tree 1: empty node arrays"
    for name in ("threshold", "left", "right", "value", "gain"):
        short = _two_split_tree()
        setattr(short, name, getattr(short, name)[:3])
        assert _message(_forest([ok, ok, short])) == (
            f"tree 2: array '{name}' has length 3, expected 5"
        )
    # The first short array in check order is named.
    short = _two_split_tree()
    short.gain = short.gain[:2]
    short.left = short.left[:4]
    assert _message(_forest([short])) == "tree 0: array 'left' has length 4, expected 5"


def test_shape_defect_after_structural_defect_names_lowest_tree():
    ok = _two_split_tree()
    orphaned = _node_tree(
        feature=[0, -1, -1, -1], left=[1, -1, -1, -1], right=[3, -1, -1, -1]
    )
    empty = _node_tree(feature=[], left=[], right=[])
    assert _message(_forest([ok, orphaned, empty])).startswith("tree 1: orphan node 2")
    assert _message(_forest([ok, empty, orphaned])) == "tree 1: empty node arrays"


def test_leaf_only_trees_skip_structure_checks():
    # No internal node: no child is read, so a lone leaf's child slots
    # are never range-checked...
    lone = _node_tree(feature=[-1], left=[5], right=[7])
    report = validate_forest(_forest([lone, _two_split_tree()]))
    assert (report.n_trees, report.n_nodes, report.n_leaves) == (2, 6, 4)
    # ...but the nodes the root cannot reach are orphans all the same.
    loose = _node_tree(feature=[-1, -1, -1], left=[5, 0, 0], right=[7, 0, 0])
    assert _message(_forest([loose, _two_split_tree()])) == (
        "tree 0: orphan node 1 is unreachable from the root"
    )


def test_report_counts_unchanged(small_forest):
    report = validate_forest(small_forest)
    trees = small_forest.trees_
    assert report.n_trees == len(trees)
    assert report.n_nodes == sum(len(t.feature) for t in trees)
    assert report.n_leaves == sum(int(np.sum(t.feature == -1)) for t in trees)
    assert report.n_features == int(small_forest.n_features_)
    assert str(report) == (
        f"{report.n_trees} trees, {report.n_nodes} nodes "
        f"({report.n_leaves} leaves), {report.n_features} features: OK"
    )
