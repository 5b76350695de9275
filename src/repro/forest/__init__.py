"""Forest substrate: histogram GBDTs and random forests built from scratch.

This subpackage replaces LightGBM in the reproduction.  Every model exposes
the *forest protocol* GEF relies on:

* ``trees_`` — list of :class:`~repro.forest.tree.Tree` with per-node
  feature, threshold, gain, cover and leaf values;
* ``init_score_`` — constant base score;
* ``n_features_`` — input dimensionality;
* ``predict_raw(X)`` — ``init_score_ + sum of trees``.

GBDTs and random forests inherit one fitted-forest base
(:class:`~repro.forest.engines.FittedForest`).  Its ``predict_raw`` runs
the traversal-free bitvector engine (QuickScorer-style threshold-sorted
bitmasks, see :mod:`repro.forest.bitvector`) and falls back to the
per-tree loop, :func:`~repro.forest.engines.loop_predict_raw`, for
forests the encoding declines.  That loop is the reference every engine
output must equal bitwise.
"""

from .binning import BinMapper
from .bitvector import BitvectorForest, bitvector_for
from .boosting import GradientBoostingClassifier, GradientBoostingRegressor
from .grower import TreeGrowerParams, grow_tree
from .losses import LogisticLoss, SquaredLoss, get_loss, sigmoid
from .multiclass import OneVsRestGBDTClassifier
from .model_io import (
    forest_from_dict,
    forest_to_dict,
    forests_equal,
    load_forest,
    save_forest,
)
from .random_forest import RandomForestClassifier, RandomForestRegressor
from .text_dump import dump_tree, forest_summary
from .tree import LEAF, Tree, forest_fingerprint
from .validation import GridSearch, cross_val_score, kfold_indices, train_test_split

__all__ = [
    "BinMapper",
    "BitvectorForest",
    "GradientBoostingClassifier",
    "GradientBoostingRegressor",
    "GridSearch",
    "LEAF",
    "LogisticLoss",
    "OneVsRestGBDTClassifier",
    "RandomForestClassifier",
    "RandomForestRegressor",
    "SquaredLoss",
    "Tree",
    "TreeGrowerParams",
    "bitvector_for",
    "cross_val_score",
    "dump_tree",
    "forest_fingerprint",
    "forest_from_dict",
    "forest_summary",
    "forest_to_dict",
    "forests_equal",
    "get_loss",
    "grow_tree",
    "kfold_indices",
    "load_forest",
    "save_forest",
    "sigmoid",
    "train_test_split",
]
