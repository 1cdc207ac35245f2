"""Regression model suite behind one train/predict contract.

Kinds: decision_tree, svr, random_forest, extra_trees, gradient_boosting,
hist_gradient_boosting. All randomness flows from ModelParams.seed through
per-member derived generators, so results do not depend on which process
fits a model.
Models serialize to a versioned JSON document; load(save(m)) predicts
identically because JSON floats round-trip exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from ..features import DesignMatrix
from .boosting import GradientBoosting
from .forest import ExtraTrees, RandomForest
from .histboost import HistGradientBoosting
from .splits import best_split
from .svr import LinearSVR
from .tree import DecisionTree

MODEL_FORMAT = "wheatyield.model"
MODEL_VERSION = 2


class ColumnMismatchError(ValueError):
    """Prediction matrix columns differ from the training columns."""

    def __init__(self, missing: list[str], unexpected: list[str], reordered: bool):
        self.missing = missing
        self.unexpected = unexpected
        self.reordered = reordered
        parts = []
        if missing:
            parts.append(f"missing columns {missing}")
        if unexpected:
            parts.append(f"unexpected columns {unexpected}")
        if not parts and reordered:
            parts.append("columns are reordered")
        super().__init__("; ".join(parts) or "column mismatch")

    def __reduce__(self):
        # the default pickles only the message, which __init__ cannot take
        return type(self), (self.missing, self.unexpected, self.reordered)


@dataclass(frozen=True)
class ModelParams:
    """Hyperparameters shared by the whole suite; unused knobs are ignored
    by models that do not have them."""

    max_depth: int | None = 6
    min_samples_leaf: int = 5
    n_estimators: int = 200
    learning_rate: float = 0.1
    subsample: float = 1.0
    max_features: int | None = None  # None: ceil(d/3) for forests, all for gradient boosting
    bootstrap: bool = True
    n_bins: int = 64
    max_leaves: int = 31
    svr_epsilon: float = 0.1
    svr_c: float = 1.0
    svr_iterations: int = 5000
    svr_step_size: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.max_depth is not None and self.max_depth < 0:
            raise ValueError("max_depth must be >= 0 or None")
        if self.min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        if self.n_estimators < 0:
            raise ValueError("n_estimators must be >= 0")
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be > 0")
        if not 0.0 < self.subsample <= 1.0:
            raise ValueError("subsample must be in (0, 1]")
        if self.max_features is not None and self.max_features < 1:
            raise ValueError("max_features must be >= 1")
        if self.n_bins < 2:
            raise ValueError("n_bins must be >= 2")
        if self.max_leaves < 2:
            raise ValueError("max_leaves must be >= 2")
        if self.svr_iterations < 1:
            raise ValueError("svr_iterations must be >= 1")
        if not self.svr_step_size > 0 or not self.svr_c > 0:
            raise ValueError("svr_step_size and svr_c must be > 0")
        if self.svr_epsilon < 0:
            raise ValueError("svr_epsilon must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


ESTIMATORS = {cls.kind: cls for cls in (DecisionTree, LinearSVR, RandomForest, ExtraTrees,
                                        GradientBoosting, HistGradientBoosting)}

MODEL_KINDS = tuple(ESTIMATORS)


@dataclass
class TrainedModel:
    kind: str
    column_names: list[str]
    params: ModelParams
    estimator: object = field(repr=False)


def train(
    kind: str,
    X: np.ndarray,
    y: np.ndarray,
    params: ModelParams,
    column_names: list[str] | None = None,
) -> TrainedModel:
    """Fit one model kind on a feature matrix; every cell of X and y must be
    finite."""
    try:
        cls = ESTIMATORS[kind]
    except KeyError:
        raise ValueError(f"unknown model kind: {kind!r}") from None
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if column_names is None:
        column_names = [f"x{i}" for i in range(X.shape[1])]
    if len(column_names) != X.shape[1]:
        raise ValueError("column_names length does not match matrix width")
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise ValueError("non-finite values in training data")
    estimator = cls(params).fit(X, y)
    return TrainedModel(kind=kind, column_names=list(column_names), params=params, estimator=estimator)


def train_on_matrix(kind: str, matrix: DesignMatrix, params: ModelParams) -> TrainedModel:
    return train(kind, matrix.rows, matrix.target, params, matrix.column_names)


def predict(
    model: TrainedModel,
    X: np.ndarray | DesignMatrix,
    column_names: list[str] | None = None,
) -> np.ndarray:
    """Predict with column-name verification.

    Accepts a DesignMatrix (names checked against training) or a bare
    array plus optional names; a bare array must at least match the
    training width.
    """
    if isinstance(X, DesignMatrix):
        column_names = X.column_names
        X = X.rows
    X = np.asarray(X, dtype=np.float64)
    if column_names is not None and list(column_names) != list(model.column_names):
        trained = set(model.column_names)
        given = set(column_names)
        raise ColumnMismatchError(
            missing=sorted(trained - given),
            unexpected=sorted(given - trained),
            reordered=trained == given,
        )
    if X.ndim != 2 or X.shape[1] != len(model.column_names):
        got = X.shape[1] if X.ndim == 2 else f"ndim={X.ndim}"
        raise ValueError(f"expected {len(model.column_names)} feature columns, got {got}")
    with np.errstate(all="ignore"):  # an overflow is refused just below
        out = np.asarray(model.estimator.predict(X), dtype=np.float64)
    if out.size and not np.isfinite(out).all():
        raise ValueError("model produced non-finite predictions")
    return out


def save_model(model: TrainedModel, path: str | Path) -> None:
    """Write a versioned JSON serialization of a trained model."""
    doc = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "kind": model.kind,
        "column_names": model.column_names,
        "params": asdict(model.params),
        "state": model.estimator.to_state(),
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)


def _json_fits(value, annotation: str) -> bool:
    """Whether a JSON value suits a ``ModelParams`` field's annotation (a
    bool is not an int here, an int is a float)."""
    if value is None:
        return annotation.endswith(" | None")
    kind = annotation.removesuffix(" | None")
    if isinstance(value, bool):
        return kind == "bool"
    return isinstance(value, {"int": int, "float": (int, float)}.get(kind, ()))


def load_model(path: str | Path) -> TrainedModel:
    """Inverse of :func:`save_model`; the loaded model predicts identically."""

    def finite(text: str, cast=float):
        # json reads NaN, Infinity, -Infinity, 1e999 as inf, and ints no float holds
        if not math.isfinite(float(text)):
            raise ValueError(f"non-finite number {text} in {path}")
        return cast(text)

    with open(path) as fh:
        doc = json.load(fh, parse_float=finite, parse_constant=finite,
                        parse_int=lambda text: finite(text, int))
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        raise ValueError(f"not a {MODEL_FORMAT} file: {path}")
    if doc.get("version") != MODEL_VERSION:
        raise ValueError(f"model document {path} has unsupported model version {doc.get('version')!r}")
    for key in ("kind", "params", "column_names", "state"):
        if key not in doc:
            raise ValueError(f"model document {path} has no key {key!r}")
    kind = doc["kind"]
    if kind not in MODEL_KINDS:  # a tuple, so an unhashable kind is refused here too
        raise ValueError(f"unknown model kind {kind!r} in {path}")
    if not isinstance(doc["params"], dict):
        raise ValueError(f"model parameters in {path} are not a JSON object")
    types = {f.name: f.type for f in fields(ModelParams)}
    unknown = sorted(set(doc["params"]) - set(types))
    if unknown:
        raise ValueError(f"unknown model parameters {unknown} in {path}")
    for name, value in doc["params"].items():
        if not _json_fits(value, types[name]):
            raise ValueError(f"model parameter {name} = {value!r} in {path} is not {types[name]}")
    try:
        params = ModelParams(**doc["params"])
    except ValueError as exc:
        raise ValueError(f"invalid model parameters in {path}: {exc}") from None
    names = doc["column_names"]
    if not isinstance(names, list) or not all(isinstance(name, str) for name in names):
        raise ValueError(f"column_names in {path} is not a list of strings")
    estimator = ESTIMATORS[kind](params)
    try:
        if not isinstance(doc["state"], dict):
            raise ValueError("the state is not a JSON object")
        estimator.load_state(doc["state"], len(names))
    except KeyError as exc:
        raise ValueError(f"{kind} state in {path} has no key {exc}") from None
    except ValueError as exc:
        raise ValueError(f"invalid {kind} state in {path}: {exc}") from None
    return TrainedModel(
        kind=kind,
        column_names=names,
        params=params,
        estimator=estimator,
    )


__all__ = [
    "ColumnMismatchError",
    "ModelParams",
    "TrainedModel",
    "MODEL_KINDS",
    "best_split",
    "DecisionTree",
    "RandomForest",
    "ExtraTrees",
    "GradientBoosting",
    "HistGradientBoosting",
    "LinearSVR",
    "train",
    "train_on_matrix",
    "predict",
    "save_model",
    "load_model",
]
