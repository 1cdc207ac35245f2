import copy
import hashlib
import json
import math
import pickle
import sys
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from wheatyield.features import MODE_SOIL_WEATHER, DesignMatrix, build_matrix, feature_names
from wheatyield.learners import (
    ESTIMATORS,
    MODEL_KINDS,
    ColumnMismatchError,
    ModelParams,
    load_model,
    predict,
    save_model,
    train,
    train_on_matrix,
)

TREE_KINDS = ("decision_tree", "random_forest", "extra_trees",
              "gradient_boosting", "hist_gradient_boosting")


class TestModelParams:
    @pytest.mark.parametrize("kwargs", [
        dict(max_depth=-1),
        dict(min_samples_leaf=0),
        dict(n_estimators=-1),
        dict(learning_rate=0.0),
        dict(subsample=0.0),
        dict(subsample=1.5),
        dict(max_features=0),
        dict(n_bins=1),
        dict(max_leaves=1),
        dict(svr_iterations=0),
        dict(svr_c=0.0),
        dict(svr_step_size=0.0),
        dict(svr_epsilon=-0.1),
        dict(seed=-1),
    ])
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ModelParams(**kwargs)

    def test_boundary_values_allowed(self):
        ModelParams(max_depth=0, n_estimators=0, subsample=1.0, svr_epsilon=0.0)
        ModelParams(max_depth=None)

    def test_with_override(self):
        params = replace(ModelParams(), seed=9, n_estimators=5)
        assert params.seed == 9 and params.n_estimators == 5


class TestTrainDispatch:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown model kind"):
            train("boosted_stumps", np.zeros((2, 1)), np.zeros(2), ModelParams())

    def test_all_kinds_train_and_predict_finite(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(40, 3))
        y = rng.normal(size=40)
        names = ["a", "b", "c"]
        params = ModelParams(n_estimators=5, max_depth=3, min_samples_leaf=2,
                             svr_iterations=200)
        for kind in MODEL_KINDS:
            model = train(kind, X, y, params, names)
            out = predict(model, X, names)
            assert out.shape == (40,)
            assert np.isfinite(out).all()

    def test_column_names_length_checked(self):
        with pytest.raises(ValueError, match="column_names"):
            train("decision_tree", np.zeros((2, 2)), np.zeros(2), ModelParams(), ["one"])

    def test_positive_scaling_invariance_for_tree_family(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(60, 4))
        y = rng.normal(size=60)
        Xs = X.copy()
        Xs[:, 2] *= 1000.0
        names = ["a", "b", "c", "d"]
        params = ModelParams(n_estimators=8, max_depth=5, min_samples_leaf=2, seed=3)
        for kind in TREE_KINDS:
            base = predict(train(kind, X, y, params, names), X, names)
            scaled = predict(train(kind, Xs, y, params, names), Xs, names)
            assert np.array_equal(base, scaled), kind


class TestDesignMatrixApi:
    def matrix(self):
        rng = np.random.default_rng(2)
        meta, rows, target = [], [], []
        for i in range(25):
            weeks = [[8.0, float(rng.uniform(30, 70)), 6.0, float(rng.uniform(2, 20)), 40.0, 78.0]
                     for _ in range(17, 41)]
            # p, k, mg, ph, then medium/low/moderate/calc as ranks
            soil = [float(rng.uniform(15, 40)), 180.0, 60.0, 6.8, 1.0, 1.0, 1.0, 2.0]
            meta.append((f"Z{i}", 2018))
            rows.append(soil + [v for week in weeks for v in week])
            target.append(float(rng.uniform(7, 12)))
        instances = DesignMatrix(feature_names(MODE_SOIL_WEATHER), np.array(rows),
                                 np.array(target), meta)
        return build_matrix(instances, MODE_SOIL_WEATHER)

    def test_train_on_matrix_and_predict_matrix(self):
        dm = self.matrix()
        model = train_on_matrix("decision_tree", dm,
                                ModelParams(max_depth=3, min_samples_leaf=2))
        out = predict(model, dm)
        assert out.shape == (dm.n_rows,)
        assert model.column_names == feature_names(MODE_SOIL_WEATHER)

    def test_matrix_with_renamed_column_rejected(self):
        dm = self.matrix()
        model = train_on_matrix("decision_tree", dm,
                                ModelParams(max_depth=3, min_samples_leaf=2))
        dm.column_names = list(dm.column_names)
        dm.column_names[0] = "phosphorus"
        with pytest.raises(ValueError, match="phosphorus"):
            predict(model, dm)

    def test_width_mismatch_rejected(self):
        dm = self.matrix()
        model = train_on_matrix("decision_tree", dm,
                                ModelParams(max_depth=3, min_samples_leaf=2))
        with pytest.raises(ValueError, match="152"):
            predict(model, dm.rows[:, :8])

    def test_column_mismatch_survives_pickling(self):
        # a worker process sends its exception to the parent pickled
        dm = self.matrix()
        model = train_on_matrix("decision_tree", dm,
                                ModelParams(max_depth=3, min_samples_leaf=2))
        dm.column_names = ["phosphorus"] + list(dm.column_names[1:])
        with pytest.raises(ColumnMismatchError) as info:
            predict(model, dm)
        copy = pickle.loads(pickle.dumps(info.value))
        assert type(copy) is ColumnMismatchError
        assert str(copy) == str(info.value)
        assert (copy.missing, copy.unexpected, copy.reordered) == (
            info.value.missing, info.value.unexpected, info.value.reordered)


class TestSerializationFormat:
    def test_reject_foreign_json(self, tmp_path):
        path = tmp_path / "not_model.json"
        path.write_text(json.dumps({"hello": 1}))
        with pytest.raises(ValueError, match="not a"):
            load_model(path)

    def test_reject_future_version(self, tmp_path):
        rng = np.random.default_rng(3)
        model = train("decision_tree", rng.normal(size=(10, 2)), rng.normal(size=10),
                      ModelParams(max_depth=2, min_samples_leaf=1), ["a", "b"])
        path = tmp_path / "m.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        doc["version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="version"):
            load_model(path)

    def test_reject_version_1(self, tmp_path):
        # version 1 stored a booster's learning_rate in its state; there is
        # no loader for it
        rng = np.random.default_rng(3)
        model = train("gradient_boosting", rng.normal(size=(10, 2)), rng.normal(size=10),
                      ModelParams(n_estimators=2, max_depth=2, min_samples_leaf=1), ["a", "b"])
        path = tmp_path / "m.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        doc["version"] = 1
        doc["state"]["learning_rate"] = model.params.learning_rate
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="unsupported model version 1$"):
            load_model(path)

    @pytest.mark.parametrize("field, value, message", [
        ("kind", "boosted_stumps", "unknown model kind 'boosted_stumps'"),
        ("params", {"max_depth": 2, "shrinkage": 0.1}, r"unknown model parameters \['shrinkage'\]"),
        ("params", [], "model parameters in .* are not a JSON object"),
        ("params", {"max_depth": "deep"}, r"model parameter max_depth = 'deep' in .* is not int \| None"),
        ("params", {"bootstrap": 1}, "model parameter bootstrap = 1 in .* is not bool"),
        ("params", {"n_estimators": True}, "model parameter n_estimators = True in .* is not int"),
        ("params", {"min_samples_leaf": 0}, "invalid model parameters in .*: min_samples_leaf must be >= 1"),
        ("column_names", 5, "column_names in .* is not a list of strings"),
        ("column_names", [1, 2], "column_names in .* is not a list of strings"),
    ], ids=["kind", "params", "params-not-object", "param-type", "bool-param-type",
            "int-param-type", "param-value", "column-names-not-list", "column-names-not-strings"])
    def test_reject_unknown_kind_and_params(self, tmp_path, field, value, message):
        rng = np.random.default_rng(5)
        model = train("decision_tree", rng.normal(size=(10, 2)), rng.normal(size=10),
                      ModelParams(max_depth=2, min_samples_leaf=1), ["a", "b"])
        path = tmp_path / "m.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        doc[field] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=message) as excinfo:
            load_model(path)
        assert str(path) in str(excinfo.value)

    @pytest.mark.parametrize("kind, state, message", [
        ("svr", {}, "svr state in {path} has no key 'w'"),
        ("decision_tree", {"trees": []}, "decision_tree state in {path} has no key 'base_value'"),
        ("gradient_boosting", {"base_value": 0.5, "trees": [{"feature": [-1]}]},
         "gradient_boosting state in {path} has no key 'threshold'"),
        ("random_forest", {"base_value": 0.0, "trees": []},
         "invalid random_forest state in {path}: a forest needs at least one tree"),
        ("extra_trees", {"base_value": 0.0, "trees": []},
         "invalid extra_trees state in {path}: a forest needs at least one tree"),
        # each of these raised a bare TypeError, and a w of nulls loaded
        # and failed only in predict
        ("decision_tree", [], "invalid decision_tree state in {path}: the state is not a JSON object"),
        ("decision_tree", None,
         "invalid decision_tree state in {path}: the state is not a JSON object"),
        ("decision_tree", {"base_value": None, "trees": []},
         "invalid decision_tree state in {path}: base_value is not a number"),
        ("decision_tree", {"base_value": 0.0, "trees": 5},
         "invalid decision_tree state in {path}: trees is not a list of JSON objects"),
        ("decision_tree", {"base_value": 0.0, "trees": [[-1]]},
         "invalid decision_tree state in {path}: trees is not a list of JSON objects"),
        ("svr", {"w": [1.0, 2.0], "b": None, "mu": [0.0, 0.0], "scale": [1.0, 1.0]},
         "invalid svr state in {path}: b is not a number"),
        ("svr", {"w": {"a": 1}, "b": 0.0, "mu": [0.0, 0.0], "scale": [1.0, 1.0]},
         "invalid svr state in {path}: w is not a list of numbers"),
        ("svr", {"w": [None, None], "b": 0.0, "mu": [0.0, 0.0], "scale": [1.0, 1.0]},
         "invalid svr state in {path}: w is not a list of numbers"),
    ], ids=["missing-svr-key", "missing-base-value", "missing-node-key", "empty-forest",
            "empty-extra-trees", "state-is-list", "state-is-null", "null-base-value",
            "trees-not-list", "tree-is-list", "null-svr-b", "svr-w-object", "null-svr-w"])
    def test_reject_bad_state(self, tmp_path, kind, state, message):
        rng = np.random.default_rng(6)
        model = train(kind, rng.normal(size=(10, 2)), rng.normal(size=10),
                      ModelParams(n_estimators=2, max_depth=2, min_samples_leaf=1,
                                  svr_iterations=50), ["a", "b"])
        path = tmp_path / "m.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        doc["state"] = state
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError) as excinfo:
            load_model(path)
        assert str(excinfo.value) == message.format(path=path)

    @pytest.mark.parametrize("kind, key, edit, message", [
        ("decision_tree", "left", lambda a: [0] + a[1:],
         "a tree's child ids must exceed their node's id and be below its node count"),
        ("decision_tree", "feature", lambda a: [7] + a[1:],
         "a tree splits on a feature id >= its 3 columns"),
        ("decision_tree", "left", lambda a: a[:-1],
         "a tree's five node arrays need one length of at least 1"),
        ("decision_tree", "left", lambda a: [99] + a[1:],
         "a tree's child ids must exceed their node's id and be below its node count"),
        ("svr", "w", lambda a: a[:2], "w needs one entry per column (3)"),
        ("decision_tree", "left", lambda a: [2**40] + a[1:],
         "a tree's left is not a list of int32 ids"),
        ("decision_tree", "right", lambda a: a[:-1] + [None],
         "a tree's right is not a list of int32 ids"),
    ], ids=["root-is-its-own-child", "feature-past-columns", "truncated-left",
            "child-past-nodes", "short-svr-w", "id-past-int32", "null-id"])
    def test_reject_state_predict_cannot_use(self, tmp_path, kind, key, edit, message):
        # before these checks, the first document loaded and then made
        # predict loop forever, and the next three raised inside predict;
        # the last two raised OverflowError (numpy 2) or wrapped the id
        # with a DeprecationWarning (numpy 1.x), and TypeError
        rng = np.random.default_rng(8)
        model = train(kind, rng.normal(size=(40, 3)), rng.normal(size=40),
                      ModelParams(max_depth=3, min_samples_leaf=2, svr_iterations=50),
                      ["a", "b", "c"])
        path = tmp_path / "m.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        state = doc["state"] if kind == "svr" else doc["state"]["trees"][0]
        assert kind == "svr" or state["feature"][0] >= 0  # the root splits
        state[key] = edit(state[key])
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError) as excinfo, warnings.catch_warnings():
            warnings.simplefilter("error")
            load_model(path)
        assert str(excinfo.value) == f"invalid {kind} state in {path}: {message}"

    @pytest.mark.parametrize("key", ["kind", "params", "column_names", "state"])
    def test_reject_document_without_key(self, tmp_path, key):
        rng = np.random.default_rng(6)
        model = train("decision_tree", rng.normal(size=(10, 2)), rng.normal(size=10),
                      ModelParams(max_depth=2, min_samples_leaf=1), ["a", "b"])
        path = tmp_path / "m.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        del doc[key]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError) as excinfo:
            load_model(path)
        assert str(excinfo.value) == f"model document {path} has no key {key!r}"

    @pytest.mark.parametrize("doc", [[], "wheatyield.model", 2, None])
    def test_reject_json_that_is_not_an_object(self, tmp_path, doc):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError) as excinfo:
            load_model(path)
        assert str(excinfo.value) == f"not a wheatyield.model file: {path}"

    def test_booster_without_trees_loads(self, tmp_path):
        # n_estimators = 0 is a valid booster that predicts its base value
        rng = np.random.default_rng(6)
        model = train("gradient_boosting", rng.normal(size=(10, 2)), rng.normal(size=10),
                      ModelParams(n_estimators=0), ["a", "b"])
        path = tmp_path / "m.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.estimator.trees == []
        assert predict(loaded, np.zeros((3, 2)), ["a", "b"]).tolist() == [model.estimator.base_value] * 3

    def test_document_shape(self, tmp_path):
        rng = np.random.default_rng(4)
        model = train("svr", rng.normal(size=(10, 2)), rng.normal(size=10),
                      ModelParams(svr_iterations=50), ["a", "b"])
        path = tmp_path / "m.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        assert doc["format"] == "wheatyield.model"
        assert doc["version"] == 2
        assert doc["kind"] == "svr"
        assert doc["column_names"] == ["a", "b"]

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_round_trip_and_unfitted(self, tmp_path, kind):
        """Every kind: save -> load -> predict gives the same bytes, a tree
        kind's state is one layout, and an unfitted estimator raises."""
        rng = np.random.default_rng(8)
        X = rng.normal(size=(40, 3))
        y = rng.normal(size=40)
        names = ["a", "b", "c"]
        params = ModelParams(n_estimators=4, max_depth=3, min_samples_leaf=2,
                             subsample=0.7, svr_iterations=100, seed=2)
        model = train(kind, X, y, params, names)
        path = tmp_path / "m.json"
        save_model(model, path)
        loaded = load_model(path)
        assert predict(loaded, X, names).tobytes() == predict(model, X, names).tobytes()
        if kind in TREE_KINDS:
            assert sorted(json.loads(path.read_text())["state"]) == ["base_value", "trees"]
        unfitted = ESTIMATORS[kind](params)
        with pytest.raises(RuntimeError, match="not fitted"):
            unfitted.predict(X)
        with pytest.raises(RuntimeError, match="not fitted"):
            unfitted.to_state()


def _fields(node, path=()):
    """The path of every value below ``node`` in a JSON document."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from _fields(child, path + (key,))


def _saved_documents() -> dict[str, dict]:
    """The saved document of one small 3-column model of each kind."""
    rng = np.random.default_rng(8)
    X, y = rng.normal(size=(40, 3)), rng.normal(size=40)
    params = ModelParams(n_estimators=2, max_depth=3, min_samples_leaf=2,
                         svr_iterations=50, seed=2)
    docs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for kind in MODEL_KINDS:
            path = Path(tmp) / f"{kind}.json"
            save_model(train(kind, X, y, params, ["a", "b", "c"]), path)
            docs[kind] = json.loads(path.read_text())
    return docs


SAVED_DOCUMENTS = _saved_documents()
EDIT_SITES = [(kind, path) for kind, doc in SAVED_DOCUMENTS.items() for path in _fields(doc)]
EDIT_VALUES = [None, True, False, 0, -1, 2**40, 10**400, 1.5, math.nan, math.inf, -math.inf,
               1e308, "x", [], {}, [1], [None]]


@settings(max_examples=400, deadline=None)
@given(site=st.sampled_from(EDIT_SITES), value=st.sampled_from(EDIT_VALUES))
# each failed once: the first two loaded and made predict warn (divide by
# zero, overflow), the third loaded, a list kind raised TypeError, and an
# int beyond any float raised OverflowError
@example(site=("svr", ("state", "scale", 0)), value=0)
@example(site=("svr", ("state", "w", 0)), value=1e308)
@example(site=("random_forest", ("state", "trees", 0, "value", 0)), value=math.nan)
@example(site=("svr", ("kind",)), value=[])
@example(site=("gradient_boosting", ("state", "base_value")), value=10**400)
def test_single_field_edit_is_refused_or_predicts_finite(site, value):
    """load_model refuses an edited document with a ValueError naming the
    file, always when it holds a non-finite number, or the model it loads
    predicts finite values on finite X or raises a ValueError; never a
    warning or another exception."""
    kind, path = site
    doc = copy.deepcopy(SAVED_DOCUMENTS[kind])
    *parents, last = path
    node = doc
    for key in parents:
        node = node[key]
    node[last] = value
    X = np.random.default_rng(9).normal(size=(20, 3))
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")
        file = Path(tmp) / "m.json"
        file.write_text(json.dumps(doc))
        try:
            model = load_model(file)
        except ValueError as exc:
            assert str(file) in str(exc)
            return
        # NaN, the infinities and 10**400: no finite float holds them
        assert not (isinstance(value, (int, float)) and not abs(value) <= sys.float_info.max)
        try:
            out = predict(model, X)
        except ValueError:
            return
        assert np.isfinite(out).all()



# sha256 of save_model's bytes for every kind that calls no BLAS, fitted on
# a small matrix with many ties, so that the presort, the row samples, the
# feature draws and the split search are all pinned to the bit. Each setting
# runs once more with max_features above the column count, which every kind
# reads as all columns. A change that means to alter a tree updates its
# digest here and says so; no other change touches them
BLAS_FREE_MODEL_DIGESTS = [
    ("decision_tree", {},
     "09d95f9a07ddb40d2bb10f58b0daf12283f0f4cb708ca2fc6c13a6eb72ea2c55"),
    ("decision_tree", {"max_features": 500},
     "61544635a31944ab5526cbc9b74866e0d92bbd9e1d41e1b313d1aca5145e6c24"),
    ("random_forest", {},
     "02884f6352f99498525bc12cecb3514e630d1b43e1d1125ea5c51f43715412c8"),
    ("random_forest", {"max_features": 500},
     "d737f6f3ee9ef0795d3ccb67f7e431af4fbf77a0876a9622e2c3113e0b6c4326"),
    ("random_forest", {"bootstrap": False},
     "123c0b972cb06429d7e48579f3e460b4fb4d42f9e5ef7c6895f1f1af89d63fc6"),
    ("random_forest", {"bootstrap": False, "max_features": 500},
     "931d430e787f41d40c951dad914a1c69b2f4228320c222f483feb3fac45b631c"),
    ("gradient_boosting", {},
     "406188baf761c676cc39727a2338c7cb799f3ecd13c146a5709654db553cc3a9"),
    ("gradient_boosting", {"max_features": 500},
     "b3347fea23b7c9d305efd1ad53d0bd3321885752950169a1057329e0830b5f06"),
    ("gradient_boosting", {"subsample": 0.7},
     "d3df774d7d4ad04b427dbd8adb6fff7735afe6413274538142caf9e81c3637eb"),
    ("gradient_boosting", {"subsample": 0.7, "max_features": 500},
     "73de6d2aca7c2ddd63b78d03b7ff1bc8a3fa3238797dc6369b7c2ca6db23a8e3"),
    ("gradient_boosting", {"subsample": 0.7, "max_features": 7},
     "75d6e7140349613ceae2b98d88fe858ab4689681de8fd4c43ef38b251c9d122d"),
    ("hist_gradient_boosting", {},
     "aae8be5a030687c8ab5adce7347dabba5d710d200bae126854f1e9d0f05f7ae4"),
    ("hist_gradient_boosting", {"max_features": 500},
     "9622a7b85af20d604ea502b54b74462e9f114e8c16197ce703033702160b8c5d"),
    ("hist_gradient_boosting", {"subsample": 0.7},
     "b258cbc3743b7adcf3d6ee625205808e0250b752468490693eba8fb0ca220c93"),
    ("hist_gradient_boosting", {"subsample": 0.7, "max_features": 500},
     "461c5c36d5b6f2d17a764e75c95a2819f7d80502ee7ccbe644a2100acc201012"),
    # the columns have 45-52 distinct values, so 8 bins take the
    # equal-frequency cuts
    ("hist_gradient_boosting", {"n_bins": 8},
     "fe5fe9893127b216a0bfe381a1278f04a779a67c10fd6b79cc55a03370b77164"),
    ("hist_gradient_boosting", {"n_bins": 8, "subsample": 0.7},
     "e2ca6b7c3e9b4f4f0a24c0a67410672b8667d27672c412c706cfc98456bfca5d"),
]


@pytest.mark.parametrize(
    "kind,overrides,digest",
    BLAS_FREE_MODEL_DIGESTS,
    ids=[kind + "".join(f"-{key}={value}" for key, value in overrides.items())
         for kind, overrides, _ in BLAS_FREE_MODEL_DIGESTS],
)
def test_blas_free_models_keep_their_bytes(tmp_path, kind, overrides, digest):
    rng = np.random.default_rng(0)
    X = np.round(rng.normal(size=(300, 20)), 1)
    y = np.round(X[:, 0] * 2 - X[:, 3] + rng.normal(size=300), 2)
    params = ModelParams(n_estimators=8, max_depth=4, min_samples_leaf=3, seed=3, **overrides)
    save_model(train(kind, X, y, params), tmp_path / "m.json")
    assert hashlib.sha256((tmp_path / "m.json").read_bytes()).hexdigest() == digest
