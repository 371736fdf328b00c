"""The ML runtime's two kernels: the all-trees traversal against the
reference runtime's per-tree descent (bit for bit), and the Arrow
featurizer against its pandas adapter (identical matrices)."""
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from repro.core.predicate_pruning import apply_output_predicate_pruning
from repro.ir.slots import model_input_slots
from repro.ml.pipeline import fit_pipeline
from repro.runtime import onnx_rt, reference_rt
from tests.boundaries import boundary_rows
from tests.null_categories import null_category_frame, null_category_pipeline

NUM, CAT = ["age", "bpm"], ["ward", "smoker"]


@pytest.fixture(scope="module")
def frame():
    rng = np.random.default_rng(5)
    n = 1500
    pdf = pd.DataFrame(
        {
            "age": rng.uniform(0, 100, n),
            "bpm": rng.normal(80, 15, n),
            "ward": rng.choice(["1", "2", "3"], n),
            "smoker": rng.choice(["no", "yes", "quit"], n),
        }
    )
    pdf["label"] = (
        (pdf.age > 55) & ((pdf.ward == "1") | (pdf.bpm > 90))
        | (pdf.smoker == "yes") & (pdf.age > 30)
    ).astype(int)
    return pdf


def _ir(frame, kind, **kw):
    return fit_pipeline(frame, NUM, CAT, "label", kind, **kw)


def _per_tree(model, X):
    """The reference: ``reference_rt``'s recursive descent of each tree, on
    the float32 cast of ``X`` held in float64 (so splits compare against
    the float64 thresholds, as the kernel's do), added in tree order."""
    trees = model.attrs["trees"]
    kind = model.attrs["kind"]
    X = X.astype(np.float32).astype(np.float64)
    acc = np.full((len(X), trees[0].n_out), model.attrs["base_score"] if kind == "gb" else 0.0)
    for t in trees:
        acc += reference_rt._tree_values_masked(t, X)
    return onnx_rt.ensemble_output(kind, acc, len(trees))


def _with_nans(X, seed=0):
    X = X.copy()
    rng = np.random.default_rng(seed)
    X[rng.random(X.shape) < 0.05] = np.nan
    return X


class TestTreeKernel:
    @pytest.mark.parametrize(
        "kind,kw",
        [
            ("dt", {"max_depth": 7}),
            ("rf", {"max_depth": 6, "n_estimators": 9}),
            ("gb", {"max_depth": 3, "n_estimators": 15}),
        ],
    )
    def test_bit_exact_against_per_tree_sum(self, frame, kind, kw):
        p = _ir(frame, kind, **kw)
        rows = pd.concat([frame, boundary_rows(frame, p, n_rows=3)], ignore_index=True)
        X = _with_nans(onnx_rt.featurize(p, rows))
        label, score = onnx_rt.predict(p.model_node, X)
        ref_label, ref_score = _per_tree(p.model_node, X)
        np.testing.assert_array_equal(label, ref_label)
        assert np.array_equal(score, ref_score)  # bitwise, not allclose

    def test_unequal_depths_and_single_leaf_trees(self, frame):
        p = _ir(frame, "rf", max_depth=8, n_estimators=6)
        trees = p.model_node.attrs["trees"]
        d = p.n_model_features()
        lo, hi = np.full(d, -np.inf), np.full(d, np.inf)
        point = np.zeros(d)
        trees[1] = trees[1].prune_with_intervals(point, point)  # a lone leaf
        lo[0] = hi[0] = 0.7
        trees[3] = trees[3].prune_with_intervals(lo, hi)  # shallower
        depths = [t.depth() for t in trees]
        assert 0 in depths and len(set(depths)) > 2
        X = _with_nans(onnx_rt.featurize(p, frame), seed=1)
        label, score = onnx_rt.predict(p.model_node, X)
        ref_label, ref_score = _per_tree(p.model_node, X)
        np.testing.assert_array_equal(label, ref_label)
        assert np.array_equal(score, ref_score)

    @pytest.mark.parametrize("value", [0, 1])
    def test_after_output_predicate_pruning(self, frame, value):
        p = apply_output_predicate_pruning(_ir(frame, "dt", max_depth=8), value)
        X = _with_nans(onnx_rt.featurize(p, frame), seed=2)
        label, score = onnx_rt.predict(p.model_node, X)
        ref_label, ref_score = _per_tree(p.model_node, X)
        np.testing.assert_array_equal(label, ref_label)
        assert np.array_equal(score, ref_score)

    def test_value_on_threshold_goes_left(self, frame):
        # thresholds moved onto float32 values, and rows sitting on them
        p = _ir(frame, "rf", max_depth=6, n_estimators=5)
        X = onnx_rt.featurize(p, frame.head(200))
        rng = np.random.default_rng(4)
        for t in p.model_node.attrs["trees"]:
            t.threshold = t.threshold.astype(np.float32).astype(np.float64)
            for node in np.flatnonzero(t.left != -1):
                X[rng.integers(len(X), size=20), t.feature[node]] = t.threshold[node]
        label, score = onnx_rt.predict(p.model_node, X)
        ref_label, ref_score = _per_tree(p.model_node, X)
        np.testing.assert_array_equal(label, ref_label)
        assert np.array_equal(score, ref_score)

    def test_nan_goes_right(self, frame):
        p = _ir(frame, "dt", max_depth=4)
        t = p.model_node.attrs["trees"][0]
        X = np.full((1, p.n_model_features()), np.nan)
        stack = onnx_rt.stack_trees([t])
        leaf = int(stack.leaves(X.astype(np.float32))[0, 0])
        node = 0
        while t.left[node] != -1:
            node = int(t.right[node])
        assert leaf == node


class TestFeaturizerAdapters:
    """An Arrow batch and the same rows as a pandas frame featurize alike."""

    @pytest.fixture(scope="class")
    def p(self, frame):
        return _ir(frame, "dt", max_depth=5)

    def _assert_same(self, p, pdf, batch):
        a, b = onnx_rt.featurize(p, pdf), onnx_rt.featurize(p, batch)
        assert a.shape == b.shape == (len(pdf), p.n_model_features())
        np.testing.assert_array_equal(a, b)
        return a

    def _block(self, p, X, col):
        """The one-hot columns of ``col`` in ``X``."""
        idx = [i for i, s in enumerate(model_input_slots(p))
               if s.kind == "onehot" and s.source == col]
        assert idx
        return X[:, idx]

    def test_null_categorical(self, p, frame):
        pdf = frame.head(6).astype({"ward": object})
        pdf.loc[pdf.index[::2], "ward"] = None
        X = self._assert_same(p, pdf, pa.RecordBatch.from_pandas(pdf))
        assert not self._block(p, X, "ward")[::2].any()  # NULL sets no indicator

    def test_null_categorical_trained_as_none(self, frame):
        # a category learned from NULLs in training is the string 'None'
        train = frame.astype({"smoker": object})
        train.loc[train.index[::7], "smoker"] = None
        p = _ir(train, "dt", max_depth=5)
        pdf = train.head(14)
        X = self._assert_same(p, pdf, pa.RecordBatch.from_pandas(pdf))
        (col,) = [i for i, s in enumerate(model_input_slots(p))
                  if s.kind == "onehot" and s.category == "None"]
        np.testing.assert_array_equal(X[:, col], pdf.smoker.isna())

    def test_unseen_category(self, p, frame):
        pdf = frame.head(4).assign(smoker=["no", "never", "yes", "?"])
        X = self._assert_same(p, pdf, pa.RecordBatch.from_pandas(pdf))
        block = self._block(p, X, "smoker")
        assert not block[[1, 3]].any() and block[[0, 2]].sum() == 2

    def test_int_typed_categorical(self, p, frame):
        pdf = frame.head(9).assign(ward=frame.ward.head(9).astype(int))
        batch = pa.RecordBatch.from_pandas(pdf)
        assert pa.types.is_integer(batch.schema.field("ward").type)
        X = self._assert_same(p, pdf, batch)
        assert (self._block(p, X, "ward").sum(axis=1) == 1).all()  # '1' hits '1'

    def test_null_numeric(self, p, frame):
        pdf = frame.head(5).copy()
        pdf.loc[pdf.index[1], "age"] = np.nan
        batch = pa.RecordBatch.from_pandas(pdf)
        assert batch.column("age").null_count == 1
        X = self._assert_same(p, pdf, batch)
        assert np.isnan(X).any(axis=1)[1]

    def test_large_string(self, p, frame):
        pdf = frame.head(20)
        batch = pa.RecordBatch.from_pandas(pdf)
        schema = pa.schema(
            [f.with_type(pa.large_string()) if pa.types.is_string(f.type) else f
             for f in batch.schema]
        )
        self._assert_same(p, pdf, batch.cast(schema))

    def test_zero_rows(self, p, frame):
        pdf = frame.head(0)
        self._assert_same(p, pdf, pa.RecordBatch.from_pandas(pdf))
        label, score = onnx_rt.run(p, pa.RecordBatch.from_pandas(pdf))
        assert label.shape == score.shape == (0,)

    def test_int_typed_categorical_holding_a_null(self, p, frame):
        # one NULL must not render the other values as floats ('2.0')
        pdf = frame.head(9).assign(ward=frame.ward.head(9).astype(int)).astype({"ward": "Int64"})
        pdf.loc[pdf.index[0], "ward"] = pd.NA
        batch = pa.RecordBatch.from_pandas(pdf)
        assert pa.types.is_integer(batch.schema.field("ward").type)
        assert batch.column("ward").null_count == 1
        X = self._assert_same(p, pdf, batch)
        assert (self._block(p, X, "ward")[1:].sum(axis=1) == 1).all()

    def test_float_categorical_keeps_pandas_rendering(self, p, frame):
        # pandas' astype(str) writes 1.0 as '1.0', which is not category '1'
        pdf = frame.head(3).assign(ward=[1.0, 2.0, 3.0])
        X = self._assert_same(p, pdf, pa.RecordBatch.from_pandas(pdf))
        assert not self._block(p, X, "ward").any()


class TestDictionaryInput:
    """A dictionary-encoded categorical column featurizes bit for bit as
    its decoded strings do (a NULL index decodes to NULL, read as 'None')."""

    @pytest.fixture(scope="class")
    def p(self, frame):
        # 'None' is a category, learned from NULLs in training
        train = frame.astype({"smoker": object})
        train.loc[train.index[::7], "smoker"] = None
        return _ir(train, "dt", max_depth=6)

    def _assert_same(self, p, frame, smoker):
        base = pa.RecordBatch.from_pandas(
            frame.head(len(smoker)).drop(columns="smoker"), preserve_index=False
        )
        a = onnx_rt.featurize(p, base.append_column("smoker", smoker))
        b = onnx_rt.featurize(p, base.append_column("smoker", smoker.dictionary_decode()))
        assert a.shape == b.shape == (len(smoker), p.n_model_features())
        np.testing.assert_array_equal(a, b)
        return a

    def _none_slot(self, p, X):
        (col,) = [i for i, s in enumerate(model_input_slots(p))
                  if s.kind == "onehot" and s.source == "smoker" and s.category == "None"]
        return X[:, col]

    @staticmethod
    def _dict(indices, dictionary, index_type=pa.int8()):
        return pa.DictionaryArray.from_arrays(
            pa.array(indices, index_type), pa.array(dictionary, pa.string())
        )

    def test_null_indices(self, p, frame):
        col = self._dict([0, None, 1, None, 2], ["no", "yes", "quit"])
        X = self._assert_same(p, frame, col)
        np.testing.assert_array_equal(self._none_slot(p, X), [0, 1, 0, 1, 0])

    def test_dictionary_holding_none(self, p, frame):
        X = self._assert_same(p, frame, self._dict([0, 1, 0, 1], ["None", "yes"]))
        np.testing.assert_array_equal(self._none_slot(p, X), [1, 0, 1, 0])

    def test_entries_outside_the_categories(self, p, frame):
        X = self._assert_same(p, frame, self._dict([0, 1, 2, 1, 3], ["never", "no", "?", "~~~~~"]))
        block = X[:, [i for i, s in enumerate(model_input_slots(p))
                      if s.kind == "onehot" and s.source == "smoker"]]
        np.testing.assert_array_equal(block.sum(axis=1), [0, 1, 0, 1, 0])

    def test_unused_entries(self, p, frame):
        self._assert_same(p, frame, self._dict([1, 1, 2], ["quit", "no", "yes", "x", "y"]))

    @pytest.mark.parametrize("index_type", [pa.int8(), pa.int32()])
    def test_index_types(self, p, frame, index_type):
        rng = np.random.default_rng(6)
        indices = rng.integers(0, 5, 300).tolist()
        for i in range(0, 300, 11):
            indices[i] = None
        self._assert_same(
            p, frame, self._dict(indices, ["~", "no", "yes", "quit", "None"], index_type)
        )

    def test_zero_rows(self, p, frame):
        X = self._assert_same(p, frame, self._dict([], ["no", "yes"]))
        label, score = onnx_rt.predict(p.model_node, X)
        assert label.shape == score.shape == (0,)


class TestCategoryRendering:
    """One rule renders a categorical value as a string on every path: NULL
    is ``'None'``, any other value pandas' ``astype(str)`` in its own dtype."""

    def test_rule(self):
        render = onnx_rt.category_strings
        nulls = pd.Series(["a", None, np.nan, pd.NA], dtype=object)
        assert render(nulls).tolist() == ["a", "None", "None", "None"]
        assert render(pd.Series([1, 2])).tolist() == ["1", "2"]
        assert render(pd.Series([1.0, np.nan])).tolist() == ["1.0", "None"]
        assert render(pd.Series([1, None], dtype="Int64")).tolist() == ["1", "None"]

    def test_nan_in_training_scores_alike_from_pandas_and_arrow(self):
        frame = null_category_frame()
        p = null_category_pipeline(frame)
        (onehot,) = [n for n in p.nodes.values() if n.op == "onehot"]
        assert onehot.attrs["categories"] == ["None", "a", "b", "c"]
        label, _ = onnx_rt.run(p, frame)
        np.testing.assert_array_equal(label[frame.c.isna()], 1)
        arrow_label, _ = onnx_rt.run(p, pa.RecordBatch.from_pandas(frame))
        np.testing.assert_array_equal(arrow_label, label)
