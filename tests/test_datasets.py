"""Dataset generators: Table-1 exactness, FK integrity, determinism,
learnability, and the Hospital §4.2 correlations."""
import numpy as np
import pandas as pd
import pytest

from repro.data import datasets as ds
from repro.runtime import onnx_rt

# Table 1 of the paper, verbatim.
TABLE1 = {
    "creditcard": {"tables": 1, "num": 28, "cat": 0, "enc_num": 28, "enc_cat": 0},
    "hospital": {"tables": 1, "num": 9, "cat": 15, "enc_num": 9, "enc_cat": 50},
    "expedia": {"tables": 3, "num": 8, "cat": 20, "enc_num": 8, "enc_cat": 3957},
    "flights": {"tables": 4, "num": 4, "cat": 33, "enc_num": 4, "enc_cat": 6471},
}


class TestTable1Exactness:
    @pytest.mark.parametrize("name", ds.DATASETS)
    def test_spec_matches_table1(self, name):
        spec = ds.get_spec(name)
        row = TABLE1[name]
        assert spec.n_tables == row["tables"]
        assert len(spec.num_cols) == row["num"]
        assert len(spec.cat_cols) == row["cat"]
        n_num, n_cat = spec.n_features_encoded
        assert n_num == row["enc_num"]
        assert n_cat == row["enc_cat"]

    @pytest.mark.parametrize("name", ds.DATASETS)
    def test_generated_columns_match_spec(self, name):
        spec = ds.get_spec(name)
        joined = ds.joined_frame(name, 500, seed=1)
        for c in spec.input_cols:
            assert c in joined.columns, f"{name}: missing {c}"
        assert ds.LABEL in joined.columns

    @pytest.mark.parametrize("name", ["hospital", "expedia", "flights"])
    def test_domains_cover_generated_values(self, name):
        spec = ds.get_spec(name)
        joined = ds.joined_frame(name, 2000, seed=2)
        for c, dom in spec.cat_domains.items():
            assert set(joined[c].astype(str).unique()) <= set(dom)

    @pytest.mark.parametrize("name", ["expedia", "flights"])
    def test_dim_tables_cover_full_domain(self, name):
        """Every category must exist so encoded feature counts are exact."""
        spec = ds.get_spec(name)
        tables = ds.generate(name, 100, seed=0)
        dim_cols = set()
        for j in spec.joins:
            dim = tables[j.dim_table]
            for c in dim.columns:
                if c in spec.cat_domains:
                    dim_cols.add(c)
                    assert set(dim[c].astype(str)) == set(spec.cat_domains[c]), c
        assert dim_cols  # joins actually carry categorical features


class TestIntegrity:
    @pytest.mark.parametrize("name", ["expedia", "flights"])
    def test_fk_integrity(self, name):
        spec = ds.get_spec(name)
        tables = ds.generate(name, 3000, seed=3)
        fact = tables[spec.fact]
        for j in spec.joins:
            dim_keys = set(tables[j.dim_table][j.dim_key])
            assert set(fact[j.fact_key]) <= dim_keys
            assert tables[j.dim_table][j.dim_key].is_unique

    @pytest.mark.parametrize("name", ["expedia", "flights"])
    def test_join_preserves_fact_rows(self, name):
        joined = ds.joined_frame(name, 2500, seed=4)
        assert len(joined) == 2500

    @pytest.mark.parametrize("name", ds.DATASETS)
    def test_deterministic(self, name):
        a = ds.joined_frame(name, 300, seed=7)
        b = ds.joined_frame(name, 300, seed=7)
        pd.testing.assert_frame_equal(
            a.sort_index(axis=1), b.sort_index(axis=1)
        )

    @pytest.mark.parametrize("name", ds.DATASETS)
    def test_label_roughly_balanced(self, name):
        joined = ds.joined_frame(name, 4000, seed=5)
        rate = joined[ds.LABEL].mean()
        assert 0.35 < rate < 0.65


class TestHospitalCorrelations:
    """The structures Table 2 / Fig 11 rely on."""

    @pytest.fixture(scope="class")
    def hospital(self):
        return ds.generate("hospital", 6000, seed=11)["hospital"]

    def test_issue_flags_constant_in_no_issue_partition(self, hospital):
        part = hospital[hospital.num_issues == "0"]
        for flag in ["asthma", "irondef", "pneum", "depress"]:
            assert set(part[flag]) == {"0"}

    def test_num_issues_consistent_with_flags(self, hospital):
        flags = (hospital[["asthma", "irondef", "pneum", "depress"]] == "1").any(axis=1)
        assert (hospital.num_issues == np.where(flags, "1", "0")).all()

    def test_labs_bucketed_by_rcount(self, hospital):
        for r, part in hospital.groupby("rcount"):
            k = int(r[1:])
            assert part.bloodureanitro.min() >= 12 * k
            assert part.bloodureanitro.max() <= 12 * (k + 1)

    def test_six_rcount_partitions_two_numissue(self, hospital):
        assert hospital.rcount.nunique() == 6
        assert hospital.num_issues.nunique() == 2


class TestLearnability:
    @pytest.mark.parametrize("name", ["creditcard", "hospital"])
    def test_models_beat_chance_clearly(self, name):
        spec = ds.get_spec(name)
        frame = ds.joined_frame(name, 4000, seed=21)
        from repro.ml.pipeline import fit_pipeline

        p = fit_pipeline(
            frame, spec.num_cols, spec.cat_cols, ds.LABEL, "dt", max_depth=8,
            cat_domains=spec.cat_domains or None,
        )
        assert (onnx_rt.run(p, frame)[0] == frame[ds.LABEL]).mean() > 0.7

    def test_deeper_hospital_trees_use_more_inputs(self):
        """The Fig 10 x-axis: unused-column count falls with depth."""
        from repro.core.projection_pushdown import apply_projection_pushdown
        from repro.ml.pipeline import fit_pipeline

        spec = ds.get_spec("hospital")
        frame = ds.joined_frame("hospital", 6000, seed=22)
        unused = []
        for depth in (3, 8, 15):
            p = fit_pipeline(
                frame, spec.num_cols, spec.cat_cols, ds.LABEL, "dt",
                max_depth=depth, cat_domains=spec.cat_domains,
            )
            res = apply_projection_pushdown(p)
            unused.append(len(res.removed_cols))
        assert unused[0] > unused[-1]
        assert unused[0] >= 5
