"""Subset builders, the sign-rule heuristic, and divergence tabulation."""
from __future__ import annotations

import numpy as np
import pytest

from diagnokit.classifier import Dataset
from diagnokit.divergence import (DivergenceReport, ood_subset,
                                  reports_markdown, run_divergence, save_reports,
                                  symbolic_conflict_subset)
from diagnokit.errors import ValidationError
from diagnokit.report import LlmClient

from oracles import load_reports, logit, sign_rule_predict

NAMES = ("cts:APP|neuron", "beta:APP", "se:APP", "pval:APP")
TAGS = ("cts", "eqtl_beta", "eqtl_se", "eqtl_pval")


def _fv(cts, beta, se=0.05, pval=0.5):
    return [cts, beta, se, pval]


def _ds(rows, sids=None):
    """A dataset over NAMES with one row per entry of ``rows``."""
    sids = tuple(sids or (f"s{i}" for i in range(len(rows))))
    return Dataset(values=np.array(rows, dtype=np.float64), names=NAMES, tags=TAGS,
                   sample_ids=sids)


def _always_ad(url, payload, headers, timeout):
    return {"choices": [{"message": {"content": "DECISION: AD"}}]}


class _ZeroModel:
    """Stand-in classifier hooks are exercised via a real MlpModel in
    test_cli; here we only need forward() semantics, so build a real one."""


def _zero_model(d=4):
    from diagnokit.classifier import HIDDEN1, HIDDEN2, MlpModel
    return MlpModel(w1=np.zeros((HIDDEN1, d)), b1=np.zeros(HIDDEN1),
                    w2=np.zeros((HIDDEN2, HIDDEN1)), b2=np.zeros(HIDDEN2),
                    w3=np.zeros((1, HIDDEN2)), b3=np.zeros(1),
                    mean=np.zeros(d), sd=np.ones(d), kept=np.ones(d, dtype=bool),
                    feature_names=NAMES, feature_tags=TAGS)


class TestSymbolicConflict:
    def test_tabulated_case_qualifies(self):
        # AD-labeled sample with negative effect size BETA=-0.03185
        feats = _ds([_fv(2.0, -0.03185, 0.04911, 0.51671), _fv(1.0, 0.041, 0.061, 0.436)],
                    sids=["case1", "case2"])
        idx = symbolic_conflict_subset(feats, [1, 1])
        assert idx == [0]

    def test_nonad_labels_excluded(self):
        feats = _ds([_fv(1.0, -0.5)] * 4)
        idx = symbolic_conflict_subset(feats, [0, 1, 0, 1])
        assert idx == [1, 3]

    def test_all_positive_beta_raises(self):
        feats = _ds([_fv(1.0, 0.2), _fv(1.0, 0.3)])
        with pytest.raises(ValidationError, match="empty"):
            symbolic_conflict_subset(feats, [1, 1])

    def test_size_cap_preserves_dataset_order(self):
        feats = _ds([_fv(1.0, -0.1)] * 10)
        idx = symbolic_conflict_subset(feats, [1] * 10, size=3)
        assert idx == [0, 1, 2]

    def test_no_beta_features_rejected(self):
        feats = Dataset(values=np.array([[1.0]]), names=("cov:age",), tags=("covariate",),
                        sample_ids=("s0",))
        with pytest.raises(ValidationError, match="eqtl_beta"):
            symbolic_conflict_subset(feats, [1])


class TestOodSubset:
    def test_mean_sample_excluded_extreme_included(self):
        mean = np.zeros(4)
        sd = np.ones(4)
        feats = _ds([_fv(0.0, 0.0, 0.0, 0.0), _fv(2.5, 0.0, 0.0, 0.0)],
                    sids=["center", "far"])
        idx = ood_subset(feats, mean, sd, threshold=2.0)
        assert idx == [1]

    def test_planted_outliers_recovered_exactly(self):
        rng = np.random.default_rng(0)
        mean = np.zeros(4)
        sd = np.ones(4)
        rows = []
        planted = set()
        for i in range(220):
            v = rng.uniform(-0.9, 0.9, 4)  # strictly inside the threshold
            if i % 7 == 3 and len(planted) < 30:
                v[int(rng.integers(4))] = rng.choice([-1.0, 1.0]) * rng.uniform(3, 5)
                planted.add(i)
            rows.append(v)
        feats = _ds(rows)
        idx = ood_subset(feats, mean, sd, threshold=1.0)
        assert set(idx) == planted and len(planted) == 30
        assert ood_subset(feats, mean, sd, size=5, threshold=1.0) == sorted(planted)[:5]

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(1)
        feats = _ds([rng.normal(0, 2, 4) for _ in range(50)])
        loose = ood_subset(feats, np.zeros(4), np.ones(4), threshold=1.0)
        tight = ood_subset(feats, np.zeros(4), np.ones(4), threshold=3.0)
        assert set(tight) <= set(loose)

    def test_stat_validation(self):
        feats = _ds([_fv(0.0, 5.0)])
        with pytest.raises(ValidationError, match="train stats"):
            ood_subset(feats, np.zeros(3), np.ones(3))
        with pytest.raises(ValidationError, match="positive"):
            ood_subset(feats, np.zeros(4), np.zeros(4))


def test_builders_return_every_candidate_by_default():
    feats = _ds([_fv(5.0, -0.1)] * 150)
    every = list(range(150))
    assert symbolic_conflict_subset(feats, [1] * 150) == every
    assert ood_subset(feats, np.zeros(4), np.ones(4)) == every


@pytest.mark.parametrize("builder", ["symbolic-conflict", "ood"])
def test_builders_reject_mixed_feature_names(builder):
    # a Dataset holds one set of names for all its rows, so the builders can
    # no longer meet mixed names; names that do not match the columns are
    # refused when the Dataset is built
    with pytest.raises(ValidationError,
                       match=r"\(2, 4\) do not match 2 sample IDs, 5 feature names"):
        feats = Dataset(values=np.array([_fv(1.0, -0.1), _fv(1.0, -0.2)]),
                        names=NAMES + ("cov:age",), tags=TAGS + ("covariate",),
                        sample_ids=("a", "b"))
        if builder == "ood":
            ood_subset(feats, np.zeros(4), np.ones(4))
        else:
            symbolic_conflict_subset(feats, [1, 1])


class TestSignRule:
    def test_negative_beta_reads_nonad(self):
        assert sign_rule_predict(_ds([_fv(5.0, -0.01)])).tolist() == [0]

    def test_positive_beta_reads_ad(self):
        assert sign_rule_predict(_ds([_fv(-5.0, 0.01)])).tolist() == [1]

    def test_requires_beta_features(self):
        f = Dataset(values=np.array([[1.0]]), names=("cov:x",), tags=("covariate",),
                    sample_ids=("s0",))
        with pytest.raises(ValidationError):
            sign_rule_predict(f)


class TestRunDivergence:
    def test_mlp_accuracy_counts(self):
        model = _zero_model()  # forward == 0.5 -> predicts AD everywhere
        feats = _ds([_fv(0.0, -0.1), _fv(0.0, -0.2), _fv(0.0, -0.3)], sids=["a", "b", "c"])
        labels = [1, 0, 1]
        reports = run_divergence(model, feats, labels, {"conflict": [0, 1, 2]})
        assert len(reports) == 1
        assert reports[0].mlp_accuracy == pytest.approx(2.0 / 3.0)
        assert reports[0].llm_accuracy is None
        assert [r["sample"] for r in reports[0].case_table] == ["a", "b", "c"]

    def test_predictions_match_single_sample_forward(self):
        from diagnokit.classifier import HIDDEN1, HIDDEN2, MlpModel, forward
        rng = np.random.default_rng(3)
        w = dict(w1=rng.standard_normal((HIDDEN1, 4)), b1=rng.standard_normal(HIDDEN1),
                 w2=rng.standard_normal((HIDDEN2, HIDDEN1)),
                 b2=rng.standard_normal(HIDDEN2), w3=rng.standard_normal((1, HIDDEN2)),
                 mean=np.zeros(4), sd=np.ones(4), kept=np.ones(4, dtype=bool),
                 feature_names=NAMES, feature_tags=TAGS)
        feats = _ds([_fv(*rng.standard_normal(4)) for _ in range(40)])
        # centre the logits so that both classes are predicted
        model = MlpModel(**w, b3=np.zeros(1))
        model = MlpModel(**w, b3=-np.array([np.median([logit(model, x) for x in feats.values])]))
        labels = rng.integers(0, 2, 40)
        idx = [int(i) for i in rng.choice(40, 25, replace=False)]
        report = run_divergence(model, feats, labels, {"some": idx})[0]
        want = [int(forward(model, feats.values[i]) >= 0.5) for i in idx]
        assert 0 < sum(want) < len(want)
        assert [r["mlp_pred"] for r in report.case_table] == want
        assert report.mlp_accuracy == sum(p == labels[i] for p, i in zip(want, idx)) / 25

    def test_llm_column_with_mock_client(self):
        model = _zero_model()
        client = LlmClient(url="http://example.test", api_key="", post=_always_ad)
        feats = _ds([_fv(0.0, -0.1), _fv(0.0, 0.1)], sids=["a", "b"])
        reports = run_divergence(model, feats, [1, 1], {"all": [0, 1]}, client)
        assert reports[0].llm_accuracy == 1.0  # mock always answers AD
        assert all(r["llm_pred"] == 1 for r in reports[0].case_table)

    @pytest.mark.parametrize("reply", ["raises", "no_decision"])
    def test_llm_column_without_a_parsed_decision(self, reply):
        def post(url, payload, headers, timeout):
            if reply == "raises":
                raise ConnectionError("endpoint down")
            return {"choices": [{"message": {"content": "Probably AD, hard to say."}}]}

        client = LlmClient(url="http://example.test", api_key="", post=post)
        feats = _ds([_fv(0.0, -0.1), _fv(0.0, 0.1)], sids=["a", "b"])
        report = run_divergence(_zero_model(), feats, [1, 0], {"all": [0, 1]}, client)[0]
        # each case keeps the column, empty; no call parsed, so no accuracy
        assert [r["llm_pred"] for r in report.case_table] == [None, None]
        assert report.llm_accuracy is None
        assert report.mlp_accuracy == 0.5

    def test_empty_subset_rejected(self):
        model = _zero_model()
        with pytest.raises(ValidationError):
            run_divergence(model, _ds([_fv(0.0, 0.1)]), [1], {"empty": []})

    def test_size_cuts_each_subset_and_counts_its_candidates(self):
        feats = _ds([_fv(0.0, -0.1) for _ in range(5)])
        subsets = {"all": [0, 1, 2, 3, 4], "two": [3, 4]}
        reports = run_divergence(_zero_model(), feats, [1] * 5, subsets, size=3)
        assert [(r.subset_size, r.candidates) for r in reports] == [(3, 5), (2, 2)]
        assert [row["sample"] for row in reports[0].case_table] == ["s0", "s1", "s2"]
        assert run_divergence(_zero_model(), feats, [1] * 5, subsets)[0].candidates == 5
        with pytest.raises(ValidationError, match="size must be positive"):
            run_divergence(_zero_model(), feats, [1] * 5, subsets, size=0)


def test_reports_roundtrip(tmp_path):
    reports = [DivergenceReport(subset_name="conflict", subset_size=2, candidates=3,
                                mlp_accuracy=0.5, llm_accuracy=None,
                                case_table=({"sample": "a", "features": {"x": 1.0},
                                             "label": 1, "mlp_pred": 0},))]
    path = tmp_path / "div.json"
    save_reports(reports, path)
    loaded = load_reports(path)
    assert loaded == reports


def test_reports_markdown_columns():
    reports = [DivergenceReport(
        subset_name="conflict", subset_size=1, candidates=1, mlp_accuracy=1.0,
        llm_accuracy=0.0,
        case_table=({"sample": "case1", "features": {"beta:APP": -0.03185},
                     "label": 1, "mlp_pred": 1, "llm_pred": 0},))]
    md = reports_markdown(reports)
    assert md.splitlines()[0] == "| Case | Features | Label | MLP | LLM | Key Insight |"
    assert "| conflict:case1 | beta:APP=-0.03185 | AD | AD | nonAD |  |" in md
