"""MLP forward/backward oracles, Integrated Gradients, and training behavior."""
from __future__ import annotations

import numpy as np
import pytest

from diagnokit.classifier import (HIDDEN1, HIDDEN2, Dataset, MlpModel,
                                  TrainConfig, backprop_gradient, bce_loss,
                                  build_features, forward, integrated_gradients,
                                  load_dataset, load_eqtl_table, load_model, logit,
                                  save_dataset, save_eqtl_table, save_model,
                                  top_k_features, train)
from diagnokit.errors import ParseError, ValidationError
from diagnokit.types import CtsTensor, PairSelection, pair_key


def _model(rng, d, scale=0.4, mean=None, sd=None, kept=None):
    return MlpModel(
        w1=rng.standard_normal((HIDDEN1, d)) * scale,
        b1=rng.standard_normal(HIDDEN1) * 0.1,
        w2=rng.standard_normal((HIDDEN2, HIDDEN1)) * scale,
        b2=rng.standard_normal(HIDDEN2) * 0.1,
        w3=rng.standard_normal((1, HIDDEN2)) * scale,
        b3=rng.standard_normal(1) * 0.1,
        mean=np.zeros(d) if mean is None else mean,
        sd=np.ones(d) if sd is None else sd,
        kept=np.ones(d, dtype=bool) if kept is None else kept,
        feature_names=tuple(f"f{i}" for i in range(d)),
        feature_tags=("cts",) * d)


def _linear_model(weights):
    """Arrange the net so every ReLU stays active: one pass-through per input."""
    d = len(weights)
    w1 = np.zeros((HIDDEN1, d))
    w1[:d, :d] = np.eye(d)
    w2 = np.zeros((HIDDEN2, HIDDEN1))
    w2[:d, :d] = np.eye(d)
    w3 = np.zeros((1, HIDDEN2))
    w3[0, :d] = weights
    return MlpModel(w1=w1, b1=np.full(HIDDEN1, 100.0), w2=w2,
                    b2=np.full(HIDDEN2, 100.0), w3=w3,
                    b3=np.zeros(1), mean=np.zeros(d), sd=np.ones(d),
                    kept=np.ones(d, dtype=bool),
                    feature_names=tuple(f"f{i}" for i in range(d)),
                    feature_tags=("cts",) * d)


def _blob_data(rng, n=100, d=2, margin=2.0):
    xs = np.vstack([rng.normal(-margin, 0.5, (n, d)),
                    rng.normal(margin, 0.5, (n, d))])
    ys = np.array([0] * n + [1] * n)
    names = tuple(f"f{i}" for i in range(d))
    feats = Dataset(values=xs, names=names, tags=("covariate",) * d,
                    sample_ids=tuple(f"s{i}" for i in range(2 * n)))
    return feats, ys


class TestForward:
    def test_all_zero_weights_give_half(self):
        rng = np.random.default_rng(0)
        m = _model(rng, 3, scale=0.0)
        m = MlpModel(w1=np.zeros((HIDDEN1, 3)), b1=np.zeros(HIDDEN1),
                     w2=np.zeros((HIDDEN2, HIDDEN1)), b2=np.zeros(HIDDEN2),
                     w3=np.zeros((1, HIDDEN2)), b3=np.zeros(1),
                     mean=np.zeros(3), sd=np.ones(3), kept=np.ones(3, dtype=bool),
                     feature_names=("a", "b", "c"), feature_tags=("cts",) * 3)
        assert forward(m, np.array([5.0, -2.0, 0.1])) == 0.5

    def test_hand_evaluation_small_model(self):
        d = 2
        w1 = np.zeros((HIDDEN1, d))
        w1[0] = [1.0, 0.0]
        w1[1] = [0.0, -1.0]
        w2 = np.zeros((HIDDEN2, HIDDEN1))
        w2[0, 0] = 2.0
        w2[0, 1] = 1.0
        w3 = np.zeros((1, HIDDEN2))
        w3[0, 0] = 0.5
        m = MlpModel(w1=w1, b1=np.zeros(HIDDEN1), w2=w2, b2=np.zeros(HIDDEN2),
                     w3=w3, b3=np.array([0.25]), mean=np.zeros(d), sd=np.ones(d),
                     kept=np.ones(d, dtype=bool), feature_names=("a", "b"),
                     feature_tags=("cts", "cts"))
        # x = [3, -2]: h1 = [3, 2], h2[0] = 8, logit = 4.25
        x = np.array([3.0, -2.0])
        assert logit(m, x) == pytest.approx(4.25, abs=1e-12)
        assert forward(m, x) == pytest.approx(1.0 / (1.0 + np.exp(-4.25)), abs=1e-12)

    def test_inference_is_seed_independent(self):
        rng = np.random.default_rng(1)
        m = _model(rng, 4)
        x = rng.standard_normal(4)
        assert forward(m, x, training=False, seed=1) == forward(
            m, x, training=False, seed=99)

    def test_training_dropout_changes_output(self):
        rng = np.random.default_rng(2)
        m = _model(rng, 4)
        x = rng.standard_normal(4)
        outs = {forward(m, x, training=True, seed=s) for s in range(5)}
        assert len(outs) > 1

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(3)
        m = _model(rng, 4)
        with pytest.raises(ValidationError):
            forward(m, np.zeros(5))


class TestBackprop:
    def test_finite_difference_oracle_20_instances(self):
        rng = np.random.default_rng(4)
        h = 1e-5
        for trial in range(20):
            d = int(rng.integers(2, 7))
            m = _model(rng, d)
            x = rng.standard_normal(d)
            y = float(rng.integers(0, 2))
            grads = backprop_gradient(m, x, y)
            weights = {k: getattr(m, k) for k in ("w1", "b1", "w2", "b2", "w3", "b3")}
            kw = dict(mean=m.mean, sd=m.sd, kept=m.kept,
                      feature_names=m.feature_names, feature_tags=m.feature_tags)
            # spot-check a handful of coordinates per instance
            for name in grads:
                arr = weights[name]
                flat = rng.choice(arr.size, size=min(4, arr.size), replace=False)
                for fi in flat:
                    idx = np.unravel_index(fi, arr.shape)
                    p1 = arr.copy()
                    p1[idx] += h
                    p2 = arr.copy()
                    p2[idx] -= h
                    fd = (bce_loss(MlpModel(**{**weights, name: p1}, **kw), x, y)
                          - bce_loss(MlpModel(**{**weights, name: p2}, **kw), x, y)
                          ) / (2 * h)
                    denom = max(abs(fd), abs(grads[name][idx]), 1e-8)
                    assert abs(fd - grads[name][idx]) / denom < 1e-4

    def test_gradient_vanishes_at_perfect_prediction(self):
        m = _linear_model([10.0])
        x = np.array([50.0])  # logit 500 -> p ~ 1
        grads = backprop_gradient(m, x, 1.0)
        norm = np.sqrt(sum(float((g ** 2).sum()) for g in grads.values()))
        assert norm < 1e-6


class TestIntegratedGradients:
    def test_zero_at_baseline(self):
        rng = np.random.default_rng(5)
        m = _model(rng, 4)
        x = rng.standard_normal(4)
        assert np.array_equal(integrated_gradients(m, x, x), np.zeros(4))

    def test_linear_closed_form(self):
        w = [1.5, -2.0, 0.5]
        m = _linear_model(w)
        x = np.array([0.3, -0.7, 2.0])
        base = np.array([0.1, 0.2, -0.4])
        attr = integrated_gradients(m, x, base)
        assert np.abs(attr - np.array(w) * (x - base)).max() < 1e-8

    def test_completeness_exact_method(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            d = int(rng.integers(2, 8))
            m = _model(rng, d, scale=0.6)
            x = rng.standard_normal(d) * 2
            base = rng.standard_normal(d)
            attr = integrated_gradients(m, x, base)
            assert abs(attr.sum() - (logit(m, x) - logit(m, base))) < 1e-9

    def test_midpoint_converges_to_exact(self):
        rng = np.random.default_rng(7)
        m = _model(rng, 5, scale=0.5)
        x = rng.standard_normal(5)
        exact = integrated_gradients(m, x)
        errs = [np.abs(integrated_gradients(m, x, steps=s, method="midpoint")
                       - exact).max() for s in (10, 100, 1000)]
        assert errs[2] < errs[0]
        assert errs[2] < 1e-3

    def test_baseline_dimension_mismatch(self):
        rng = np.random.default_rng(8)
        m = _model(rng, 3)
        with pytest.raises(ValidationError):
            integrated_gradients(m, np.zeros(3), np.zeros(4))


class TestTopK:
    def test_magnitude_ordering(self):
        out = top_k_features([0.5, -0.9, 0.1], ["a", "b", "c"], k=2)
        assert [o[0] for o in out] == ["b", "a"]

    def test_tie_breaks_lexicographic(self):
        out = top_k_features([0.5, -0.5], ["zz", "aa"], k=2)
        assert [o[0] for o in out] == ["aa", "zz"]

    def test_k_too_large(self):
        with pytest.raises(ValidationError):
            top_k_features([1.0], ["a"], k=2)


class TestTrain:
    def test_separable_blobs_accuracy(self):
        rng = np.random.default_rng(9)
        feats, ys = _blob_data(rng)
        res = train(feats, ys, TrainConfig(seed=1, max_epochs=100))
        acc = np.mean([(forward(res.model, x) >= 0.5) == bool(y)
                       for x, y in zip(feats.values, ys)])
        assert acc >= 0.99

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(10)
        feats, ys = _blob_data(rng, n=30)
        a = train(feats, ys, TrainConfig(seed=5, max_epochs=10))
        b = train(feats, ys, TrainConfig(seed=5, max_epochs=10))
        for k in ("w1", "b1", "w2", "b2", "w3", "b3"):
            assert np.array_equal(getattr(a.model, k), getattr(b.model, k))

    def test_max_epochs_zero_returns_init(self):
        rng = np.random.default_rng(11)
        feats, ys = _blob_data(rng, n=10)
        res = train(feats, ys, TrainConfig(seed=0, max_epochs=0))
        assert res.log == []

    def test_single_class_rejected(self):
        rng = np.random.default_rng(12)
        feats, _ = _blob_data(rng, n=10)
        with pytest.raises(ValidationError, match="per class"):
            train(feats, np.ones(len(feats.sample_ids)), TrainConfig())

    def test_standardization_statistics(self):
        rng = np.random.default_rng(13)
        feats, ys = _blob_data(rng, n=40)
        res = train(feats, ys, TrainConfig(seed=2, max_epochs=1, val_fraction=0.2))
        x = feats.values
        # reconstruct the training split deterministically via the model stats
        xhat = (x[:, res.model.kept] - res.model.mean) / res.model.sd
        # standardized features have roughly zero mean / unit sd overall
        assert np.abs(xhat.mean(axis=0)).max() < 0.5
        assert np.abs(xhat.std(axis=0) - 1.0).max() < 0.5

    def test_zero_variance_feature_dropped(self):
        rng = np.random.default_rng(14)
        feats, ys = _blob_data(rng, n=20)
        feats = Dataset(values=np.column_stack([feats.values, np.full(len(ys), 7.0)]),
                        names=feats.names + ("const",), tags=feats.tags + ("covariate",),
                        sample_ids=feats.sample_ids)
        res = train(feats, ys, TrainConfig(seed=3, max_epochs=2))
        assert res.dropped_features == ("const",)
        assert res.model.input_dim == 2
        # inference still accepts the full-width vector
        forward(res.model, feats.values[0])

    def test_constant_eqtl_columns_dropped_and_ig_complete(self):
        # build_features repeats each gene's eQTL triple in every sample; the
        # sd of such a column can come out ~1e-17 instead of 0, and keeping it
        # would standardize rounding noise into O(1) inputs
        rng = np.random.default_rng(21)
        genes, cell_types = [f"g{k}" for k in range(4)], ["ct1", "ct2"]
        samples = [f"s{i:03d}" for i in range(90)]
        mean = rng.normal(1.0, 1.0, (len(genes), len(cell_types), len(samples)))
        tensor = CtsTensor(genes=genes, cell_types=cell_types, samples=samples,
                           mean=mean, variance=np.zeros_like(mean))
        pairs = {(g, c) for g in genes for c in cell_types}
        sel = PairSelection(pairs=frozenset(pairs),
                            provenance={pair_key(*p): "marker" for p in pairs},
                            scores={pair_key(*p): 0.0 for p in pairs})
        eqtl = {g: (0.1 * (k + 1), 0.07 * (k + 1), 0.3 / (k + 1))
                for k, g in enumerate(genes)}
        feats = build_features(tensor, sel, eqtl)
        labels = (mean[0, 0] > 1.0).astype(int)
        res = train(feats, labels, TrainConfig(seed=2, max_epochs=5))
        eqtl_names = {n for n, t in zip(feats.names, feats.tags)
                      if t.startswith("eqtl")}
        assert len(eqtl_names) == 3 * len(genes)
        assert eqtl_names <= set(res.dropped_features)
        m = res.model
        for x in feats.values:
            base = x.copy()
            base[m.kept] = m.mean
            gap = logit(m, x) - logit(m, base)
            assert abs(integrated_gradients(m, x).sum() - gap) < 1e-9

    def test_early_stopping_on_unlearnable_labels(self):
        # random labels: validation loss cannot keep improving, so training
        # must halt well before the epoch budget
        rng = np.random.default_rng(15)
        feats, _ = _blob_data(rng, n=30)
        ys = rng.integers(0, 2, len(feats.sample_ids))
        while ys.sum() < 2 or ys.sum() > len(ys) - 2:
            ys = rng.integers(0, 2, len(feats.sample_ids))
        res = train(feats, ys, TrainConfig(seed=4, max_epochs=500, patience=3))
        assert len(res.log) < 500


@pytest.mark.parametrize("change,message", [
    ({"values": np.ones((2, 3))}, r"shape \(2, 3\) do not match 2 sample IDs, 2 names"),
    ({"tags": ("cts",)}, "2 names and 1 tags"),
    ({"sample_ids": ("s0",)}, "do not match 1 sample IDs"),
    ({"names": ("a", "a")}, "feature names must be unique"),
    ({"sample_ids": ("s0", "s0")}, "duplicate sample ID: 's0'"),
    ({"tags": ("cts", "gwas")}, r"unknown feature tags: \['gwas'\]"),
    ({"values": np.array([[1.0, 2.0], [np.nan, 3.0]])}, "feature values must be finite"),
], ids=["values_shape", "tags_length", "ids_length", "duplicate_name", "duplicate_id",
        "unknown_tag", "non_finite"])
def test_dataset_rejects(change, message):
    fields = dict(values=np.ones((2, 2)), names=("a", "b"), tags=("cts", "covariate"),
                  sample_ids=("s0", "s1"))
    Dataset(**fields)
    with pytest.raises(ValidationError, match=message):
        Dataset(**{**fields, **change})


def test_dataset_take_reorders_columns_by_name():
    feats = Dataset(values=np.arange(6.0).reshape(2, 3), names=("a", "b", "c"),
                    tags=("cts", "eqtl_beta", "covariate"), sample_ids=("s0", "s1"))
    taken = feats.take(["c", "a"])
    assert taken.names == ("c", "a") and taken.tags == ("covariate", "cts")
    assert np.array_equal(taken.values, [[2.0, 0.0], [5.0, 3.0]])
    assert taken.sample_ids == feats.sample_ids
    with pytest.raises(ValidationError, match="dataset has no feature 'd'"):
        feats.take(["a", "d"])


def test_model_rejects_tags_that_do_not_match_names():
    m = _model(np.random.default_rng(16), 3)
    fields = {k: getattr(m, k) for k in ("w1", "b1", "w2", "b2", "w3", "b3", "mean", "sd",
                                         "kept", "feature_names")}
    with pytest.raises(ValidationError, match="2 feature tags for 3 feature names"):
        MlpModel(**fields, feature_tags=("cts", "cts"))


class TestBuildFeatures:
    def _tensor(self):
        return CtsTensor(genes=["g1", "g2"], cell_types=["ct1"],
                         samples=["s1", "s2"],
                         mean=np.array([[[1.0, 2.0]], [[3.0, 4.0]]]),
                         variance=np.zeros((2, 1, 2)))

    def _selection(self, pairs):
        return PairSelection(pairs=frozenset(pairs),
                             provenance={pair_key(g, c): "marker" for g, c in pairs},
                             scores={pair_key(g, c): 0.0 for g, c in pairs})

    def test_arity_arithmetic(self):
        # 1 pair + 1 gene with (BETA, SE, PVAL) + 2 covariates = 6 features
        sel = self._selection({("g1", "ct1")})
        eqtl = {"g1": (0.1, 0.2, 0.3)}
        cov = {"s1": {"age": 70.0, "sex": 1.0}, "s2": {"age": 65.0, "sex": 0.0}}
        feats = build_features(self._tensor(), sel, eqtl, cov)
        assert feats.values.shape == (2, 6)
        assert feats.tags == ("cts", "eqtl_beta", "eqtl_se", "eqtl_pval",
                                 "covariate", "covariate")

    def test_eqtl_values_appear_verbatim(self):
        sel = self._selection({("g1", "ct1")})
        eqtl = {"g1": (0.041, 0.061, 0.436)}
        feats = build_features(self._tensor(), sel, eqtl)
        x = feats.values[0]
        assert x[feats.names.index("beta:g1")] == 0.041
        assert x[feats.names.index("se:g1")] == 0.061
        assert x[feats.names.index("pval:g1")] == 0.436

    def test_missing_eqtl_gene_recorded(self):
        sel = self._selection({("g1", "ct1"), ("g2", "ct1")})
        missing: list[str] = []
        feats = build_features(self._tensor(), sel, {"g1": (0.1, 0.2, 0.3)},
                               missing_genes=missing)
        assert missing == ["g2"]
        assert "beta:g2" not in feats.names

    def test_sample_order_equivariance(self):
        sel = self._selection({("g1", "ct1")})
        eqtl = {"g1": (0.1, 0.2, 0.3)}
        t = self._tensor()
        flipped = CtsTensor(genes=t.genes, cell_types=t.cell_types,
                            samples=["s2", "s1"], mean=t.mean[:, :, ::-1],
                            variance=t.variance)
        a = build_features(t, sel, eqtl)
        b = build_features(flipped, sel, eqtl)
        assert a.sample_ids[0] == b.sample_ids[1]
        assert np.array_equal(a.values[0], b.values[1])

    def test_covariate_sample_mismatch(self):
        sel = self._selection({("g1", "ct1")})
        with pytest.raises(ValidationError, match="missing samples"):
            build_features(self._tensor(), sel, {}, {"s1": {"age": 1.0}})


class TestSerialization:
    def test_model_roundtrip(self, tmp_path):
        rng = np.random.default_rng(16)
        m = _model(rng, 5)
        save_model(m, tmp_path / "m.json")
        loaded = load_model(tmp_path / "m.json")
        for k in ("w1", "b1", "w2", "b2", "w3", "b3", "mean", "sd"):
            assert np.allclose(getattr(loaded, k), getattr(m, k), atol=0)
        assert loaded.feature_names == m.feature_names
        x = rng.standard_normal(5)
        assert forward(loaded, x) == forward(m, x)

    def test_dataset_roundtrip(self, tmp_path):
        rng = np.random.default_rng(17)
        feats, ys = _blob_data(rng, n=5)
        save_dataset(feats, ys, tmp_path / "d.tsv")
        loaded, ys2 = load_dataset(tmp_path / "d.tsv")
        assert np.array_equal(ys, ys2)
        assert loaded.sample_ids == feats.sample_ids
        assert loaded.names == feats.names and loaded.tags == feats.tags
        assert np.array_equal(loaded.values, feats.values)

    def test_dataset_values_parse_like_float(self, tmp_path):
        rng = np.random.default_rng(18)
        texts = [repr(float(v)) for v in
                 rng.standard_normal(200) * 10.0 ** rng.integers(-300, 300, 200)]
        texts += ["5e-324", "-0.0", "1.7976931348623157e308", "0.1", "1E-3", "+2.5",
                  ".5", "5.", "2.2250738585072011e-308", "0.30000000000000004"]
        rows = [texts[i:i + 3] for i in range(0, len(texts) - 2, 3)]
        lines = ["sample\ta\tb\tc\tlabel", "#tags\tcts\tcts\tcts\t-"]
        lines += [f"s#{i}\t" + "\t".join(r) + f"\t{i % 2}" for i, r in enumerate(rows)]
        (tmp_path / "d.tsv").write_text("\n".join(lines) + "\n")
        feats, ys = load_dataset(tmp_path / "d.tsv")
        assert feats.sample_ids == tuple(f"s#{i}" for i in range(len(rows)))
        assert ys.tolist() == [i % 2 for i in range(len(rows))]
        for x, r in zip(feats.values, rows):
            assert x.tobytes() == np.array([float(t) for t in r]).tobytes()

    def test_eqtl_table_roundtrip(self, tmp_path):
        table = {"g1": (-0.03185, 0.04911, 0.51671), "g2": (0.041, 0.061, 0.436)}
        save_eqtl_table(table, tmp_path / "e.tsv")
        assert load_eqtl_table(tmp_path / "e.tsv") == table

    @pytest.mark.parametrize("row,message", [
        ("g1\t0.1\t0.2\t0.3", "line 4: duplicate gene 'g1'"),
        ("g3\tnan\t0.2\t0.3", "line 4: non-finite"),
        ("g3\t0.1\tinf\t0.3", "line 4: non-finite"),
        ("g3\t0.1\t0.2\t-inf", "line 4: non-finite"),
    ], ids=["duplicate", "nan_beta", "inf_se", "minus_inf_pval"])
    def test_eqtl_table_rejects_repeat_and_non_finite(self, tmp_path, row, message):
        lines = ["gene\tbeta\tse\tpval", "g1\t0.1\t0.2\t0.3", "g2\t0.1\t0.2\t0.3", row]
        (tmp_path / "e.tsv").write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=message):
            load_eqtl_table(tmp_path / "e.tsv")
