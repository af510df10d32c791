"""The batched MLP kernels against the per-sample code they replaced.

The reference functions below are the former one-sample-at-a-time forward
pass, backpropagation, dropout draws, training loop and Integrated Gradients
quadrature, kept verbatim as the oracle. Batching changes only the summation
order, so agreement is required to 1e-12.
"""
from __future__ import annotations

import math

import numpy as np
import pytest

from diagnokit import classifier as clf
from diagnokit.classifier import (HIDDEN1, HIDDEN2, Dataset, MlpModel,
                                  TrainConfig, backprop_gradient, bce_loss,
                                  build_features, forward, input_gradient,
                                  integrated_gradients, logit, train)
from diagnokit.types import CtsTensor, PairSelection, pair_key

TOL = 1e-12
WEIGHTS = ("w1", "b1", "w2", "b2", "w3", "b3")


# ------------------------------------------------------- per-sample reference

def _standardize_ref(model, x):
    return (x[model.kept] - model.mean) / model.sd


def _forward_parts_ref(model, xhat, masks=None):
    a1 = model.w1 @ xhat + model.b1
    h1 = np.maximum(a1, 0.0)
    if masks is not None:
        h1 = h1 * masks[0]
    a2 = model.w2 @ h1 + model.b2
    h2 = np.maximum(a2, 0.0)
    if masks is not None:
        h2 = h2 * masks[1]
    lg = float((model.w3 @ h2 + model.b3)[0])
    return a1, h1, a2, h2, lg


def _dropout_masks_ref(model, rng):
    rate = model.dropout_rate
    if rate == 0.0:
        return np.ones(HIDDEN1), np.ones(HIDDEN2)
    scale = 1.0 / (1.0 - rate)
    return ((rng.random(HIDDEN1) >= rate) * scale,
            (rng.random(HIDDEN2) >= rate) * scale)


def _sigmoid_ref(t):
    if t >= 0:
        return 1.0 / (1.0 + math.exp(-t))
    e = math.exp(t)
    return e / (1.0 + e)


def _backprop_ref(model, xhat, y, masks=None):
    a1, h1, a2, h2, lg = _forward_parts_ref(model, xhat, masks)
    p = _sigmoid_ref(lg)
    eps = 1e-12
    loss = -(y * math.log(p + eps) + (1.0 - y) * math.log(1.0 - p + eps))
    dlogit = p - y
    gw3 = dlogit * h2[None, :]
    gb3 = np.array([dlogit])
    dh2 = dlogit * model.w3[0]
    if masks is not None:
        dh2 = dh2 * masks[1]
    da2 = dh2 * (a2 > 0)
    gw2 = np.outer(da2, h1)
    gb2 = da2
    dh1 = model.w2.T @ da2
    if masks is not None:
        dh1 = dh1 * masks[0]
    da1 = dh1 * (a1 > 0)
    gw1 = np.outer(da1, xhat)
    gb1 = da1
    return {"w1": gw1, "b1": gb1, "w2": gw2, "b2": gb2, "w3": gw3, "b3": gb3}, loss


def _input_gradient_ref(model, raw):
    xhat = _standardize_ref(model, raw)
    a1, h1, a2, h2, _ = _forward_parts_ref(model, xhat)
    dh2 = model.w3[0].copy()
    da2 = dh2 * (a2 > 0)
    dh1 = model.w2.T @ da2
    da1 = dh1 * (a1 > 0)
    dxhat = model.w1.T @ da1
    g = np.zeros(model.kept.size)
    g[model.kept] = dxhat / model.sd
    return g


def train_reference(dataset, labels, config):
    """The former training loop: one backprop per sample, a fresh MlpModel
    after every minibatch, and a per-sample validation loss."""
    y = np.asarray(labels, dtype=np.float64)
    x_raw = dataset.values
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(config.seed, 0x3C1)))
    train_idx, val_idx = clf._stratified_split(y, config.val_fraction, rng)
    mean_all = x_raw[train_idx].mean(axis=0)
    sd_all = x_raw[train_idx].std(axis=0, ddof=0)
    kept = np.ptp(x_raw[train_idx], axis=0) > 0
    d = int(kept.sum())
    params = clf._he_init(rng, d)
    model_kw = dict(mean=mean_all[kept], sd=sd_all[kept], kept=kept,
                    feature_names=dataset.names, feature_tags=dataset.tags,
                    dropout_rate=config.dropout_rate)

    def make_model(p):
        return MlpModel(**{k: v.copy() for k, v in p.items()}, **model_kw)

    log = []
    if config.max_epochs == 0:
        return make_model(params), log
    xhat = (x_raw[:, kept] - mean_all[kept]) / sd_all[kept]
    m_t = {k: np.zeros_like(v) for k, v in params.items()}
    v_t = {k: np.zeros_like(v) for k, v in params.items()}
    step = 0
    best_val = math.inf
    best_params = {k: v.copy() for k, v in params.items()}
    stale = 0

    def eval_loss(idx, model):
        total = 0.0
        for i in idx:
            _, loss = _backprop_ref(model, xhat[i], y[i])
            total += loss
        return total / len(idx)

    for epoch in range(config.max_epochs):
        order = train_idx[rng.permutation(train_idx.size)]
        model = make_model(params)
        train_loss = 0.0
        for start in range(0, order.size, config.batch_size):
            batch = order[start:start + config.batch_size]
            acc = {k: np.zeros_like(v) for k, v in params.items()}
            for i in batch:
                masks = _dropout_masks_ref(model, rng) if config.dropout_rate > 0 else None
                grads, loss = _backprop_ref(model, xhat[i], y[i], masks)
                train_loss += loss
                for k in acc:
                    acc[k] += grads[k]
            step += 1
            for k in params:
                g = acc[k] / batch.size
                m_t[k] = config.beta1 * m_t[k] + (1 - config.beta1) * g
                v_t[k] = config.beta2 * v_t[k] + (1 - config.beta2) * g * g
                m_hat = m_t[k] / (1 - config.beta1 ** step)
                v_hat = v_t[k] / (1 - config.beta2 ** step)
                params[k] = params[k] - config.lr * m_hat / (np.sqrt(v_hat) + config.eps)
            model = make_model(params)
        val_loss = eval_loss(val_idx, model)
        log.append({"epoch": epoch, "train_loss": train_loss / order.size,
                    "val_loss": val_loss})
        if val_loss < best_val - 1e-12:
            best_val = val_loss
            best_params = {k: v.copy() for k, v in params.items()}
            stale = 0
        else:
            stale += 1
            if stale >= config.patience:
                break
    return make_model(best_params), log


def _relu_segments_ref(model, base, delta):
    a1_0 = model.w1 @ _standardize_ref(model, base) + model.b1
    a1_1 = model.w1 @ _standardize_ref(model, base + delta) + model.b1
    slope1 = a1_1 - a1_0
    cuts = {0.0, 1.0}
    for j in range(a1_0.size):
        if slope1[j] != 0.0:
            t = -a1_0[j] / slope1[j]
            if 0.0 < t < 1.0:
                cuts.add(float(t))
    level1 = sorted(cuts)
    for lo, hi in zip(level1, level1[1:]):
        a2_lo = model.w2 @ np.maximum(a1_0 + lo * slope1, 0.0) + model.b2
        a2_hi = model.w2 @ np.maximum(a1_0 + hi * slope1, 0.0) + model.b2
        slope2 = (a2_hi - a2_lo) / (hi - lo)
        for k in range(a2_lo.size):
            if slope2[k] != 0.0:
                t = lo - a2_lo[k] / slope2[k]
                if lo < t < hi:
                    cuts.add(float(t))
    return sorted(cuts)


def integrated_gradients_ref(model, raw, base, steps=200, method="exact"):
    delta = raw - base
    total = np.zeros_like(raw)
    if method == "midpoint":
        for k in range(1, steps + 1):
            total += _input_gradient_ref(model, base + (k - 0.5) / steps * delta)
        return delta * total / steps
    cuts = _relu_segments_ref(model, base, delta)
    for lo, hi in zip(cuts, cuts[1:]):
        total += (hi - lo) * _input_gradient_ref(model, base + 0.5 * (lo + hi) * delta)
    return delta * total


# ------------------------------------------------------------------ helpers

def _model(rng, d, scale=0.6, kept=None, dropout_rate=0.2):
    kept = np.ones(d, dtype=bool) if kept is None else kept
    k = int(kept.sum())
    return MlpModel(
        w1=rng.standard_normal((HIDDEN1, k)) * scale,
        b1=rng.standard_normal(HIDDEN1) * 0.2,
        w2=rng.standard_normal((HIDDEN2, HIDDEN1)) * scale,
        b2=rng.standard_normal(HIDDEN2) * 0.2,
        w3=rng.standard_normal((1, HIDDEN2)) * scale,
        b3=rng.standard_normal(1) * 0.2,
        mean=rng.standard_normal(k), sd=rng.uniform(0.5, 2.0, k), kept=kept,
        feature_names=tuple(f"f{i}" for i in range(d)),
        feature_tags=("cts",) * d, dropout_rate=dropout_rate)


def _close(a, b, tol=TOL):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    assert a.shape == b.shape
    assert np.abs(a - b).max(initial=0.0) <= tol * max(1.0, np.abs(b).max(initial=0.0))


def _blob_data(rng, n=60, d=3):
    xs = np.vstack([rng.normal(-1.0, 1.0, (n, d)), rng.normal(1.0, 1.0, (n, d))])
    names = tuple(f"f{i}" for i in range(d))
    feats = Dataset(values=xs, names=names, tags=("covariate",) * d,
                    sample_ids=tuple(f"s{i}" for i in range(2 * n)))
    return feats, np.array([0] * n + [1] * n)


def _cohort(rng, n=90):
    """A build_features dataset: CTS values, constant eQTL triples, a covariate."""
    genes, cell_types = [f"g{k}" for k in range(4)], ["ct1", "ct2"]
    samples = [f"s{i:03d}" for i in range(n)]
    mean = rng.normal(1.0, 1.0, (len(genes), len(cell_types), n))
    tensor = CtsTensor(genes=genes, cell_types=cell_types, samples=samples,
                       mean=mean, variance=np.zeros_like(mean))
    pairs = {(g, c) for g in genes for c in cell_types}
    sel = PairSelection(pairs=frozenset(pairs),
                        provenance={pair_key(*p): "marker" for p in pairs},
                        scores={pair_key(*p): 0.0 for p in pairs})
    eqtl = {g: (0.1 * (k - 1), 0.05, 0.01 * (k + 1)) for k, g in enumerate(genes)}
    cov = {s: {"age": float(a)} for s, a in zip(samples, rng.normal(70, 8, n))}
    labels = (mean[0, 0] + 0.5 * rng.standard_normal(n) > 1.0).astype(int)
    return build_features(tensor, sel, eqtl, cov), labels


# -------------------------------------------------------------------- tests

@pytest.mark.parametrize("dropout", [False, True])
def test_batched_backprop_is_the_sum_of_per_sample_ones(dropout):
    rng = np.random.default_rng(30)
    for n, d in ((1, 2), (7, 5), (16, 12), (33, 1)):
        m = _model(rng, d)
        xhat = rng.standard_normal((n, d)) * 2
        y = rng.integers(0, 2, n).astype(float)
        masks = clf._dropout_masks(0.3, rng, n) if dropout else None
        grads, loss = clf._backprop(m, xhat, y, masks)
        ref = {k: 0.0 for k in WEIGHTS}
        ref_loss = 0.0
        for i in range(n):
            g, lo = _backprop_ref(m, xhat[i], y[i],
                                  (masks[0][i], masks[1][i]) if dropout else None)
            ref_loss += lo
            for k in WEIGHTS:
                ref[k] = ref[k] + g[k]
        for k in WEIGHTS:
            _close(grads[k], ref[k])
        _close(loss, ref_loss)


def test_dropout_masks_consume_the_stream_like_per_sample_draws():
    m = _model(np.random.default_rng(31), 3, dropout_rate=0.25)
    batched = clf._dropout_masks(m.dropout_rate, np.random.default_rng(5), 9)
    rng = np.random.default_rng(5)
    for i in range(9):
        m1, m2 = _dropout_masks_ref(m, rng)
        assert np.array_equal(batched[0][i], m1) and np.array_equal(batched[1][i], m2)
    assert clf._dropout_masks(0.0, rng, 4) is None


def test_single_sample_functions_match_reference():
    rng = np.random.default_rng(32)
    for trial in range(20):
        d = int(rng.integers(2, 9))
        kept = rng.random(d) < 0.8
        kept[0] = True
        m = _model(rng, d, kept=kept)
        x = rng.standard_normal(d) * 2
        y = float(rng.integers(0, 2))
        xhat = _standardize_ref(m, x)
        ref_grads, ref_loss = _backprop_ref(m, xhat, y)
        grads = backprop_gradient(m, x, y)
        for k in WEIGHTS:
            _close(grads[k], ref_grads[k])
        _close(bce_loss(m, x, y), ref_loss)
        lg = _forward_parts_ref(m, xhat)[4]
        _close(logit(m, x), lg)
        _close(forward(m, x), _sigmoid_ref(lg))
        masks = _dropout_masks_ref(m, np.random.default_rng(trial))
        _close(forward(m, x, training=True, seed=trial),
               _sigmoid_ref(_forward_parts_ref(m, xhat, masks)[4]))
        _close(input_gradient(m, x), _input_gradient_ref(m, x))
        xs = rng.standard_normal((5, d))
        _close(input_gradient(m, xs), np.stack([_input_gradient_ref(m, r) for r in xs]))


@pytest.mark.parametrize("data", ["blobs", "build_features"])
@pytest.mark.parametrize("dropout_rate", [0.0, 0.2])
def test_train_matches_per_sample_reference(data, dropout_rate):
    rng = np.random.default_rng(33)
    feats, labels = _blob_data(rng) if data == "blobs" else _cohort(rng)
    config = TrainConfig(seed=4, max_epochs=25, patience=5, batch_size=7,
                         dropout_rate=dropout_rate)
    res = train(feats, labels, config)
    ref_model, ref_log = train_reference(feats, labels, config)
    for k in WEIGHTS + ("mean", "sd"):
        _close(getattr(res.model, k), getattr(ref_model, k))
    assert np.array_equal(res.model.kept, ref_model.kept)
    assert len(res.log) == len(ref_log) > 0
    for a, b in zip(res.log, ref_log):
        assert a["epoch"] == b["epoch"]
        _close([a["train_loss"], a["val_loss"]], [b["train_loss"], b["val_loss"]])


def test_train_without_epochs_matches_reference():
    feats, labels = _blob_data(np.random.default_rng(34), n=10)
    config = TrainConfig(seed=1, max_epochs=0)
    ref_model, _ = train_reference(feats, labels, config)
    model = train(feats, labels, config).model
    for k in WEIGHTS:
        assert np.array_equal(getattr(model, k), getattr(ref_model, k))


@pytest.mark.parametrize("method", ["exact", "midpoint"])
def test_integrated_gradients_match_reference(method):
    rng = np.random.default_rng(35)
    for _ in range(25):
        d = int(rng.integers(2, 10))
        kept = rng.random(d) < 0.8
        kept[0] = True
        m = _model(rng, d, scale=float(rng.uniform(0.3, 1.5)), kept=kept)
        x = rng.standard_normal(d) * 3
        base = rng.standard_normal(d)
        base[~kept] = x[~kept]
        steps = int(rng.integers(1, 60))
        _close(integrated_gradients(m, x, base, steps=steps, method=method),
               integrated_gradients_ref(m, x, base, steps=steps, method=method))
        if method == "exact":
            _close(clf._relu_segments(m, base, x - base),
                   _relu_segments_ref(m, base, x - base))
