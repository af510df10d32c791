"""The batched MLP kernels against the per-sample code they replaced.

The reference functions below are the former one-sample-at-a-time forward
pass, backpropagation, dropout draws, training loop and Integrated Gradients
quadrature, kept verbatim as the oracle. Batching changes only the summation
order, so agreement is required to 1e-12.

Two later references sit between those and the current code: the one-row
Integrated Gradients that evaluated the input gradient at each row's own
path points (``integrated_gradients_rowwise``), and the training loop that
kept Adam's state as six arrays per moment (``train_dict_adam``). The flat
Adam buffer does the same elementwise operations, so training must match
the latter bit for bit.
"""
from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
import pytest

from diagnokit import classifier as clf
from diagnokit.classifier import (HIDDEN1, HIDDEN2, IG_BLOCK_ROWS, Dataset, MlpModel,
                                  TrainConfig, backprop_gradient, bce_loss,
                                  build_features, forward, input_gradient,
                                  integrated_gradients, logit, train)
from diagnokit.errors import ValidationError
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


def _relu_segments_rowwise(model, base, delta):
    """Sorted breakpoints in t, 0 and 1 included, where the network's
    gradient changes along the path.

    The logit is piecewise linear in t along base + t*delta: layer-1
    pre-activations are linear in t, so their sign changes are exact roots;
    within each resulting segment layer-2 pre-activations are linear in t as
    well, giving a second exact subdivision. A zero slope gives an infinite
    or NaN root, which no open interval contains.
    """
    a1_0, a1_1 = clf._standardize(model, np.stack([base, base + delta])) @ model.w1.T + model.b1
    slope1 = a1_1 - a1_0
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = -a1_0 / slope1
        level1 = np.unique(np.concatenate(([0.0, 1.0], t1[(0.0 < t1) & (t1 < 1.0)])))
        lo, hi = level1[:-1, None], level1[1:, None]
        # within a segment h1 = (a1_0 + t*slope1) * active, so a2 is linear
        a2 = np.maximum(a1_0 + level1[:, None] * slope1, 0.0) @ model.w2.T + model.b2
        t2 = lo - a2[:-1] / ((a2[1:] - a2[:-1]) / (hi - lo))
    return np.unique(np.concatenate((level1, t2[(lo < t2) & (t2 < hi)])))


def integrated_gradients_rowwise(model, x, baseline=None, steps=200, method="exact"):
    """Integrated Gradients of the pre-sigmoid logit along the straight path.

    ``method="exact"`` integrates the piecewise-constant path gradient
    segment by segment (splitting at ReLU sign changes), so completeness
    holds to machine precision. ``method="midpoint"`` is the plain
    ``steps``-point midpoint rule. Either way the path gradient is taken at
    every evaluation point in one batched pass. Default baseline is the
    training mean in raw space (zero in standardized space). Returns one
    attribution per raw feature (zero for dropped ones).
    """
    if steps < 1:
        raise ValidationError("steps must be >= 1")
    if method not in ("exact", "midpoint"):
        raise ValidationError(f"unknown IG method {method!r}")
    raw = clf._row(x)[0]
    if baseline is None:
        base = raw.copy()
        base[model.kept] = model.mean
    else:
        base = np.asarray(baseline, dtype=np.float64)
    if base.shape != raw.shape:
        raise ValidationError("baseline dimension does not match input")
    delta = raw - base
    if not delta.any():
        return np.zeros_like(raw)
    if method == "midpoint":
        t = (np.arange(1, steps + 1) - 0.5) / steps
        return delta * input_gradient(model, base + t[:, None] * delta).sum(axis=0) / steps
    cuts = _relu_segments_rowwise(model, base, delta)
    mid = 0.5 * (cuts[:-1] + cuts[1:])
    return delta * (np.diff(cuts) @ input_gradient(model, base + mid[:, None] * delta))


def train_dict_adam(dataset: Dataset, labels, config: TrainConfig) -> clf.TrainResult:
    """Fit the MLP; deterministic given ``config.seed``.

    Standardization statistics come from the training split only; features
    constant over the training split are dropped and recorded. Returns the
    weights with the best validation loss seen.
    """
    y = np.asarray(labels, dtype=np.float64)
    if len(dataset.sample_ids) != y.size or y.size < 4:
        raise ValidationError("need matching features/labels, at least 4 samples")
    if not np.isin(y, (0.0, 1.0)).all():
        raise ValidationError("labels must be binary 0/1")
    x_raw = dataset.values
    if (y == 1).sum() < 2 or (y == 0).sum() < 2:
        raise ValidationError("need at least 2 samples per class")

    rng = np.random.default_rng(np.random.SeedSequence(entropy=(config.seed, 0x3C1)))
    train_idx, val_idx = clf._stratified_split(y, config.val_fraction, rng)

    mean_all = x_raw[train_idx].mean(axis=0)
    sd_all = x_raw[train_idx].std(axis=0, ddof=0)
    # a column of equal values can still get sd ~1e-17 from rounding in std
    kept = np.ptp(x_raw[train_idx], axis=0) > 0
    dropped = tuple(n for n, k in zip(dataset.names, kept) if not k)
    d = int(kept.sum())
    if d == 0:
        raise ValidationError("every feature has zero training variance")

    net = SimpleNamespace(**clf._he_init(rng, d))
    model_kw = dict(mean=mean_all[kept], sd=sd_all[kept], kept=kept,
                    feature_names=dataset.names, feature_tags=dataset.tags,
                    dropout_rate=config.dropout_rate)

    def make_model():
        return MlpModel(**{k: v.copy() for k, v in vars(net).items()}, **model_kw)

    best = make_model()
    log: list[dict] = []
    xhat = (x_raw[:, kept] - mean_all[kept]) / sd_all[kept]
    m_t = {k: np.zeros_like(v) for k, v in vars(net).items()}
    v_t = {k: np.zeros_like(v) for k, v in vars(net).items()}
    step = 0
    best_val = math.inf
    stale = 0
    for epoch in range(config.max_epochs):
        order = train_idx[rng.permutation(train_idx.size)]
        train_loss = 0.0
        for start in range(0, order.size, config.batch_size):
            batch = order[start:start + config.batch_size]
            masks = clf._dropout_masks(config.dropout_rate, rng, batch.size)
            grads, loss = clf._backprop(net, xhat[batch], y[batch], masks)
            train_loss += loss
            step += 1
            for k, g in grads.items():
                g = g / batch.size
                m_t[k] = config.beta1 * m_t[k] + (1 - config.beta1) * g
                v_t[k] = config.beta2 * v_t[k] + (1 - config.beta2) * g * g
                m_hat = m_t[k] / (1 - config.beta1 ** step)
                v_hat = v_t[k] / (1 - config.beta2 ** step)
                setattr(net, k, getattr(net, k)
                        - config.lr * m_hat / (np.sqrt(v_hat) + config.eps))
        # built once per epoch: MlpModel rejects weights that went non-finite
        model = make_model()
        val_loss = clf._backprop(model, xhat[val_idx], y[val_idx])[1] / val_idx.size
        log.append({"epoch": epoch, "train_loss": train_loss / order.size,
                    "val_loss": val_loss})
        if val_loss < best_val - 1e-12:
            best_val = val_loss
            best = model
            stale = 0
        else:
            stale += 1
            if stale >= config.patience:
                break
    return clf.TrainResult(model=best, log=log, dropped_features=dropped)


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
            _close(_relu_segments_rowwise(m, base, x - base),
                   _relu_segments_ref(m, base, x - base))


# ------------------------------------------- sample matrices, flat-buffer Adam

def _ig_rows(rng, n, d=9):
    """A model that drops one feature, and n rows of which every fifth sits
    at the default baseline."""
    kept = np.ones(d, dtype=bool)
    kept[d // 2] = False
    m = _model(rng, d, scale=float(rng.uniform(0.6, 1.5)), kept=kept)
    xs = rng.standard_normal((n, d)) * 3
    xs[::5, kept] = m.mean
    return m, xs


@pytest.mark.parametrize("method", ["exact", "midpoint"])
@pytest.mark.parametrize("baseline", ["default", "explicit"])
@pytest.mark.parametrize("n", [1, 31, 32, 33, 65])
def test_sample_matrix_ig_matches_rowwise_reference(method, baseline, n):
    rng = np.random.default_rng(40 + n)
    m, xs = _ig_rows(rng, n)
    d = xs.shape[1]
    if baseline == "default":
        base, bases = None, [None] * n
    else:
        base = rng.standard_normal((n, d))
        base[::5] = xs[::5]
        bases = list(base)
    steps = int(rng.integers(1, 80))
    got = integrated_gradients(m, xs, base, steps=steps, method=method)
    want = np.stack([integrated_gradients_rowwise(m, x, b, steps=steps, method=method)
                     for x, b in zip(xs, bases)])
    _close(got, want)
    # a row at its baseline gets +0 everywhere, as the one-row code gave
    assert not np.signbit(got[::5]).any() and not got[::5].any()
    # a dropped feature gets no attribution, whatever its delta
    assert not got[:, d // 2].any()


def test_one_row_and_one_row_matrix_agree():
    rng = np.random.default_rng(50)
    m, xs = _ig_rows(rng, 3)
    for method in ("exact", "midpoint"):
        row = integrated_gradients(m, xs[1], method=method)
        assert row.shape == (xs.shape[1],)
        assert np.array_equal(row, integrated_gradients(m, xs[1:2], method=method)[0])
    assert integrated_gradients(m, xs[:0]).shape == (0, xs.shape[1])


def test_rows_do_not_depend_on_their_block():
    """Padding a block to its longest row adds only zero-width segments, so
    a row's attributions agree to 1e-12 whichever rows share its block."""
    rng = np.random.default_rng(51)
    m, xs = _ig_rows(rng, 2 * IG_BLOCK_ROWS + 5)
    whole = integrated_gradients(m, xs)
    _close(whole[::-1], integrated_gradients(m, xs[::-1]))
    for i in (0, IG_BLOCK_ROWS - 1, IG_BLOCK_ROWS, len(xs) - 1):
        _close(whole[i], integrated_gradients(m, xs[i]))


def test_sample_matrix_ig_is_complete_per_row():
    rng = np.random.default_rng(52)
    for trial in range(4):
        d = int(rng.integers(5, 40))
        m = _model(rng, d, scale=float(rng.uniform(0.8, 2.0)))
        xs = rng.standard_normal((70, d)) * 3
        base = rng.standard_normal(xs.shape) if trial % 2 else None
        attr = integrated_gradients(m, xs, base)
        b = np.broadcast_to(m.mean, xs.shape) if base is None else base
        gap = clf._forward_parts(m, clf._standardize(m, xs))[4] \
            - clf._forward_parts(m, clf._standardize(m, b))[4]
        assert (np.abs(attr.sum(axis=1) - gap) <= TOL * np.maximum(1.0, np.abs(gap))).all()


def test_path_cuts_match_the_per_sample_segments():
    rng = np.random.default_rng(53)
    m, xs = _ig_rows(rng, 40, d=6)
    base = xs.copy()
    base[:, m.kept] = m.mean
    a1_1 = clf._standardize(m, xs) @ m.w1.T + m.b1
    a1_0 = clf._standardize(m, base) @ m.w1.T + m.b1
    cuts = clf._path_cuts(m, a1_0, a1_1 - a1_0)
    assert cuts.shape[1] > 2 and (np.diff(cuts, axis=1) >= 0).all()
    assert (cuts[:, 0] == 0.0).all() and (cuts[:, -1] == 1.0).all()
    for row, x, b in zip(cuts, xs, base):
        want = _relu_segments_ref(m, b, x - b)
        _close(np.unique(row), want)


def test_sample_matrix_ig_rejects_bad_arguments():
    rng = np.random.default_rng(54)
    m, xs = _ig_rows(rng, 4)
    with pytest.raises(ValidationError, match="steps"):
        integrated_gradients(m, xs, steps=0, method="midpoint")
    with pytest.raises(ValidationError, match="unknown IG method"):
        integrated_gradients(m, xs, method="simpson")
    for base in (np.zeros((3, xs.shape[1])), np.zeros(xs.shape[1])):
        with pytest.raises(ValidationError, match="baseline"):
            integrated_gradients(m, xs, base)
    with pytest.raises(ValidationError, match="features"):
        integrated_gradients(m, xs[:, 1:])


@pytest.mark.parametrize("data", ["blobs", "build_features"])
@pytest.mark.parametrize("dropout_rate", [0.0, 0.2])
@pytest.mark.parametrize("batch_size", [1, 7, 16])
def test_flat_adam_matches_dict_adam_bit_for_bit(data, dropout_rate, batch_size):
    rng = np.random.default_rng(55)
    feats, labels = _blob_data(rng, d=4) if data == "blobs" else _cohort(rng)
    config = TrainConfig(seed=6, max_epochs=12, patience=4, batch_size=batch_size,
                         dropout_rate=dropout_rate)
    got, want = train(feats, labels, config), train_dict_adam(feats, labels, config)
    for k in WEIGHTS + ("mean", "sd", "kept"):
        assert np.array_equal(getattr(got.model, k), getattr(want.model, k)), k
    assert got.log == want.log and len(got.log) > 1
    assert got.dropped_features == want.dropped_features
