"""Feature construction, a small MLP classifier, and Integrated Gradients.

The network is fixed-shape (input -> 16 -> 8 -> 1, ReLU hidden layers, sigmoid
output) and trained with Adam on binary cross-entropy, inverted dropout on the
hidden activations, a stratified validation split, and early stopping on
validation loss. Everything is implemented directly on numpy arrays so
gradients can be checked against finite differences and attributions against
closed forms.

The network runs batched over sample matrices. Adam keeps the six weight
arrays as views into one flat parameter vector, with one flat first and
second moment, so each minibatch does one update over every weight.
Integrated Gradients takes one sample or a sample matrix: it finds every
row's ReLU kinks along its path as one padded array, sums width times
d(logit)/d(hidden layer 1) over the segment midpoints in the 16-unit hidden
space, and maps each row to the raw features once, in blocks of
``IG_BLOCK_ROWS`` rows so that the (rows, points, 16) temporaries stay small.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .errors import ParseError, ValidationError
from .io import _is_number, load_json, parse_rows, read_rows, save_json, write_rows
from .types import CtsTensor, PairSelection, _array, _check_unique, _freeze, _positions, _set

HIDDEN1 = 16
HIDDEN2 = 8
# rows per Integrated Gradients block: bounds the (rows, points, 16) temporaries
IG_BLOCK_ROWS = 32
FEATURE_TAGS = ("cts", "eqtl_beta", "eqtl_se", "eqtl_pval", "covariate")
# Adam's moment decay rates and denominator guard
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class Dataset:
    """Raw feature values, one row per sample, with per-feature names and tags
    and one ID per sample. Every check runs once, over the whole matrix, and
    ``take`` only reorders a checked record."""

    values: np.ndarray          # (n, d)
    names: tuple[str, ...]      # (d,)
    tags: tuple[str, ...]       # (d,)
    sample_ids: tuple[str, ...]  # (n,)

    def __post_init__(self):
        names, tags, ids = tuple(self.names), tuple(self.tags), tuple(self.sample_ids)
        v = _array(self.values, (ids, "sample ID"), (names, "feature name"))
        if len(tags) != len(names):
            raise ValidationError(f"{len(tags)} feature tags for {len(names)} feature names")
        bad = set(tags).difference(FEATURE_TAGS)
        if bad:
            raise ValidationError(f"unknown feature tags: {sorted(bad)}")
        _set(self, values=v, names=names, tags=tags, sample_ids=ids)

    def take(self, names, names_side: str | None = None) -> Dataset:
        """The features ``names``, in that order; every name must be a feature
        and, given ``names_side`` (where ``names`` come from), every feature
        one of ``names``."""
        _check_unique(names, "feature name")
        cols = _positions(self.names, names, "dataset features", names_side)
        taken = object.__new__(Dataset)  # only reordered: not checked again
        _set(taken, values=_freeze(self.values[:, cols]), names=tuple(names),
             tags=tuple(self.tags[j] for j in cols), sample_ids=self.sample_ids)
        return taken


@dataclass(frozen=True)
class MlpModel:
    """Weights plus the training-set standardization that inputs pass through.

    ``kept`` masks out features constant over the training split;
    ``mean``/``sd`` apply to the kept features only.
    """

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    w3: np.ndarray
    b3: np.ndarray
    mean: np.ndarray
    sd: np.ndarray
    kept: np.ndarray          # boolean mask over the raw feature axis
    feature_names: tuple[str, ...]
    feature_tags: tuple[str, ...]

    def __post_init__(self):
        d = int(self.kept.sum())
        shapes = {"w1": (HIDDEN1, d), "b1": (HIDDEN1,), "w2": (HIDDEN2, HIDDEN1),
                  "b2": (HIDDEN2,), "w3": (1, HIDDEN2), "b3": (1,),
                  "mean": (d,), "sd": (d,)}
        for name, shape in shapes.items():
            a = _freeze(getattr(self, name))
            if a.shape != shape:
                raise ValidationError(f"{name} has shape {a.shape}, expected {shape}")
            if not np.isfinite(a).all():
                raise ValidationError(f"{name} contains non-finite values")
            object.__setattr__(self, name, a)
        kept = np.array(self.kept, dtype=bool)
        kept.flags.writeable = False
        if kept.ndim != 1 or kept.size != len(self.feature_names):
            raise ValidationError("kept mask must cover every raw feature")
        if len(self.feature_tags) != len(self.feature_names):
            raise ValidationError(f"{len(self.feature_tags)} feature tags for "
                                  f"{len(self.feature_names)} feature names")
        _set(self, kept=kept, feature_names=tuple(self.feature_names),
             feature_tags=tuple(self.feature_tags))
        if (self.sd <= 0).any():
            raise ValidationError("standardization sd must be positive for kept features")


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer and early-stopping settings."""

    lr: float = 0.001
    batch_size: int = 16
    max_epochs: int = 500
    patience: int = 10
    val_fraction: float = 0.2
    seed: int = 0
    dropout_rate: float = 0.2

    def __post_init__(self):
        if not self.lr > 0:
            raise ValidationError("lr must be positive")
        if not 0 < self.val_fraction < 1:
            raise ValidationError("val_fraction must lie in (0, 1)")
        if self.patience < 1:
            raise ValidationError("patience must be >= 1")
        if self.batch_size < 1 or self.max_epochs < 0:
            raise ValidationError("batch_size must be >= 1 and max_epochs >= 0")
        if not 0 <= self.dropout_rate < 1:
            raise ValidationError("dropout_rate must lie in [0, 1)")


def build_features(cts: CtsTensor, selection: PairSelection,
                   eqtl: dict[str, tuple[float, float, float]],
                   covariates: dict[str, dict[str, float]] | None = None) -> Dataset:
    """Concatenate CTS posterior means, eQTL summaries, and covariates.

    Ordering is deterministic: selected pairs sorted lexicographically, then
    selected genes sorted (three entries BETA, SE, PVAL each), then covariate
    names sorted. Genes absent from the eQTL table contribute no eQTL features.
    """
    pairs = sorted(selection.pairs)
    rows = _positions(cts.genes, [g for g, _ in pairs], "tensor genes")
    cols = _positions(cts.cell_types, [c for _, c in pairs], "tensor cell types")
    genes = selection.genes()
    present = [g for g in genes if g in eqtl]

    covariates = covariates or {}
    cov_names: list[str] = []
    if covariates:
        _positions(covariates, cts.samples, "covariate samples")
        cov_names = sorted(covariates[cts.samples[0]])
        for s in cts.samples:
            if sorted(covariates[s]) != cov_names:
                raise ValidationError(f"covariate names differ for sample {s!r}")

    names: list[str] = []
    tags: list[str] = []
    for g, c in pairs:
        names.append(f"cts:{g}|{c}")
        tags.append("cts")
    for g in present:
        names += [f"beta:{g}", f"se:{g}", f"pval:{g}"]
        tags += ["eqtl_beta", "eqtl_se", "eqtl_pval"]
    for name in cov_names:
        names.append(f"cov:{name}")
        tags.append("covariate")

    n = len(cts.samples)
    x = np.hstack([
        cts.mean[rows, cols].T,
        np.tile([v for g in present for v in eqtl[g]], (n, 1)),
        np.array([[covariates[s][name] for name in cov_names] for s in cts.samples],
                 dtype=np.float64).reshape(n, len(cov_names))])
    return Dataset(values=x, names=names, tags=tags, sample_ids=cts.samples)


def _standardize(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Kept features of a raw sample matrix (n, D), standardized."""
    if x.ndim != 2 or x.shape[1] != model.kept.size:
        raise ValidationError(
            f"input has shape {x.shape[1:]}, model expects {model.kept.size} features")
    return (x[:, model.kept] - model.mean) / model.sd


def _forward_parts(net, xhat: np.ndarray,
                   masks: tuple[np.ndarray, np.ndarray] | None = None):
    """Pre-activations and activations of each layer, one row per sample.

    ``net`` is an ``MlpModel`` or any object carrying its six weight arrays;
    ``xhat`` is standardized input (n, d). The logits come last, shape (n,).
    """
    a1 = xhat @ net.w1.T + net.b1
    h1 = np.maximum(a1, 0.0)
    if masks is not None:
        h1 = h1 * masks[0]
    a2 = h1 @ net.w2.T + net.b2
    h2 = np.maximum(a2, 0.0)
    if masks is not None:
        h2 = h2 * masks[1]
    return a1, h1, a2, h2, h2 @ net.w3[0] + net.b3[0]


def _dropout_masks(rate: float, rng: np.random.Generator, n: int):
    """Inverted-dropout masks for n samples, or None when dropout is off.

    One (n, 24) draw split 16 | 8: row i holds sample i's layer-1 then
    layer-2 draws, so the stream is consumed sample by sample.
    """
    if rate == 0.0:
        return None
    keep = (rng.random((n, HIDDEN1 + HIDDEN2)) >= rate) * (1.0 / (1.0 - rate))
    return keep[:, :HIDDEN1], keep[:, HIDDEN1:]


def _sigmoid(t: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(t))
    return np.where(t >= 0, 1.0, e) / (1.0 + e)


def _probability(model: MlpModel, x: np.ndarray,
                 masks: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """Predicted probabilities for a raw sample matrix (n, D)."""
    return _sigmoid(_forward_parts(model, _standardize(model, x), masks)[4])


def forward(model: MlpModel, x: np.ndarray) -> float:
    """Predicted probability for one raw sample (D,), without dropout."""
    return float(_probability(model, np.asarray(x, dtype=np.float64)[None])[0])


def _backprop(net, xhat: np.ndarray, y: np.ndarray,
              masks: tuple[np.ndarray, np.ndarray] | None = None):
    """BCE loss summed over the rows of ``xhat``, and its gradients w.r.t.
    the weights and biases; input already standardized."""
    a1, h1, a2, h2, lg = _forward_parts(net, xhat, masks)
    p = _sigmoid(lg)
    eps = 1e-12
    loss = -float(np.sum(y * np.log(p + eps) + (1.0 - y) * np.log(1.0 - p + eps)))
    dlogit = p - y
    dh2 = dlogit[:, None] * net.w3[0]
    if masks is not None:
        dh2 = dh2 * masks[1]
    da2 = dh2 * (a2 > 0)
    dh1 = da2 @ net.w2
    if masks is not None:
        dh1 = dh1 * masks[0]
    da1 = dh1 * (a1 > 0)
    return {"w1": da1.T @ xhat, "b1": da1.sum(axis=0),
            "w2": da2.T @ h1, "b2": da2.sum(axis=0),
            "w3": (dlogit @ h2)[None, :], "b3": dlogit.sum(keepdims=True)}, loss


@dataclass(frozen=True)
class TrainResult:
    model: MlpModel
    log: list[dict] = field(default_factory=list)  # per-epoch train/val loss
    dropped_features: tuple[str, ...] = ()


def _he_init(rng: np.random.Generator, d: int):
    return {
        "w1": rng.standard_normal((HIDDEN1, d)) * math.sqrt(2.0 / max(d, 1)),
        "b1": np.zeros(HIDDEN1),
        "w2": rng.standard_normal((HIDDEN2, HIDDEN1)) * math.sqrt(2.0 / HIDDEN1),
        "b2": np.zeros(HIDDEN2),
        "w3": rng.standard_normal((1, HIDDEN2)) * math.sqrt(2.0 / HIDDEN2),
        "b3": np.zeros(1),
    }


def _views(flat: np.ndarray, like: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Views into ``flat``, one per array of ``like``, in its order and shapes."""
    out, start = {}, 0
    for k, a in like.items():
        out[k] = flat[start:start + a.size].reshape(a.shape)
        start += a.size
    return out


def _stratified_split(labels: np.ndarray, val_fraction: float,
                      rng: np.random.Generator):
    train_idx, val_idx = [], []
    for cls in (0, 1):
        idx = np.flatnonzero(labels == cls)
        idx = idx[rng.permutation(idx.size)]
        n_val = max(1, int(round(val_fraction * idx.size)))
        if n_val >= idx.size:
            n_val = idx.size - 1
        val_idx.extend(idx[:n_val])
        train_idx.extend(idx[n_val:])
    return np.sort(np.array(train_idx)), np.sort(np.array(val_idx))


def train(dataset: Dataset, labels, config: TrainConfig) -> TrainResult:
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
    train_idx, val_idx = _stratified_split(y, config.val_fraction, rng)

    mean_all = x_raw[train_idx].mean(axis=0)
    sd_all = x_raw[train_idx].std(axis=0, ddof=0)
    # a column of equal values can still get sd ~1e-17 from rounding in std
    kept = np.ptp(x_raw[train_idx], axis=0) > 0
    dropped = tuple(n for n, k in zip(dataset.names, kept) if not k)
    d = int(kept.sum())
    if d == 0:
        raise ValidationError("every feature has zero training variance")

    # the six weight arrays are views into one flat parameter vector, so
    # each minibatch does one Adam update over every weight at once
    init = _he_init(rng, d)
    theta = np.concatenate([a.ravel() for a in init.values()])
    net = SimpleNamespace(**_views(theta, init))
    grad = np.empty_like(theta)
    model_kw = dict(mean=mean_all[kept], sd=sd_all[kept], kept=kept,
                    feature_names=dataset.names, feature_tags=dataset.tags)

    def make_model():
        return MlpModel(**{k: v.copy() for k, v in vars(net).items()}, **model_kw)

    best = make_model()
    log: list[dict] = []
    xhat = (x_raw[:, kept] - mean_all[kept]) / sd_all[kept]
    m_t = np.zeros_like(theta)
    v_t = np.zeros_like(theta)
    step = 0
    best_val = math.inf
    stale = 0
    for epoch in range(config.max_epochs):
        order = train_idx[rng.permutation(train_idx.size)]
        train_loss = 0.0
        for start in range(0, order.size, config.batch_size):
            batch = order[start:start + config.batch_size]
            masks = _dropout_masks(config.dropout_rate, rng, batch.size)
            grads, loss = _backprop(net, xhat[batch], y[batch], masks)
            train_loss += loss
            step += 1
            np.concatenate([a.ravel() for a in grads.values()], out=grad)
            g = grad / batch.size
            m_t = ADAM_BETA1 * m_t + (1 - ADAM_BETA1) * g
            v_t = ADAM_BETA2 * v_t + (1 - ADAM_BETA2) * g * g
            m_hat = m_t / (1 - ADAM_BETA1 ** step)
            v_hat = v_t / (1 - ADAM_BETA2 ** step)
            theta -= config.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        # built once per epoch: MlpModel rejects weights that went non-finite
        model = make_model()
        val_loss = _backprop(model, xhat[val_idx], y[val_idx])[1] / val_idx.size
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
    return TrainResult(model=best, log=log, dropped_features=dropped)


def _path_cuts(model: MlpModel, a1_0: np.ndarray, slope1: np.ndarray) -> np.ndarray:
    """Each row's breakpoints in t where the gradient changes along its path,
    sorted, 0 first, padded with 1s to the longest row: (rows, cuts).

    The logit is piecewise linear in t along base + t*delta: layer-1
    pre-activations a1_0 + t*slope1 are linear in t, so their sign changes
    are exact roots; within each resulting segment layer-2 pre-activations
    are linear in t as well, giving a second exact subdivision. A root
    outside (0, 1), or the infinite or NaN root of a zero slope, becomes
    t = 1; repeated cuts only add segments of zero width.
    """
    rows = a1_0.shape[0]
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = -a1_0 / slope1
        t1[~((0.0 < t1) & (t1 < 1.0))] = 1.0
        level1 = np.sort(np.concatenate((np.zeros((rows, 1)), t1, np.ones((rows, 1))),
                                        axis=1), axis=1)
        lo, hi = level1[:, :-1, None], level1[:, 1:, None]
        # within a segment h1 = (a1_0 + t*slope1) * active, so a2 is linear
        a2 = (np.maximum(a1_0[:, None] + level1[:, :, None] * slope1[:, None], 0.0)
              @ model.w2.T + model.b2)
        t2 = lo - a2[:, :-1] / ((a2[:, 1:] - a2[:, :-1]) / (hi - lo))
        t2[~((lo < t2) & (t2 < hi))] = 1.0
    cuts = np.sort(np.concatenate((level1, t2.reshape(rows, -1)), axis=1), axis=1)
    return cuts[:, :int((cuts < 1.0).sum(axis=1).max()) + 1]


def integrated_gradients(model: MlpModel, x: np.ndarray,
                         baseline: np.ndarray | None = None) -> np.ndarray:
    """Integrated Gradients of the pre-sigmoid logit along the straight path,
    for one sample (D,) or a sample matrix (n, D); same shape out.

    The path gradient is piecewise constant, so it is integrated exactly,
    segment by segment (splitting at ReLU sign changes), and completeness
    holds to machine precision. Width x d(logit)/d(a1) is summed over the
    segment midpoints in the 16-unit hidden space and each row is mapped to
    the raw features once; rows go through in blocks of ``IG_BLOCK_ROWS``.
    Default baseline is the training mean in raw space (zero in
    standardized space); an explicit one has the shape of ``x``. Returns one
    attribution per raw feature (zero for dropped ones).
    """
    raw = np.asarray(x, dtype=np.float64)
    xs = np.atleast_2d(raw)
    a1_1 = _standardize(model, xs) @ model.w1.T + model.b1
    if baseline is None:
        base = xs.copy()
        base[:, model.kept] = model.mean
    else:
        base = np.asarray(baseline, dtype=np.float64)
        if base.shape != raw.shape:
            raise ValidationError("baseline dimension does not match input")
        base = np.atleast_2d(base)
    delta = xs - base
    a1_0 = _standardize(model, base) @ model.w1.T + model.b1
    slope1 = a1_1 - a1_0
    hidden = np.empty_like(a1_0)
    for r in range(0, xs.shape[0], IG_BLOCK_ROWS):
        block = slice(r, r + IG_BLOCK_ROWS)
        cuts = _path_cuts(model, a1_0[block], slope1[block])
        t, width = 0.5 * (cuts[:, :-1] + cuts[:, 1:]), np.diff(cuts, axis=1)
        a1 = a1_0[block, None] + t[..., None] * slope1[block, None]
        da2 = model.w3[0] * (np.maximum(a1, 0.0) @ model.w2.T + model.b2 > 0)
        da1 = (da2 @ model.w2) * (a1 > 0)
        hidden[block] = (width[:, None] @ da1)[:, 0]
    g = np.zeros_like(xs)
    g[:, model.kept] = hidden @ model.w1 / model.sd
    ig = delta * g
    ig[~delta.any(axis=1)] = 0.0  # a row at its baseline: +0, not -0
    return ig.reshape(raw.shape)


def top_k_features(attributions, names, values=None,
                   k: int = 5) -> list[tuple[str, float, float]]:
    """Top-k (name, value, attribution) by |attribution|; ties break by name."""
    attributions = np.asarray(attributions, dtype=np.float64)
    names = list(names)
    if len(names) != attributions.size:
        raise ValidationError("attributions and names must have equal length")
    if k > attributions.size:
        raise ValidationError("k exceeds the number of features")
    vals = (np.zeros_like(attributions) if values is None
            else np.asarray(values, dtype=np.float64))
    order = sorted(range(attributions.size),
                   key=lambda i: (-abs(attributions[i]), names[i]))
    return [(names[i], float(vals[i]), float(attributions[i])) for i in order[:k]]


def save_model(result_or_model, path: str | Path) -> None:
    """Checkpoint JSON: weights, standardization, names and tags."""
    model = result_or_model.model if isinstance(result_or_model, TrainResult) else result_or_model
    payload = {
        "w1": model.w1.tolist(), "b1": model.b1.tolist(),
        "w2": model.w2.tolist(), "b2": model.b2.tolist(),
        "w3": model.w3.tolist(), "b3": model.b3.tolist(),
        "mean": model.mean.tolist(), "sd": model.sd.tolist(),
        "kept": model.kept.astype(int).tolist(),
        "feature_names": list(model.feature_names),
        "feature_tags": list(model.feature_tags),
    }
    save_json(payload, path, sort_keys=False)


def load_model(path: str | Path) -> MlpModel:
    """The inverse of ``save_model``; a ``dropout_rate`` key that older
    checkpoints hold is ignored."""
    payload = load_json(path)
    if not isinstance(payload, dict):
        raise ParseError("checkpoint must be a JSON object")
    try:
        arrays = {name: payload[name]
                  for name in ("w1", "b1", "w2", "b2", "w3", "b3", "mean", "sd", "kept")}
        names, tags = payload["feature_names"], payload["feature_tags"]
    except KeyError as exc:
        raise ParseError(f"checkpoint missing field {exc.args[0]!r}") from exc
    for name, value in arrays.items():
        bad = ParseError(f"checkpoint field {name!r} must be an array of finite JSON numbers"
                         + (", each 0 or 1" if name == "kept" else ""))
        try:  # a ragged list makes an array of lists, and those are no numbers
            leaves = np.array(value, dtype=object)
        except ValueError:  # or, in some numpy versions, no array at all
            raise bad from None
        if not all(map(_is_number, leaves.flat)) or (name == "kept"
                                                      and not set(leaves.flat) <= {0, 1}):
            raise bad
        arrays[name] = leaves.astype(np.float64)
    if not all(isinstance(v, list) and all(isinstance(t, str) for t in v)
               for v in (names, tags)):
        raise ParseError("checkpoint feature_names and feature_tags must be lists of strings")
    kept = arrays.pop("kept").astype(bool)
    return MlpModel(**arrays, kept=kept, feature_names=tuple(names),
                    feature_tags=tuple(tags))


def save_dataset(dataset: Dataset, labels, path: str | Path) -> None:
    """Dataset TSV: one sample per row, header = sample + feature names + label."""
    if not dataset.sample_ids:
        raise ValidationError("cannot save an empty dataset")
    y = np.asarray(labels)
    if y.shape != (len(dataset.sample_ids),):
        raise ValidationError(f"{y.size} labels for {len(dataset.sample_ids)} samples")
    if not np.isin(y, (0, 1)).all():
        raise ValidationError("labels must be 0 or 1")
    header = [(["sample"], dataset.names, ["label"]), (["#tags"], dataset.tags, ["-"])]
    write_rows(path, header, [dataset.sample_ids], dataset.values,
               tails=[str(int(v)) for v in y.tolist()])


def load_dataset(path: str | Path) -> tuple[Dataset, np.ndarray]:
    """Read and validate a dataset TSV; every rejection names its line
    (field counts, tags, duplicate sample IDs, values, labels other than 0/1)."""
    head, rows, linenos = read_rows(path, 2)
    if not linenos:
        raise ParseError("dataset needs a header, a tag row, and data", line=1)
    header = head[0].split("\t")
    if header[0] != "sample" or header[-1] != "label":
        raise ParseError("dataset header must be sample ... label", line=1)
    names = tuple(header[1:-1])
    tag_row = head[1].split("\t")
    if tag_row[0] != "#tags":
        raise ParseError("second dataset row must carry #tags", line=2)
    if len(tag_row) != len(header):
        raise ParseError(f"expected {len(header)} fields, got {len(tag_row)}", line=2)
    tags = tuple(tag_row[1:-1])
    unknown = sorted(set(tags) - set(FEATURE_TAGS))
    if unknown:
        raise ParseError(f"unknown feature tags: {unknown}", line=2)
    _check_unique(names, "feature name", [1] * len(names))
    (sample_ids,), block = parse_rows(rows, linenos, len(header))
    _check_unique(sample_ids, "sample ID", linenos)
    values, labels = block[:, :-1], block[:, -1]
    bad = ~np.isin(labels, (0.0, 1.0))
    if bad.any():
        raise ParseError("label must be 0 or 1", line=linenos[int(np.argmax(bad))])
    return (Dataset(values=values, names=names, tags=tags, sample_ids=tuple(sample_ids)),
            labels.astype(int))

