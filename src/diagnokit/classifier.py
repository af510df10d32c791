"""Feature construction, a small MLP classifier, and Integrated Gradients.

The network is fixed-shape (input -> 16 -> 8 -> 1, ReLU hidden layers, sigmoid
output) and trained with Adam on binary cross-entropy, inverted dropout on the
hidden activations, a stratified validation split, and early stopping on
validation loss. Everything is implemented directly on numpy arrays so
gradients can be checked against finite differences and attributions against
closed forms.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ParseError, ValidationError
from .types import CtsTensor, PairSelection, _freeze

HIDDEN1 = 16
HIDDEN2 = 8
FEATURE_TAGS = ("cts", "eqtl_beta", "eqtl_se", "eqtl_pval", "covariate")


@dataclass(frozen=True)
class FeatureVector:
    """One sample's feature values with names and per-feature tags."""

    values: np.ndarray
    names: tuple[str, ...]
    tags: tuple[str, ...]
    sample_id: str = ""

    def __post_init__(self):
        v = _freeze(self.values)
        names = tuple(self.names)
        tags = tuple(self.tags)
        if v.ndim != 1 or len(names) != v.size or len(tags) != v.size:
            raise ValidationError("feature values, names, and tags must have equal length")
        if len(set(names)) != len(names):
            raise ValidationError("feature names must be unique")
        if not np.isfinite(v).all():
            raise ValidationError("feature values must be finite")
        bad = [t for t in tags if t not in FEATURE_TAGS]
        if bad:
            raise ValidationError(f"unknown feature tags: {sorted(set(bad))}")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "tags", tags)

    @property
    def dim(self) -> int:
        return self.values.size


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
    dropout_rate: float = 0.2

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
        kept = np.ascontiguousarray(np.asarray(self.kept, dtype=bool))
        kept.flags.writeable = False
        if kept.ndim != 1 or kept.size != len(self.feature_names):
            raise ValidationError("kept mask must cover every raw feature")
        object.__setattr__(self, "kept", kept)
        object.__setattr__(self, "feature_names", tuple(self.feature_names))
        object.__setattr__(self, "feature_tags", tuple(self.feature_tags))
        if (self.sd <= 0).any():
            raise ValidationError("standardization sd must be positive for kept features")
        if not 0 <= self.dropout_rate < 1:
            raise ValidationError("dropout_rate must lie in [0, 1)")

    @property
    def input_dim(self) -> int:
        return int(self.kept.sum())


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
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

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
                   covariates: dict[str, dict[str, float]] | None = None,
                   missing_genes: list[str] | None = None) -> list[FeatureVector]:
    """Concatenate CTS posterior means, eQTL summaries, and covariates.

    Ordering is deterministic: selected pairs sorted lexicographically, then
    selected genes sorted (three entries BETA, SE, PVAL each), then covariate
    names sorted. Genes absent from the eQTL table contribute no eQTL features
    and are appended to ``missing_genes`` when provided.
    """
    gene_index = {g: i for i, g in enumerate(cts.genes)}
    ct_index = {c: j for j, c in enumerate(cts.cell_types)}
    for g, c in selection.pairs:
        if g not in gene_index or c not in ct_index:
            raise ValidationError(f"selected pair ({g!r}, {c!r}) outside tensor axes")

    pairs = sorted(selection.pairs)
    genes = selection.genes()
    present = [g for g in genes if g in eqtl]
    absent = [g for g in genes if g not in eqtl]
    if missing_genes is not None:
        missing_genes.extend(absent)

    covariates = covariates or {}
    cov_names: list[str] = []
    if covariates:
        missing_samples = [s for s in cts.samples if s not in covariates]
        if missing_samples:
            raise ValidationError(f"covariates missing samples: {missing_samples[:5]}")
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

    out = []
    for si, s in enumerate(cts.samples):
        vals = [cts.mean[gene_index[g], ct_index[c], si] for g, c in pairs]
        for g in present:
            beta, se, pval = eqtl[g]
            vals += [beta, se, pval]
        vals += [covariates[s][name] for name in cov_names]
        out.append(FeatureVector(values=np.array(vals, dtype=np.float64),
                                 names=tuple(names), tags=tuple(tags), sample_id=s))
    return out


def _standardize(model: MlpModel, x: np.ndarray) -> np.ndarray:
    if x.shape != (model.kept.size,):
        raise ValidationError(
            f"input has {x.shape[0] if x.ndim == 1 else x.shape} features, "
            f"model expects {model.kept.size}")
    return (x[model.kept] - model.mean) / model.sd


def _forward_parts(model: MlpModel, xhat: np.ndarray,
                   masks: tuple[np.ndarray, np.ndarray] | None = None):
    """Pre-activations and activations of each layer on standardized input."""
    a1 = model.w1 @ xhat + model.b1
    h1 = np.maximum(a1, 0.0)
    if masks is not None:
        h1 = h1 * masks[0]
    a2 = model.w2 @ h1 + model.b2
    h2 = np.maximum(a2, 0.0)
    if masks is not None:
        h2 = h2 * masks[1]
    logit = float((model.w3 @ h2 + model.b3)[0])
    return a1, h1, a2, h2, logit


def _dropout_masks(model: MlpModel, rng: np.random.Generator):
    rate = model.dropout_rate
    if rate == 0.0:
        return np.ones(HIDDEN1), np.ones(HIDDEN2)
    scale = 1.0 / (1.0 - rate)
    return ((rng.random(HIDDEN1) >= rate) * scale,
            (rng.random(HIDDEN2) >= rate) * scale)


def _sigmoid(t: float) -> float:
    if t >= 0:
        return 1.0 / (1.0 + math.exp(-t))
    e = math.exp(t)
    return e / (1.0 + e)


def forward(model: MlpModel, x: FeatureVector | np.ndarray,
            training: bool = False, seed: int = 0) -> float:
    """Predicted probability for one sample. Dropout applies only in training."""
    raw = x.values if isinstance(x, FeatureVector) else np.asarray(x, dtype=np.float64)
    xhat = _standardize(model, raw)
    masks = _dropout_masks(model, np.random.default_rng(seed)) if training else None
    return _sigmoid(_forward_parts(model, xhat, masks)[4])


def logit(model: MlpModel, x: FeatureVector | np.ndarray) -> float:
    """Pre-sigmoid output (no dropout)."""
    raw = x.values if isinstance(x, FeatureVector) else np.asarray(x, dtype=np.float64)
    return _forward_parts(model, _standardize(model, raw))[4]


def _backprop(model: MlpModel, xhat: np.ndarray, y: float,
              masks: tuple[np.ndarray, np.ndarray] | None = None):
    """Gradients of BCE w.r.t. weights, plus loss; input already standardized."""
    a1, h1, a2, h2, lg = _forward_parts(model, xhat, masks)
    p = _sigmoid(lg)
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


def backprop_gradient(model: MlpModel, x: FeatureVector | np.ndarray,
                      y: float) -> dict[str, np.ndarray]:
    """Analytic BCE gradient w.r.t. all weights and biases (dropout off)."""
    if y not in (0, 1) and not 0 <= y <= 1:
        raise ValidationError("label must lie in [0, 1]")
    raw = x.values if isinstance(x, FeatureVector) else np.asarray(x, dtype=np.float64)
    grads, _ = _backprop(model, _standardize(model, raw), float(y))
    return grads


def bce_loss(model: MlpModel, x: FeatureVector | np.ndarray, y: float) -> float:
    raw = x.values if isinstance(x, FeatureVector) else np.asarray(x, dtype=np.float64)
    _, loss = _backprop(model, _standardize(model, raw), float(y))
    return loss


def input_gradient(model: MlpModel, raw: np.ndarray) -> np.ndarray:
    """Gradient of the pre-sigmoid logit w.r.t. the raw (unstandardized) input."""
    xhat = _standardize(model, raw)
    a1, h1, a2, h2, _ = _forward_parts(model, xhat)
    dh2 = model.w3[0].copy()
    da2 = dh2 * (a2 > 0)
    dh1 = model.w2.T @ da2
    da1 = dh1 * (a1 > 0)
    dxhat = model.w1.T @ da1
    g = np.zeros(model.kept.size)
    g[model.kept] = dxhat / model.sd
    return g


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


def train(features: list[FeatureVector], labels, config: TrainConfig) -> TrainResult:
    """Fit the MLP; deterministic given ``config.seed``.

    Standardization statistics come from the training split only; features
    constant over the training split are dropped and recorded. Returns the
    weights with the best validation loss seen.
    """
    y = np.asarray(labels, dtype=np.float64)
    if len(features) != y.size or y.size < 4:
        raise ValidationError("need matching features/labels, at least 4 samples")
    if not np.isin(y, (0.0, 1.0)).all():
        raise ValidationError("labels must be binary 0/1")
    if len({f.names for f in features}) != 1:
        raise ValidationError("all feature vectors must share the same names")
    if (y == 1).sum() < 2 or (y == 0).sum() < 2:
        raise ValidationError("need at least 2 samples per class")
    x_raw = np.stack([f.values for f in features])

    rng = np.random.default_rng(np.random.SeedSequence(entropy=(config.seed, 0x3C1)))
    train_idx, val_idx = _stratified_split(y, config.val_fraction, rng)

    mean_all = x_raw[train_idx].mean(axis=0)
    sd_all = x_raw[train_idx].std(axis=0, ddof=0)
    # a column of equal values can still get sd ~1e-17 from rounding in std
    kept = np.ptp(x_raw[train_idx], axis=0) > 0
    dropped = tuple(n for n, k in zip(features[0].names, kept) if not k)
    d = int(kept.sum())
    if d == 0:
        raise ValidationError("every feature has zero training variance")

    params = _he_init(rng, d)
    model_kw = dict(mean=mean_all[kept], sd=sd_all[kept], kept=kept,
                    feature_names=features[0].names, feature_tags=features[0].tags,
                    dropout_rate=config.dropout_rate)

    def make_model(p):
        return MlpModel(**{k: v.copy() for k, v in p.items()}, **model_kw)

    log: list[dict] = []
    if config.max_epochs == 0:
        return TrainResult(model=make_model(params), log=log, dropped_features=dropped)

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
            _, loss = _backprop(model, xhat[i], y[i])
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
                masks = _dropout_masks(model, rng) if config.dropout_rate > 0 else None
                grads, loss = _backprop(model, xhat[i], y[i], masks)
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
    return TrainResult(model=make_model(best_params), log=log, dropped_features=dropped)


def _relu_segments(model: MlpModel, base: np.ndarray, delta: np.ndarray) -> list[float]:
    """Breakpoints in t where the network's gradient changes along the path.

    The logit is piecewise linear in t along base + t*delta: layer-1
    pre-activations are linear in t, so their sign changes are exact roots;
    within each resulting segment layer-2 pre-activations are linear in t as
    well, giving a second exact subdivision.
    """
    a1_0 = model.w1 @ _standardize(model, base) + model.b1
    a1_1 = model.w1 @ _standardize(model, base + delta) + model.b1
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
        # within the segment h1 = (a1_0 + t*slope1) * active, so a2 is linear
        slope2 = (a2_hi - a2_lo) / (hi - lo)
        for k in range(a2_lo.size):
            if slope2[k] != 0.0:
                t = lo - a2_lo[k] / slope2[k]
                if lo < t < hi:
                    cuts.add(float(t))
    return sorted(cuts)


def integrated_gradients(model: MlpModel, x: FeatureVector | np.ndarray,
                         baseline: FeatureVector | np.ndarray | None = None,
                         steps: int = 200, method: str = "exact") -> np.ndarray:
    """Integrated Gradients of the pre-sigmoid logit along the straight path.

    ``method="exact"`` integrates the piecewise-constant path gradient
    segment by segment (splitting at ReLU sign changes), so completeness
    holds to machine precision. ``method="midpoint"`` is the plain
    ``steps``-point midpoint rule. Default baseline is the training mean in
    raw space (zero in standardized space). Returns one attribution per raw
    feature (zero for dropped ones).
    """
    if steps < 1:
        raise ValidationError("steps must be >= 1")
    if method not in ("exact", "midpoint"):
        raise ValidationError(f"unknown IG method {method!r}")
    raw = x.values if isinstance(x, FeatureVector) else np.asarray(x, dtype=np.float64)
    if baseline is None:
        base = np.zeros(model.kept.size)
        base[model.kept] = model.mean
        base[~model.kept] = raw[~model.kept]
    else:
        base = (baseline.values if isinstance(baseline, FeatureVector)
                else np.asarray(baseline, dtype=np.float64))
    if base.shape != raw.shape:
        raise ValidationError("baseline dimension does not match input")
    delta = raw - base
    if not delta.any():
        return np.zeros_like(raw)
    total = np.zeros_like(raw)
    if method == "midpoint":
        for k in range(1, steps + 1):
            total += input_gradient(model, base + (k - 0.5) / steps * delta)
        return delta * total / steps
    cuts = _relu_segments(model, base, delta)
    for lo, hi in zip(cuts, cuts[1:]):
        total += (hi - lo) * input_gradient(model, base + 0.5 * (lo + hi) * delta)
    return delta * total


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
    """Checkpoint JSON: weights, standardization, names/tags, dropout rate."""
    model = result_or_model.model if isinstance(result_or_model, TrainResult) else result_or_model
    payload = {
        "w1": model.w1.tolist(), "b1": model.b1.tolist(),
        "w2": model.w2.tolist(), "b2": model.b2.tolist(),
        "w3": model.w3.tolist(), "b3": model.b3.tolist(),
        "mean": model.mean.tolist(), "sd": model.sd.tolist(),
        "kept": model.kept.astype(int).tolist(),
        "feature_names": list(model.feature_names),
        "feature_tags": list(model.feature_tags),
        "dropout_rate": model.dropout_rate,
    }
    from .io import atomic_write_text
    atomic_write_text(path, json.dumps(payload, indent=2) + "\n")


def load_model(path: str | Path) -> MlpModel:
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad checkpoint JSON: {exc}") from exc
    try:
        return MlpModel(
            w1=np.array(payload["w1"]), b1=np.array(payload["b1"]),
            w2=np.array(payload["w2"]), b2=np.array(payload["b2"]),
            w3=np.array(payload["w3"]), b3=np.array(payload["b3"]),
            mean=np.array(payload["mean"]), sd=np.array(payload["sd"]),
            kept=np.array(payload["kept"], dtype=bool),
            feature_names=tuple(payload["feature_names"]),
            feature_tags=tuple(payload["feature_tags"]),
            dropout_rate=float(payload["dropout_rate"]),
        )
    except KeyError as exc:
        raise ParseError(f"checkpoint missing field {exc.args[0]!r}") from exc


def save_dataset(features: list[FeatureVector], labels, path: str | Path) -> None:
    """Dataset TSV: one sample per row, header = sample + feature names + label."""
    from .io import _fmt, atomic_write_text
    if not features:
        raise ValidationError("cannot save an empty dataset")
    names = features[0].names
    y = np.asarray(labels)
    lines = ["sample\t" + "\t".join(names) + "\tlabel",
             "#tags\t" + "\t".join(features[0].tags) + "\t-"]
    for f, lab in zip(features, y):
        lines.append(f.sample_id + "\t" + "\t".join(_fmt(v) for v in f.values)
                     + "\t" + str(int(lab)))
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_dataset(path: str | Path) -> tuple[list[FeatureVector], np.ndarray]:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if len(lines) < 3:
        raise ParseError("dataset needs a header, a tag row, and data", line=1)
    header = lines[0].split("\t")
    if header[0] != "sample" or header[-1] != "label":
        raise ParseError("dataset header must be sample ... label", line=1)
    names = tuple(header[1:-1])
    tag_row = lines[1].split("\t")
    if tag_row[0] != "#tags":
        raise ParseError("second dataset row must carry #tags", line=2)
    tags = tuple(tag_row[1:-1])
    feats, labels = [], []
    for lineno, line in enumerate(lines[2:], start=3):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != len(names) + 2:
            raise ParseError(f"expected {len(names) + 2} fields", line=lineno)
        try:
            vals = np.array([float(p) for p in parts[1:-1]])
            labels.append(int(parts[-1]))
        except ValueError as exc:
            raise ParseError(str(exc), line=lineno) from exc
        feats.append(FeatureVector(values=vals, names=names, tags=tags,
                                   sample_id=parts[0]))
    return feats, np.array(labels)


def save_eqtl_table(eqtl: dict[str, tuple[float, float, float]], path: str | Path) -> None:
    from .io import _fmt, atomic_write_text
    lines = ["gene\tbeta\tse\tpval"]
    for gene in sorted(eqtl):
        beta, se, pval = eqtl[gene]
        lines.append("\t".join([gene, _fmt(beta), _fmt(se), _fmt(pval)]))
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_eqtl_table(path: str | Path) -> dict[str, tuple[float, float, float]]:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != "gene\tbeta\tse\tpval":
        raise ParseError("bad eQTL table header", line=1)
    out = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 4:
            raise ParseError(f"expected 4 fields, got {len(parts)}", line=lineno)
        try:
            out[parts[0]] = (float(parts[1]), float(parts[2]), float(parts[3]))
        except ValueError as exc:
            raise ParseError(str(exc), line=lineno) from exc
    return out
