"""Reference functions the tests check the library against.

No command uses them. Most are the plain, one-case form of what a library
function computes in bulk; the rest are steps, readers and records only the
tests take (one Gibbs sweep, the eQTL table, the sign rule, one gene's
covariate coefficients).
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from diagnokit.classifier import Dataset, MlpModel, _backprop, _forward_parts, _standardize
from diagnokit.divergence import DivergenceReport, _negative_beta
from diagnokit.engine import (ChainState, HyperParams, _run_sweep, _stack_inputs,
                              _start_chain)
from diagnokit.errors import ParseError, ValidationError
from diagnokit.geneselect import rank_sum_tests
from diagnokit.io import parse_rows, read_rows, write_rows
from diagnokit.kernels import resolve_backend
from diagnokit.report import DiagnosticReport
from diagnokit.types import BulkMatrix, GenePriors, SampleMetas, _check_unique, _freeze


def pearson(a, b) -> float:
    """Sample Pearson correlation; rejects degenerate inputs.

    ``simulate.evaluate_recovery`` computes it for every row at once."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.size < 2:
        raise ValidationError("pearson needs two equal-length vectors of size >= 2")
    da = a - a.mean()
    db = b - b.mean()
    na = float(da @ da)
    nb = float(db @ db)
    if na == 0.0 or nb == 0.0:
        raise ValidationError("pearson undefined for zero-variance input")
    return float(np.clip((da @ db) / np.sqrt(na * nb), -1.0, 1.0))


def log2_fold_change(a, b, pseudo: float = 1e-9) -> float:
    """log2 ratio of group means on the linear (base-2 exponentiated) scale.

    ``geneselect.stability_scores`` computes it for every pair at once."""
    if not pseudo > 0:
        raise ValidationError("pseudo must be positive")
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    ma = np.exp2(a).mean()
    mb = np.exp2(b).mean()
    return float(np.log2((ma + pseudo) / (mb + pseudo)))


def wilcoxon_rank_sum(a, b) -> tuple[float, float]:
    """Two-sided Wilcoxon / Mann-Whitney rank-sum test of two samples: (U, p).

    The one-row, one-group case of ``geneselect.rank_sum_tests``, which
    ``geneselect.stability_scores`` calls for every pair at once."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.size < 1 or b.size < 1:
        raise ValidationError("wilcoxon_rank_sum requires non-empty inputs")
    member = np.arange(a.size + b.size) < a.size
    u, p = rank_sum_tests(np.concatenate([a, b])[None], member[:, None])
    return float(u[0, 0]), float(p[0, 0])


def report_from_json(payload: dict) -> DiagnosticReport:
    """The inverse of ``report.report_to_json``."""
    return DiagnosticReport(**payload)


def load_reports(path: str | Path) -> list[DivergenceReport]:
    """The inverse of ``divergence.save_reports``."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    return [DivergenceReport(**r) for r in payload]


# -------------------------------------------------------------------- engine

@dataclass(frozen=True)
class AdjustmentParams:
    """Covariate-adjustment coefficients for one gene; ``engine`` keeps them
    for all genes as one theta array."""

    gamma: np.ndarray  # (d1,) bulk-covariate coefficients
    b: np.ndarray      # (C, d2) cell-type-specific covariate coefficients

    def __post_init__(self):
        g = _freeze(self.gamma)
        b = _freeze(self.b)
        if g.ndim != 1 or b.ndim != 2:
            raise ValidationError("gamma must be a vector and b a C x d2 matrix")
        if not (np.isfinite(g).all() and np.isfinite(b).all()):
            raise ValidationError("adjustment params must be finite")
        object.__setattr__(self, "gamma", g)
        object.__setattr__(self, "b", b)


def z_conditional(mu: np.ndarray, sigma: np.ndarray, noise_var: float, x_gi: float,
                  w: np.ndarray, bulk_cov: np.ndarray, cts_cov: np.ndarray,
                  adj: AdjustmentParams) -> tuple[np.ndarray, np.ndarray]:
    """Exact Gaussian full conditional of z for one (gene, sample), given the
    gene's prior mean, covariance and noise variance and the sample's row of
    proportions and covariates.

    ``engine.run_mcmc`` averages its moments over kept sweeps, for every
    (gene, sample) at once, from each sweep's (q, s)."""
    r = float(x_gi) - float(adj.gamma @ bulk_cov) - float(w @ (adj.b @ cts_cov))
    if not np.isfinite(r):
        raise ValidationError("non-finite residual target")
    sig_inv = np.linalg.inv(sigma)
    prec = sig_inv + np.outer(w, w) / noise_var
    cov = np.linalg.inv(prec)
    cov = 0.5 * (cov + cov.T)
    mean = cov @ (sig_inv @ mu + w * (r / noise_var))
    return mean, cov


def split_rhat_scalar(chains: list[np.ndarray]) -> float:
    """Split Gelman-Rubin statistic over >= 2 scalar chains.

    Each chain is halved; between/within variances are computed over the
    half-chains. A fully degenerate set (zero within-chain variance and
    identical halves) is defined as converged, R-hat = 1.0. Odd-length
    chains are trimmed by one leading element.

    ``engine.split_rhat`` computes it for every trace at once."""
    if len(chains) < 2:
        raise ValidationError("split_rhat needs at least 2 chains")
    halves = []
    for c in chains:
        c = np.asarray(c, dtype=np.float64)
        if c.size % 2 == 1:
            c = c[1:]
        if c.size < 4:
            raise ValidationError("each chain needs at least 4 retained draws")
        mid = c.size // 2
        halves.extend([c[:mid], c[mid:]])
    n = min(h.size for h in halves)
    halves = np.stack([h[:n] for h in halves])
    means = halves.mean(axis=1)
    w_var = halves.var(axis=1, ddof=1).mean()
    b_var = n * means.var(ddof=1)
    if w_var == 0.0:
        return 1.0 if b_var == 0.0 else float("inf")
    return float(np.sqrt(((n - 1) / n * w_var + b_var / n) / w_var))


def init_chain(bulk: BulkMatrix, priors: GenePriors, metas: SampleMetas,
               rng: np.random.Generator) -> ChainState:
    """One chain's over-dispersed start, as ``engine.run_mcmc`` starts each."""
    return _start_chain(_stack_inputs(bulk, priors, metas), priors.noise_var, rng)


def gibbs_sweep(state: ChainState, bulk: BulkMatrix, priors: GenePriors,
                metas: SampleMetas, hyper: HyperParams | None = None) -> ChainState:
    """Advance the chain by one sweep (coefficients, then noise, then w'z), as
    each iteration of ``engine.run_mcmc`` does."""
    hyper = hyper or HyperParams()
    factors = _stack_inputs(bulk, priors, metas)
    if state.wz.shape != (bulk.n_genes, bulk.n_samples):
        raise ValidationError("chain state w'z shape does not match inputs")
    _run_sweep(state, bulk.values, factors, hyper, resolve_backend())
    return state


# ----------------------------------------------------------------- reference

def regularize_spd(sigma: np.ndarray, trace_s: float) -> np.ndarray:
    """Add scaled identity jitter until the matrix has a finite Cholesky factor.

    ``reference._regularize_spd_all`` does it for a stack of matrices at once."""
    c = sigma.shape[0]
    eps = 1e-6 * trace_s / c if trace_s > 0 else 1e-8
    sigma = 0.5 * (sigma + sigma.T)
    jitter = eps
    for _ in range(60):
        trial = sigma + jitter * np.eye(c)
        try:
            if np.isfinite(np.linalg.cholesky(trial)).all():
                return trial
        except np.linalg.LinAlgError:
            pass
        jitter *= 2.0
    raise ValidationError("could not regularize covariance to positive definite")


# ---------------------------------------------------------------- classifier
# One raw sample in, through the batched network code with a one-row matrix.

def _row(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)[None]


def logit(model: MlpModel, x: np.ndarray) -> float:
    """Pre-sigmoid output (no dropout)."""
    return float(_forward_parts(model, _standardize(model, _row(x)))[4][0])


def backprop_gradient(model: MlpModel, x: np.ndarray,
                      y: float) -> dict[str, np.ndarray]:
    """Analytic BCE gradient w.r.t. all weights and biases (dropout off)."""
    if y not in (0, 1) and not 0 <= y <= 1:
        raise ValidationError("label must lie in [0, 1]")
    return _backprop(model, _standardize(model, _row(x)), np.array([float(y)]))[0]


def bce_loss(model: MlpModel, x: np.ndarray, y: float) -> float:
    return _backprop(model, _standardize(model, _row(x)), np.array([float(y)]))[1]


def input_gradient(model: MlpModel, raw: np.ndarray) -> np.ndarray:
    """Gradient of the pre-sigmoid logit w.r.t. the raw (unstandardized)
    input: one sample (D,) or a sample matrix (n, D), same shape out."""
    raw = np.asarray(raw, dtype=np.float64)
    a1, _, a2, _, _ = _forward_parts(model, _standardize(model, np.atleast_2d(raw)))
    da2 = model.w3[0] * (a2 > 0)
    da1 = (da2 @ model.w2) * (a1 > 0)
    g = np.zeros((a1.shape[0], model.kept.size))
    g[:, model.kept] = (da1 @ model.w1) / model.sd
    return g.reshape(raw.shape)


def integrated_gradients_midpoint(model: MlpModel, x: np.ndarray,
                                  baseline: np.ndarray | None = None,
                                  steps: int = 200) -> np.ndarray:
    """Integrated Gradients by the plain ``steps``-point midpoint rule of
    Sundararajan et al. 2017, for one sample (D,) or a sample matrix (n, D).

    ``classifier.integrated_gradients`` integrates the same path exactly."""
    raw = np.asarray(x, dtype=np.float64)
    xs = np.atleast_2d(raw)
    if baseline is None:
        base = xs.copy()
        base[:, model.kept] = model.mean
    else:
        base = np.atleast_2d(np.asarray(baseline, dtype=np.float64))
    delta = xs - base
    t = (np.arange(1, steps + 1) - 0.5) / steps
    points = base[:, None] + t[:, None] * delta[:, None]  # (n, steps, D)
    grads = input_gradient(model, points.reshape(-1, xs.shape[1])).reshape(points.shape)
    ig = delta * grads.sum(axis=1) / steps
    ig[~delta.any(axis=1)] = 0.0  # a row at its baseline: +0, not -0
    return ig.reshape(raw.shape)


def save_eqtl_table(eqtl: dict[str, tuple[float, float, float]], path: str | Path) -> None:
    """A gene-keyed eQTL table (beta, se, pval) as TSV."""
    genes = sorted(eqtl)
    write_rows(path, [(["gene"], ["beta", "se", "pval"], [])], genes,
               np.array([eqtl[g] for g in genes], dtype=np.float64).reshape(-1, 3))


def load_eqtl_table(path: str | Path) -> dict[str, tuple[float, float, float]]:
    """The inverse of ``save_eqtl_table``; every rejection names its line."""
    header, rows, linenos = read_rows(path, 1)
    if header != ["gene\tbeta\tse\tpval"]:
        raise ParseError("bad eQTL table header", line=1)
    (genes,), stats = parse_rows(rows, linenos, 4)
    _check_unique(genes, "gene", linenos)
    return dict(zip(genes, map(tuple, stats.tolist())))


# ---------------------------------------------------------------- divergence

def sign_rule_predict(dataset: Dataset) -> np.ndarray:
    """Heuristic stand-in for the LLM's documented failure mode, one call per
    sample: nonAD (0) whenever any eQTL effect size is negative, else AD (1)."""
    return np.where(_negative_beta(dataset), 0, 1)
