"""Synthetic ground truth and recovery evaluation.

The generator follows the bulk mixture model end to end: latent per-gene
cell-type vectors with a strong shared (cross-type) covariance component,
Dirichlet proportions, Gaussian covariates with learned-coefficient effects,
and additive observation noise. The single-cell reference is generated
hierarchically from per-donor latent vectors so that aligned cell positions
across types carry the true cross-type covariance, matching how the prior
estimator reads the reference.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .reference import ReferenceDataset
from .types import AdjustmentParams, BulkMatrix, CtsTensor, SampleMeta


@dataclass(frozen=True)
class SyntheticScenario:
    """Dimensions and magnitudes of one synthetic dataset."""

    G: int = 50
    C: int = 3
    N: int = 60
    d1: int = 2
    d2: int = 1
    dirichlet_alpha: tuple[float, ...] | None = None
    noise_sd: float = 0.5
    covariate_effect_scale: float = 0.5
    seed: int = 0
    # magnitude knobs (log-expression scale); arbitrary but fixed here
    expr_mean: float = 5.0
    expr_sd: float = 2.0
    sigma_rho_range: tuple[float, float] = (0.95, 0.99)
    sigma_scale: float = 1.3
    ref_cells_per_type: int = 50
    ref_cell_sd: float = 0.2

    def __post_init__(self):
        if min(self.G, self.C, self.N) < 1 or min(self.d1, self.d2) < 0:
            raise ValidationError("invalid scenario dimensions")
        alpha = self.dirichlet_alpha
        if alpha is None:
            alpha = tuple(1.0 for _ in range(self.C))
        alpha = tuple(float(a) for a in alpha)
        if len(alpha) != self.C or min(alpha) <= 0:
            raise ValidationError("dirichlet_alpha must be C positive entries")
        object.__setattr__(self, "dirichlet_alpha", alpha)
        if self.noise_sd < 0 or self.covariate_effect_scale < 0:
            raise ValidationError("noise_sd and covariate_effect_scale must be >= 0")


@dataclass(frozen=True)
class GroundTruthBundle:
    """Everything needed to score a deconvolution run against truth."""

    bulk: BulkMatrix
    true_z: CtsTensor
    metas: list[SampleMeta]
    ref: ReferenceDataset
    true_params: list[AdjustmentParams]
    noise: np.ndarray  # (G, N) stored observation noise
    true_sigma: np.ndarray = field(repr=False, default=None)  # (G, C, C)


def _shared_component_cov(rng: np.random.Generator, C: int,
                          rho_range: tuple[float, float], scale: float) -> np.ndarray:
    """SPD covariance with a dominant shared component and per-type jitter."""
    rho = rng.uniform(*rho_range)
    s = rng.uniform(0.9, 1.1, C)
    corr = (1.0 - rho) * np.eye(C) + rho * np.ones((C, C))
    return scale * np.outer(s, s) * corr


def generate(scenario: SyntheticScenario) -> GroundTruthBundle:
    """Draw one fully specified synthetic dataset, deterministic in the seed."""
    sc = scenario
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(sc.seed, 0x51)))
    G, C, N = sc.G, sc.C, sc.N
    genes = [f"g{i:04d}" for i in range(G)]
    cell_types = [f"ct{j + 1}" for j in range(C)]
    samples = [f"s{i:03d}" for i in range(N)]

    mus = rng.normal(sc.expr_mean, sc.expr_sd, (G, C))
    sigmas = np.stack([_shared_component_cov(rng, C, sc.sigma_rho_range, sc.sigma_scale)
                       for _ in range(G)])
    chols = np.linalg.cholesky(sigmas)
    z = mus[:, None, :] + np.einsum("gcd,gnd->gnc", chols, rng.standard_normal((G, N, C)))

    w = rng.dirichlet(np.array(sc.dirichlet_alpha), N)
    c1 = rng.standard_normal((N, sc.d1))
    c2 = rng.standard_normal((N, sc.d2))
    gamma = rng.normal(0.0, 1.0, (G, sc.d1)) * sc.covariate_effect_scale
    b = rng.normal(0.0, 1.0, (G, C, sc.d2)) * sc.covariate_effect_scale
    noise = rng.standard_normal((G, N)) * sc.noise_sd

    x = (np.einsum("nc,gnc->gn", w, z) + gamma @ c1.T
         + np.einsum("nc,gck,nk->gn", w, b, c2) + noise)

    bulk = BulkMatrix(genes=genes, samples=samples, values=x)
    true_z = CtsTensor(genes=genes, cell_types=cell_types, samples=samples,
                       mean=np.transpose(z, (0, 2, 1)),
                       variance=np.zeros((G, C, N)))
    metas = [SampleMeta(sample_id=samples[i], proportions=w[i],
                        bulk_cov=c1[i], cts_cov=c2[i]) for i in range(N)]
    true_params = [AdjustmentParams(gamma=gamma[g], b=b[g]) for g in range(G)]

    # donor-aligned reference: cell k of every type shares donor k's latent vector
    M = sc.ref_cells_per_type
    donors = mus[:, None, :] + np.einsum(
        "gcd,gmd->gmc", chols, rng.standard_normal((G, M, C)))  # (G, M, C)
    cells = []
    labels = []
    cols = []
    for j, ct in enumerate(cell_types):
        for k in range(M):
            cells.append(f"{ct}_cell{k:03d}")
            labels.append(ct)
            cols.append(donors[:, k, j] + rng.normal(0.0, sc.ref_cell_sd, G))
    ref = ReferenceDataset(genes=genes, cells=cells, cell_type_labels=labels,
                           values=np.column_stack(cols))
    return GroundTruthBundle(bulk=bulk, true_z=true_z, metas=metas, ref=ref,
                             true_params=true_params, noise=noise, true_sigma=sigmas)


def pearson(a, b) -> float:
    """Sample Pearson correlation; rejects degenerate inputs."""
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


@dataclass(frozen=True)
class RecoveryReport:
    """Per-gene and per-sample PCC distributions per cell type."""

    cell_types: list[str]
    per_gene: dict[str, list[float]]
    per_sample: dict[str, list[float]]
    excluded_per_gene: dict[str, int]
    excluded_per_sample: dict[str, int]

    def summary(self) -> dict:
        out = {}
        for level, table, excl in (("per_gene", self.per_gene, self.excluded_per_gene),
                                   ("per_sample", self.per_sample, self.excluded_per_sample)):
            stats = {}
            for ct in self.cell_types:
                vals = np.array(table[ct])
                if vals.size:
                    q1, med, q3 = np.percentile(vals, [25, 50, 75])
                    stats[ct] = {"median": float(med), "q1": float(q1), "q3": float(q3),
                                 "n": int(vals.size), "excluded": excl[ct]}
                else:
                    stats[ct] = {"median": None, "q1": None, "q3": None,
                                 "n": 0, "excluded": excl[ct]}
            out[level] = stats
        all_gene = [v for ct in self.cell_types for v in self.per_gene[ct]]
        out["median_per_gene_overall"] = float(np.median(all_gene)) if all_gene else None
        return out


def _pearson_rows(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``pearson`` along the last axis for every row at once.

    Returns (r, defined): r is meaningful where ``defined``, that is where the
    rows hold at least 2 values and neither side has zero variance.
    """
    da = a - a.mean(axis=-1, keepdims=True)
    db = b - b.mean(axis=-1, keepdims=True)
    na = np.einsum("...i,...i->...", da, da)
    nb = np.einsum("...i,...i->...", db, db)
    defined = (na != 0.0) & (nb != 0.0) & (a.shape[-1] >= 2)
    denom = np.sqrt(np.where(defined, na * nb, 1.0))
    r = np.clip(np.einsum("...i,...i->...", da, db) / denom, -1.0, 1.0)
    return r, defined


def evaluate_recovery(estimate: CtsTensor, truth: CtsTensor) -> RecoveryReport:
    """Correlate estimate against truth per (gene, type) and per (sample, type).

    The estimate is joined to the truth by (gene, cell type, sample): its
    axes may list the same keys in any order, and are put in the truth's.
    Entries with zero variance on either side are excluded and counted.
    """
    index = []
    for ours, theirs in ((estimate.genes, truth.genes), (estimate.cell_types, truth.cell_types),
                         (estimate.samples, truth.samples)):
        if set(ours) != set(theirs):
            raise ValidationError("estimate and truth axes do not match")
        position = {k: i for i, k in enumerate(ours)}
        index.append([position[k] for k in theirs])
    est = estimate.mean[np.ix_(*index)]
    cts = truth.cell_types
    # (G, C, N): per gene along samples; (C, N, G): per sample along genes
    r_g, ok_g = _pearson_rows(est, truth.mean)
    r_s, ok_s = _pearson_rows(np.moveaxis(est, 0, -1), np.moveaxis(truth.mean, 0, -1))
    return RecoveryReport(
        cell_types=list(cts),
        per_gene={ct: r_g[:, j][ok_g[:, j]].tolist() for j, ct in enumerate(cts)},
        per_sample={ct: r_s[j][ok_s[j]].tolist() for j, ct in enumerate(cts)},
        excluded_per_gene={ct: int((~ok_g[:, j]).sum()) for j, ct in enumerate(cts)},
        excluded_per_sample={ct: int((~ok_s[j]).sum()) for j, ct in enumerate(cts)})
