"""Empirical prior estimation from a labelled single-cell reference.

The per-gene prior mean is the per-type average. The cross-type covariance is
estimated from pseudo-replicate means: each replicate takes a random half of
the cells of every type, drawn over *aligned cell positions* (position k of
type c is paired with position k of the other types, up to the smallest type
size). When the reference carries donor structure in its cell ordering this
captures genuine cross-type covariance; for unaligned references it degrades
gracefully to a near-diagonal estimate. The replicate-mean covariance is
rescaled by the half-sampling factor so its scale matches the underlying
per-replicate variance rather than the variance of a mean.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .types import GenePriors, _array, _factor, _set

N_PSEUDO_REPLICATES = 20
DEFAULT_SHRINKAGE = 0.5
_NOISE_FLOOR = 1e-6


@dataclass(frozen=True)
class ReferenceDataset:
    """Single-cell reference: genes x cells log-expression with type labels."""

    genes: list[str]
    cells: list[str]
    cell_type_labels: list[str]
    values: np.ndarray

    def __post_init__(self):
        _set(self, values=_array(self.values, (self.genes, "gene ID"), (self.cells, "cell ID")))
        if len(self.cell_type_labels) != len(self.cells):
            raise ValidationError(f"one label per cell required, not {len(self.cell_type_labels)} "
                                  f"for {len(self.cells)} cells")
        counts: dict[str, int] = {}
        for lab in self.cell_type_labels:
            counts[lab] = counts.get(lab, 0) + 1
        for lab, n in counts.items():
            if n < 2:
                raise ValidationError(f"cell type {lab!r} has fewer than 2 cells")

    @property
    def cell_types(self) -> list[str]:
        return sorted(set(self.cell_type_labels))

    def type_columns(self, cell_type: str) -> np.ndarray:
        idx = [i for i, lab in enumerate(self.cell_type_labels) if lab == cell_type]
        return np.array(idx, dtype=np.intp)


def signature_matrix(ref: ReferenceDataset) -> np.ndarray:
    """G x C matrix of per-type mean expression (column order = sorted types)."""
    cols = [ref.type_columns(c) for c in ref.cell_types]
    return np.column_stack([ref.values[:, idx].mean(axis=1) for idx in cols])


def estimate_priors(ref: ReferenceDataset, shrinkage: float = DEFAULT_SHRINKAGE,
                    seed: int = 0, rescues: dict[str, int] | None = None) -> GenePriors:
    """Estimate the prior of every gene in the reference.

    ``shrinkage`` in [0, 1] interpolates the covariance toward its diagonal;
    1 gives an exactly diagonal matrix (before regularization). ``rescues``
    counts the genes whose covariance needed more jitter than the first step
    (see ``_regularize_spd_all``).
    """
    if not 0.0 <= shrinkage <= 1.0:
        raise ValidationError("shrinkage must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    types = ref.cell_types
    C = len(types)
    type_cols = [ref.type_columns(c) for c in types]
    n_aligned = min(len(idx) for idx in type_cols)
    half = n_aligned // 2
    if half < 1:
        raise ValidationError("each cell type needs at least 2 cells")

    # shared position subsets across types: one draw per replicate
    subsets = np.array([rng.permutation(n_aligned)[:half]
                        for _ in range(N_PSEUDO_REPLICATES)])  # (R, half)
    # variance of a without-replacement half-mean relative to per-position variance
    rescale = 1.0 / (1.0 / half - 1.0 / n_aligned)

    mus = signature_matrix(ref)  # (G, C)
    G = len(ref.genes)

    # pooled within-type variance per gene (noise init)
    ss = np.zeros(G)
    dof = 0
    for c, idx in enumerate(type_cols):
        centered = ref.values[:, idx] - mus[:, [c]]
        ss += (centered ** 2).sum(axis=1)
        dof += len(idx) - 1
    noise_vars = np.maximum(ss / max(dof, 1), _NOISE_FLOOR)

    # replicate means of every gene, (G, R, C), and their covariance over R
    reps = np.stack([ref.values[:, idx[subsets]].mean(axis=-1) for idx in type_cols],
                    axis=-1)
    dev = reps - reps.mean(axis=1, keepdims=True)
    S = np.einsum("grc,grd->gcd", dev, dev) * (1.0 / (N_PSEUDO_REPLICATES - 1)) * rescale
    diag = np.einsum("gcc->gc", S)
    sigma = (1.0 - shrinkage) * S + shrinkage * (diag[:, :, None] * np.eye(C))
    return GenePriors(genes=ref.genes, mu=mus,
                      sigma=_regularize_spd_all(sigma, diag.sum(axis=1), rescues),
                      noise_var=noise_vars)


SPD_TRIES = 60


def _regularize_spd_all(sigma: np.ndarray, trace_s: np.ndarray,
                        rescues: dict[str, int] | None = None) -> np.ndarray:
    """Each matrix of a (G, C, C) stack, symmetrized, plus the smallest jitter
    ``eps * 2**k`` times the identity (k < ``SPD_TRIES``) that gives it a
    Cholesky factor (``types._factor``), with eps = 1e-6 trace / C, or 1e-8
    for a trace that is not positive. Every matrix takes the first step at
    once; only those it leaves unfactored go through the doubling loop, all
    together, and are added to ``rescues["spd_jitter"]`` when it is given."""
    C = sigma.shape[-1]
    sigma = 0.5 * (sigma + np.swapaxes(sigma, 1, 2))
    eps = np.where(trace_s > 0, 1e-6 * trace_s / C, 1e-8)
    spd, pending = np.empty_like(sigma), np.arange(len(sigma))
    for k in range(SPD_TRIES):
        trial = sigma[pending] + (eps[pending] * 2.0 ** k)[:, None, None] * np.eye(C)
        ok = _factor(trial)[1]
        spd[pending[ok]] = trial[ok]
        pending = pending[~ok]
        if k == 0 and rescues is not None:
            rescues["spd_jitter"] += pending.size
        if not pending.size:
            return spd
    raise ValidationError("could not regularize covariance to positive definite")
