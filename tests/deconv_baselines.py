"""Baseline deconvolvers the tests compare the Gibbs engine against.

No command uses them. ``nnls_proportions`` needs scipy, a test dependency.
"""
from __future__ import annotations

import numpy as np
from scipy.optimize import nnls

from diagnokit.errors import ValidationError
from diagnokit.reference import ReferenceDataset, signature_matrix
from diagnokit.types import BulkMatrix, CtsTensor, SampleMetas


def nnls_proportions(bulk_column, signature) -> np.ndarray:
    """Non-negative least squares proportions, renormalized to the simplex.

    Uses the Lawson-Hanson active-set solver.
    """
    x = np.asarray(bulk_column, dtype=np.float64)
    s = np.asarray(signature, dtype=np.float64)
    if s.ndim != 2 or x.shape != (s.shape[0],):
        raise ValidationError("signature must be G x C and bulk_column length G")
    if s.shape[0] < s.shape[1]:
        raise ValidationError("need at least as many genes as cell types")
    if np.linalg.matrix_rank(s) < s.shape[1]:
        raise ValidationError("signature columns are rank deficient")
    p, _ = nnls(s, x)
    total = p.sum()
    if total == 0.0:
        raise ValidationError("all-zero NNLS solution cannot be normalized")
    return p / total


def baseline_reference_mean(ref: ReferenceDataset, bulk: BulkMatrix) -> CtsTensor:
    """Naive baseline: every sample gets the reference per-type mean."""
    missing = [g for g in bulk.genes if g not in set(ref.genes)]
    if missing:
        raise ValidationError(f"bulk genes absent from reference: {missing[:5]}")
    idx = [ref.genes.index(g) for g in bulk.genes]
    sig = signature_matrix(ref)[idx]  # (G, C)
    cts = ref.cell_types
    within_var = np.column_stack([
        ref.values[np.ix_(idx, ref.type_columns(ct))].var(axis=1, ddof=1) for ct in cts])
    N = bulk.n_samples
    mean = np.repeat(sig[:, :, None], N, axis=2)
    var = np.repeat(within_var[:, :, None], N, axis=2)
    return CtsTensor(genes=bulk.genes, cell_types=cts, samples=bulk.samples,
                     mean=mean, variance=var)


def baseline_ols(bulk: BulkMatrix, metas: SampleMetas) -> CtsTensor:
    """Per-gene OLS of bulk on proportions, with the per-sample residual
    redistributed along w. Ignores covariates. The metas are joined to the
    bulk samples by ID and name the output's cell types."""
    metas = metas.take(bulk.samples, metas.cell_types)
    w = metas.proportions  # (N, C)
    G, N = bulk.values.shape
    C = w.shape[1]
    beta, *_ = np.linalg.lstsq(w, bulk.values.T, rcond=None)  # (C, G)
    beta = beta.T  # (G, C)
    resid = bulk.values - beta @ w.T  # (G, N)
    wn = (w ** 2).sum(axis=1)  # (N,)
    mean = beta[:, :, None] + np.einsum("gn,nc->gcn", resid / wn[None, :], w)
    return CtsTensor(genes=bulk.genes, cell_types=metas.cell_types, samples=bulk.samples,
                     mean=mean, variance=np.zeros((G, C, N)))
