"""Hot inner loop for the blocked Gibbs sampler: one full sweep over all genes.

Genes are conditionally independent within a sweep, so each block runs once
for all of them rather than once per gene. The z block factors all G·N tiny
C×C precision matrices at once with a Cholesky written out over the small C
axis as elementwise operations on (G, N) arrays; the coefficient block shares
one design Gram matrix across genes and does one batched p×p factorization.
All randomness is passed in as pre-generated draws, so a sweep is a
deterministic function of its inputs.

Per (gene g, sample i) the latent C-vector z is drawn from its exact Gaussian
full conditional; coefficients get a conjugate Bayesian linear-regression
draw (Normal prior, mean 0, variance 1/coef_prior_prec per coordinate); the
noise variance gets an Inverse-Gamma draw expressed through a pre-generated
Gamma(a0 + N/2, 1) variate.
"""
from __future__ import annotations

import numpy as np


def _offset(gamma, b, design):
    """Covariate part of the mean, gamma_g' c1_i + w_i' B_g c2_i, as (G, N)."""
    theta = np.concatenate([gamma, b.reshape(b.shape[0], -1)], axis=1)
    return theta @ design.T


def _draw_z(r, w, sig_inv, sig_inv_mu, noise, eps_z):
    """Exact Gaussian draw of every z[g, i] through one pass over the C axis.

    The precision sig_inv[g] + w_i w_i' / noise[g] is factored as L L'. The
    draw is L'^{-1} (L^{-1} rhs + eps): the conditional mean plus a
    perturbation with covariance (L L')^{-1}.
    """
    C = w.shape[1]
    wt = w.T  # (C, N)
    noise = noise[:, None]
    scaled_r = r / noise  # (G, N)
    # chol[i][j] holds L[:, :, i, j] and y[j] the forward solve, each as (G, N)
    chol = [[None] * C for _ in range(C)]
    y = [None] * C
    for j in range(C):
        for i in range(j, C):
            acc = sig_inv[:, i, j, None] + (wt[i] * wt[j]) / noise
            for k in range(j):
                acc = acc - chol[i][k] * chol[j][k]
            chol[i][j] = np.sqrt(acc) if i == j else acc / chol[j][j]
        acc = sig_inv_mu[:, j, None] + wt[j] * scaled_r
        for k in range(j):
            acc = acc - chol[j][k] * y[k]
        y[j] = acc / chol[j][j]
    z = [None] * C
    for i in range(C - 1, -1, -1):
        acc = y[i] + eps_z[:, :, i]
        for k in range(i + 1, C):
            acc = acc - chol[k][i] * z[k]
        z[i] = acc / chol[i][i]
    return np.stack(z, axis=-1)


def sweep(x, w, c1, c2, sig_inv, sig_inv_mu, z, gamma, b, noise,
          eps_z, eps_coef, gamma_draws, coef_prior_prec, b0,
          update_coef, update_noise):
    """One in-place sweep; ``x`` is the (G, N) bulk matrix.

    A hand-written Cholesky gives NaN where LAPACK would raise, so a draw
    that is not finite raises ``np.linalg.LinAlgError`` naming the gene.
    """
    G, N = x.shape
    C = w.shape[1]
    d1 = c1.shape[1]
    d2 = c2.shape[1]
    p = d1 + C * d2
    # design rows [c1_i, w_i (x) c2_i] are gene-independent given w
    kron = (w[:, :, None] * c2[:, None, :]).reshape(N, C * d2)
    design = np.concatenate([c1, kron], axis=1)  # (N, p)

    with np.errstate(invalid="ignore", divide="ignore"):
        r = x - _offset(gamma, b, design)
        z[...] = _draw_z(r, w, sig_inv, sig_inv_mu, noise, eps_z)
        wz = np.einsum("gic,ic->gi", z, w)  # (G, N)

        if update_coef and p > 0:
            a_mat = (design.T @ design) / noise[:, None, None] + coef_prior_prec * np.eye(p)
            rhs_c = ((x - wz) @ design) / noise[:, None]
            lc = np.linalg.cholesky(a_mat)
            half = np.linalg.solve(lc, rhs_c[:, :, None])
            theta = np.linalg.solve(np.swapaxes(lc, 1, 2), half + eps_coef[:, :, None])[:, :, 0]
            gamma[...] = theta[:, :d1]
            b[...] = theta[:, d1:].reshape(G, C, d2)

        if update_noise:
            resid = x - wz - _offset(gamma, b, design)
            ss = np.einsum("gi,gi->g", resid, resid)
            noise[...] = (b0 + 0.5 * ss) / gamma_draws

    finite = (np.isfinite(z).all(axis=(1, 2)) & np.isfinite(gamma).all(axis=1)
              & np.isfinite(b).all(axis=(1, 2)) & np.isfinite(noise))
    if not finite.all():
        bad = int(np.argmin(finite))
        raise np.linalg.LinAlgError(
            f"Gibbs sweep produced a non-finite draw for gene index {bad}")


def resolve_backend():
    """Return the sweep kernel.

    ``engine`` looks the kernel up through this function on every run rather
    than importing ``sweep`` directly, so a profiler can time every sweep by
    replacing ``engine.resolve_backend`` with a wrapper; the benchmark's
    per-layer tracer in ``perfbench/`` relies on that hook.
    """
    return sweep
