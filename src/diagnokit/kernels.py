"""Hot inner loop for the blocked Gibbs sampler: one full sweep over all genes.

Genes are conditionally independent within a sweep, so each block runs once
for all of them. ``prepare`` computes once per run what a run does not change:
A = chol(Sigma_g), a = A'w_i and one eigendecomposition of the design Gram
matrix. Draws are passed in, so a sweep is a deterministic function of its
inputs. A sweep draws the coefficients, then the noise variance, then z. The
first two read z only through w_i'z_gi, which the chain state keeps: the
coefficients get a conjugate linear-regression draw (Normal prior, variance
1/coef_prior_prec), elementwise in the Gram matrix's eigenbasis; the noise
variance an Inverse-Gamma draw through a pre-generated Gamma(a0 + N/2, 1)
variate. A kept sweep then draws z from its exact Gaussian conditional by
pathwise conditioning (Matheron's rule; Doucet 2010), where
s = noise + |a|^2 >= noise > 0 keeps every square root real. A burn-in sweep
needs no z, so it draws only w'z from its 1-D conditional, one normal per
(gene, sample) (the collapsed step of Liu, Wong & Kong 1994; van Dyk & Park
2008); the chain on (coefficients, noise) keeps the same transition law.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np


class RunFactors(NamedTuple):
    """What a sweep needs that stays fixed for a run (see ``prepare``)."""

    design: np.ndarray     # (N, p) rows [c1_i, w_i (x) c2_i]
    gram_vals: np.ndarray  # (p,) eigenvalues of design'design, clipped at 0
    gram_vecs: np.ndarray  # (p, p) their eigenvectors Q
    chol: np.ndarray       # (G, C, C) lower Cholesky factor A of each prior covariance
    mu: np.ndarray         # (G, C) prior means
    a: np.ndarray          # (C, G, N) a = A'w_i
    a_sq: np.ndarray       # (G, N) |a|^2
    w_mu: np.ndarray       # (G, N) w_i'mu_g


def prepare(w, c1, c2, chol, mu) -> RunFactors:
    """The run's ``RunFactors`` from proportions, covariates and chol(Sigma)."""
    N, C = w.shape
    kron = (w[:, :, None] * c2[:, None, :]).reshape(N, C * c2.shape[1])
    design = np.concatenate([c1, kron], axis=1)
    gram_vals, gram_vecs = np.linalg.eigh(design.T @ design)
    a = (chol.transpose(2, 0, 1).reshape(-1, C) @ w.T).reshape(C, len(chol), N)
    return RunFactors(design, np.maximum(gram_vals, 0.0), gram_vecs, chol, mu,
                      a, np.einsum("cgi,cgi->gi", a, a), mu @ w.T)


def _draw_z(r, f: RunFactors, noise, eps_z, z):
    """Write the exact Gaussian draw of every z[g, i] into ``z``; return w'z.

    z = mu + A (eps + a ((r - w'mu)/s - beta a'eps)), beta = 1/(s + sqrt(s noise)),
    whose mean is the Woodbury form of the conditional mean and whose
    covariance A (I - beta a a')^2 A' = A (I - a a'/s) A' is the conditional
    covariance. Each term is a (G, N) array, one per cell type.
    """
    C = f.mu.shape[1]
    noise = noise[:, None]
    s = noise + f.a_sq
    eps = [eps_z[:, :, c] for c in range(C)]
    a_eps = f.a[0] * eps[0]
    for c in range(1, C):
        a_eps += f.a[c] * eps[c]
    coef = (r - f.w_mu) / s - a_eps / (s + np.sqrt(s * noise))
    u = [eps[c] + f.a[c] * coef for c in range(C)]
    for c in range(C):
        acc = f.mu[:, c, None] + f.chol[:, c, 0, None] * u[0]
        for k in range(1, c + 1):
            acc += f.chol[:, c, k, None] * u[k]
        z[:, :, c] = acc
    return f.w_mu + a_eps + f.a_sq * coef


def _draw_wz(r, f: RunFactors, noise, xi):
    """The exact draw of every w'z[g, i] alone: mean w'mu + |a|^2 (r - w'mu)/s,
    variance w'(Sigma - Sigma w w'Sigma/s)w = |a|^2 noise/s, with one standard
    normal ``xi`` per (gene, sample)."""
    noise = noise[:, None]
    k = f.a_sq / (noise + f.a_sq)  # |a|^2/s
    return f.w_mu + k * (r - f.w_mu) + np.sqrt(k * noise) * xi


def sweep(x, f: RunFactors, wz, z, gamma, b, noise, eps_z, eps_coef, gamma_draws,
          coef_prior_prec, b0, update_coef, update_noise):
    """One in-place sweep; ``x`` is the (G, N) bulk matrix and ``wz`` the
    chain's (G, N) w_i'z_gi, which the coefficient and noise draws read.

    With a (G, N, C) buffer ``z`` (a kept sweep), ``eps_z`` is (G, N, C) and
    z is drawn into ``z``; with ``z`` None (a burn-in sweep), ``eps_z`` is
    (G, N) and only w'z is drawn. Either way ``wz`` is then the new w'z. A draw
    that is not finite (from a non-finite input) raises
    ``np.linalg.LinAlgError`` naming the gene.
    """
    with np.errstate(invalid="ignore", divide="ignore"):
        if update_coef and f.design.shape[1]:
            # a_g = Q diag(gram_vals/noise_g + prec) Q', so the draw is
            # elementwise in Q's basis
            d = f.gram_vals / noise[:, None] + coef_prior_prec
            rhs = (((x - wz) @ f.design) / noise[:, None]) @ f.gram_vecs
            theta = (rhs / d + eps_coef / np.sqrt(d)) @ f.gram_vecs.T
            gamma[...] = theta[:, :gamma.shape[1]]
            b[...] = theta[:, gamma.shape[1]:].reshape(b.shape)

        # x less the covariate part of the mean, gamma_g' c1_i + w_i' B_g c2_i
        r = x - np.concatenate([gamma, b.reshape(len(b), -1)], axis=1) @ f.design.T
        if update_noise:
            resid = r - wz
            ss = np.einsum("gi,gi->g", resid, resid)
            noise[...] = (b0 + 0.5 * ss) / gamma_draws

        wz[...] = _draw_wz(r, f, noise, eps_z) if z is None else _draw_z(r, f, noise, eps_z, z)

    finite = (np.isfinite(wz).all(axis=1) & np.isfinite(gamma).all(axis=1)
              & np.isfinite(b).all(axis=(1, 2)) & np.isfinite(noise))
    if z is not None:
        finite &= np.isfinite(z).all(axis=(1, 2))
    if not finite.all():
        bad = int(np.argmin(finite))
        raise np.linalg.LinAlgError(
            f"Gibbs sweep produced a non-finite draw for gene index {bad}")


def resolve_backend():
    """Return the sweep kernel. ``engine`` looks it up here on every run, so a
    profiler (the per-layer tracer in ``perfbench/``) can time every sweep by
    replacing ``engine.resolve_backend`` with a wrapper."""
    return sweep
