"""Hot inner loop for the blocked Gibbs sampler: one full sweep over all genes.

Genes are conditionally independent within a sweep, so each block runs once
for all of them. ``prepare`` computes once per run what a run does not change:
|a|^2 and Sigma_g w_i from A = chol(Sigma_g) and a = A'w_i, and one
eigendecomposition of the design Gram matrix. Draws are passed in, so a sweep
is a deterministic function of its inputs. A sweep draws the coefficients
theta = (gamma, vec B), one (G, d1 + C d2) block in the design's column
order, then the noise variance, then w'z; the first two read z only through
w_i'z_gi, which the chain state keeps. The coefficients get a conjugate
linear-regression draw (Normal prior, variance 1/coef_prior_prec),
elementwise in the Gram matrix's eigenbasis; the noise variance an
Inverse-Gamma draw through a pre-generated Gamma(a0 + N/2, 1) variate. No
sweep draws z itself: w'z is drawn from its 1-D conditional, one normal per
(gene, sample) (the collapsed step of Liu, Wong & Kong 1994; van Dyk & Park
2008), where s = noise + |a|^2 >= noise > 0 keeps every square root real. A
sweep returns q = (r - w'mu)/s and s, which give z's Gaussian conditional:
mean mu + (Sigma w) q and covariance Sigma - (Sigma w)(Sigma w)'/s.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np


class NonFiniteDraw(np.linalg.LinAlgError):
    """A sweep drew a value that is not finite; ``row`` is the first gene's row."""

    def __init__(self, row: int):
        super().__init__(f"Gibbs sweep produced a non-finite draw for gene index {row}")
        self.row = row


class RunFactors(NamedTuple):
    """What a run needs that stays fixed for it (see ``prepare``)."""

    design: np.ndarray     # (N, p) rows [c1_i, w_i (x) c2_i]
    gram_vals: np.ndarray  # (p,) eigenvalues of design'design, clipped at 0
    gram_vecs: np.ndarray  # (p, p) their eigenvectors Q
    mu: np.ndarray         # (G, C) prior means
    sigma_w: np.ndarray    # (G, C, N) Sigma_g w_i = A a
    a_sq: np.ndarray       # (G, N) |a|^2 = w_i'Sigma_g w_i
    w_mu: np.ndarray       # (G, N) w_i'mu_g


def prepare(w, c1, c2, chol, mu) -> RunFactors:
    """The run's ``RunFactors`` from proportions, covariates and chol(Sigma)."""
    N, C = w.shape
    kron = (w[:, :, None] * c2[:, None, :]).reshape(N, C * c2.shape[1])
    design = np.concatenate([c1, kron], axis=1)
    gram_vals, gram_vecs = np.linalg.eigh(design.T @ design)
    a = np.swapaxes(chol, 1, 2) @ w.T  # (G, C, N) a = A'w_i
    return RunFactors(design, np.maximum(gram_vals, 0.0), gram_vecs, mu, chol @ a,
                      np.einsum("gci,gci->gi", a, a), mu @ w.T)


def _draw_wz(r, f: RunFactors, noise, xi):
    """The exact draw of every w'z[g, i], with q = (r - w'mu)/s and s: mean
    w'mu + |a|^2 q, variance w'(Sigma - Sigma w w'Sigma/s)w = |a|^2 noise/s,
    with one standard normal ``xi`` per (gene, sample)."""
    noise = noise[:, None]
    s = noise + f.a_sq
    q = (r - f.w_mu) / s
    return f.w_mu + f.a_sq * q + np.sqrt(f.a_sq * noise / s) * xi, q, s


def sweep(x, f: RunFactors, wz, theta, noise, xi, eps_coef, gamma_draws,
          coef_prior_prec, b0, update_coef, update_noise):
    """One in-place sweep; ``x`` is the (G, N) bulk matrix, ``wz`` the chain's
    (G, N) w_i'z_gi, which the coefficient and noise draws read and the sweep
    then redraws, and ``theta`` its (G, p) coefficients. Returns the (G, N)
    arrays (q, s) of the new conditional of z (see the module docstring). A
    draw that is not finite (from a non-finite or huge input) raises
    ``NonFiniteDraw`` naming the gene's row.
    """
    with np.errstate(invalid="ignore", divide="ignore"):
        if update_coef:
            # a_g = Q diag(gram_vals/noise_g + prec) Q', so the draw is
            # elementwise in Q's basis
            d = f.gram_vals / noise[:, None] + coef_prior_prec
            rhs = (((x - wz) @ f.design) / noise[:, None]) @ f.gram_vecs
            theta[...] = (rhs / d + eps_coef / np.sqrt(d)) @ f.gram_vecs.T

        # x less the covariate part of the mean, gamma_g' c1_i + w_i' B_g c2_i
        r = x - theta @ f.design.T
        if update_noise:
            resid = r - wz
            ss = np.einsum("gi,gi->g", resid, resid)
            noise[...] = (b0 + 0.5 * ss) / gamma_draws

        wz[...], q, s = _draw_wz(r, f, noise, xi)

    finite = np.isfinite(wz).all(axis=1) & np.isfinite(theta).all(axis=1) & np.isfinite(noise)
    if not finite.all():
        raise NonFiniteDraw(int(np.argmin(finite)))
    return q, s


def resolve_backend():
    """Return the sweep kernel. ``engine`` looks it up here on every run, so a
    profiler (the per-layer tracer in ``perfbench/``) can time every sweep by
    replacing ``engine.resolve_backend`` with a wrapper."""
    return sweep
