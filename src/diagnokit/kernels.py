"""Hot inner loop for the blocked Gibbs sampler: one full sweep over all genes.

The per-sample update is vectorized across samples with batched linear
algebra. All randomness is passed in as pre-generated draws, so a sweep is a
deterministic function of its inputs.

Per (gene g, sample i) the latent C-vector z is drawn from its exact Gaussian
full conditional; coefficients get a conjugate Bayesian linear-regression
draw (Normal prior, mean 0, variance 1/coef_prior_prec per coordinate); the
noise variance gets an Inverse-Gamma draw expressed through a pre-generated
Gamma(a0 + N/2, 1) variate.
"""
from __future__ import annotations

import numpy as np


def sweep(x, w, c1, c2, sig_inv, sig_inv_mu, z, gamma, b, noise,
          eps_z, eps_coef, gamma_draws, coef_prior_prec, b0,
          update_coef, update_noise):
    """One in-place sweep; ``x`` is the (G, N) bulk matrix."""
    G, N = x.shape
    C = w.shape[1]
    d1 = c1.shape[1]
    d2 = c2.shape[1]
    p = d1 + C * d2
    eye_p = np.eye(p)
    # design rows [c1_i, w_i (x) c2_i] are gene-independent given w
    if p > 0:
        kron = (w[:, :, None] * c2[:, None, :]).reshape(N, C * d2)
        design = np.concatenate([c1, kron], axis=1)  # (N, p)
    for g in range(G):
        offset = c1 @ gamma[g] + np.einsum("ic,ic->i", w, c2 @ b[g].T)
        r = x[g] - offset  # (N,)
        prec = sig_inv[g][None, :, :] + w[:, :, None] * w[:, None, :] / noise[g]
        chol = np.linalg.cholesky(prec)
        rhs = sig_inv_mu[g][None, :] + w * (r / noise[g])[:, None]
        half = np.linalg.solve(chol, rhs[:, :, None])
        mean = np.linalg.solve(np.transpose(chol, (0, 2, 1)), half)[:, :, 0]
        pert = np.linalg.solve(np.transpose(chol, (0, 2, 1)), eps_z[g][:, :, None])[:, :, 0]
        z[g] = mean + pert

        if update_coef and p > 0:
            t = x[g] - np.einsum("ic,ic->i", w, z[g])
            a_mat = design.T @ design / noise[g] + coef_prior_prec * eye_p
            rhs_c = design.T @ t / noise[g]
            lc = np.linalg.cholesky(a_mat)
            mean_c = np.linalg.solve(lc.T, np.linalg.solve(lc, rhs_c))
            theta = mean_c + np.linalg.solve(lc.T, eps_coef[g])
            gamma[g] = theta[:d1]
            b[g] = theta[d1:].reshape(C, d2)

        if update_noise:
            offset = c1 @ gamma[g] + np.einsum("ic,ic->i", w, c2 @ b[g].T)
            resid = x[g] - np.einsum("ic,ic->i", w, z[g]) - offset
            ss = float(resid @ resid)
            noise[g] = (b0 + 0.5 * ss) / gamma_draws[g]


def resolve_backend():
    """Return the sweep kernel.

    ``engine`` looks the kernel up through this function on every run rather
    than importing ``sweep`` directly, so a profiler can time every sweep by
    replacing ``engine.resolve_backend`` with a wrapper; the benchmark's
    per-layer tracer in ``perfbench/`` relies on that hook.
    """
    return sweep
