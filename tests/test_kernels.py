"""Batched Gibbs sweep against the per-gene reference loop it replaced."""
from __future__ import annotations

import numpy as np
import pytest

from diagnokit.kernels import resolve_backend, sweep


def sweep_per_gene(x, w, c1, c2, sig_inv, sig_inv_mu, z, gamma, b, noise,
                   eps_z, eps_coef, gamma_draws, coef_prior_prec, b0,
                   update_coef, update_noise):
    """Reference: one gene at a time, LAPACK Cholesky and solves."""
    G, N = x.shape
    C = w.shape[1]
    d1 = c1.shape[1]
    d2 = c2.shape[1]
    p = d1 + C * d2
    eye_p = np.eye(p)
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


def _problem(G, N, C, d1, d2, seed):
    """Inputs, a start state and one sweep's draws, as the engine builds them."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((G, C, C))
    sigma = a @ np.swapaxes(a, 1, 2) + 0.5 * np.eye(C)
    sig_inv = np.linalg.inv(sigma)
    sig_inv = 0.5 * (sig_inv + np.swapaxes(sig_inv, 1, 2))
    mu = rng.normal(5.0, 2.0, (G, C))
    p = d1 + C * d2
    inputs = (rng.normal(5.0, 2.0, (G, N)), rng.dirichlet(np.ones(C), N),
              rng.standard_normal((N, d1)), rng.standard_normal((N, d2)),
              sig_inv, np.einsum("gcd,gd->gc", sig_inv, mu))
    state = (rng.normal(5.0, 2.0, (G, N, C)), rng.standard_normal((G, d1)),
             rng.standard_normal((G, C, d2)), rng.uniform(0.1, 2.0, G))
    draws = (rng.standard_normal((G, N, C)), rng.standard_normal((G, p)),
             rng.gamma(2.0 + 0.5 * N, 1.0, G), 0.1, 1.0)
    return inputs, state, draws


SHAPES = [  # (G, N, C, d1, d2)
    (7, 11, 3, 2, 1),
    (5, 9, 1, 1, 1),    # C = 1
    (4, 6, 4, 0, 2),    # d1 = 0
    (6, 8, 5, 3, 0),    # d2 = 0
    (3, 7, 2, 0, 0),    # no covariates at all
    (1, 1, 3, 1, 1),    # one gene, one sample
    (20, 40, 5, 2, 1),
]


@pytest.mark.parametrize("update_noise", [True, False])
@pytest.mark.parametrize("update_coef", [True, False])
@pytest.mark.parametrize("shape", SHAPES)
def test_batched_sweep_matches_per_gene_reference(shape, update_coef, update_noise):
    inputs, state, draws = _problem(*shape, seed=sum(shape))
    ours = [s.copy() for s in state]
    ref = [s.copy() for s in state]
    for _ in range(3):  # later sweeps start from updated coefficients and noise
        sweep(*inputs, *ours, *draws, update_coef, update_noise)
        sweep_per_gene(*inputs, *ref, *draws, update_coef, update_noise)
    for name, a, r in zip(("z", "gamma", "b", "noise"), ours, ref):
        np.testing.assert_allclose(a, r, rtol=1e-12, atol=1e-12, err_msg=name)
    if not update_coef:
        assert np.array_equal(ours[1], state[1]) and np.array_equal(ours[2], state[2])
    if not update_noise:
        assert np.array_equal(ours[3], state[3])


def test_sweep_is_bitwise_deterministic():
    inputs, state, draws = _problem(9, 13, 3, 2, 1, seed=5)
    a = [s.copy() for s in state]
    b = [s.copy() for s in state]
    sweep(*inputs, *a, *draws, True, True)
    sweep(*inputs, *b, *draws, True, True)
    for u, v in zip(a, b):
        assert np.array_equal(u, v)


def test_non_finite_bulk_value_raises_naming_the_gene():
    inputs, state, draws = _problem(6, 10, 3, 1, 1, seed=2)
    x = inputs[0].copy()
    x[4, 7] = np.nan
    with pytest.raises(np.linalg.LinAlgError, match="gene index 4"):
        sweep(x, *inputs[1:], *state, *draws, True, True)


def test_non_positive_definite_precision_raises():
    # an indefinite prior precision factors to NaN by hand, not to an error
    inputs, state, draws = _problem(4, 5, 2, 0, 0, seed=3)
    sig_inv = inputs[4].copy()
    sig_inv[2] = -np.eye(2) * 1e3
    with pytest.raises(np.linalg.LinAlgError, match="gene index 2"):
        sweep(*inputs[:4], sig_inv, *inputs[5:], *state, *draws, True, True)


def test_resolve_backend_returns_the_kernel():
    assert resolve_backend() is sweep
