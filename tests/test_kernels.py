"""Batched Gibbs sweep against the per-gene reference loop it replaced, and
the w'z draw, the z conditional given by the sweep's (q, s) and the
eigenbasis coefficient draw against their oracles."""
from __future__ import annotations

import numpy as np
import pytest

from diagnokit.kernels import prepare, resolve_backend, sweep

from oracles import AdjustmentParams, z_conditional


def coef_noise_per_gene(x, w, c1, c2, wz, gamma, b, noise, eps_coef, gamma_draws,
                        coef_prior_prec, b0, update_coef, update_noise):
    """Reference for a sweep's first two blocks: one gene at a time, given w'z,
    with a LAPACK Cholesky and solves."""
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
        if update_coef and p > 0:
            t = x[g] - wz[g]
            a_mat = design.T @ design / noise[g] + coef_prior_prec * eye_p
            rhs_c = design.T @ t / noise[g]
            lc = np.linalg.cholesky(a_mat)
            mean_c = np.linalg.solve(lc.T, np.linalg.solve(lc, rhs_c))
            theta = mean_c + np.linalg.solve(lc.T, eps_coef[g])
            gamma[g] = theta[:d1]
            b[g] = theta[d1:].reshape(C, d2)

        if update_noise:
            offset = c1 @ gamma[g] + np.einsum("ic,ic->i", w, c2 @ b[g].T)
            resid = x[g] - wz[g] - offset
            ss = float(resid @ resid)
            noise[g] = (b0 + 0.5 * ss) / gamma_draws[g]


def wz_per_gene(x, w, c1, c2, sig_inv, sig_inv_mu, gamma, b, noise, xi):
    """Reference for the w'z block: one gene at a time, a LAPACK Cholesky
    L L' of each precision and solves for z's conditional mean m and
    covariance V; returns w'm + sqrt(w'Vw) xi."""
    wz = np.empty_like(xi)
    for g in range(x.shape[0]):
        offset = c1 @ gamma[g] + np.einsum("ic,ic->i", w, c2 @ b[g].T)
        r = x[g] - offset  # (N,)
        prec = sig_inv[g][None, :, :] + w[:, :, None] * w[:, None, :] / noise[g]
        chol = np.linalg.cholesky(prec)
        rhs = sig_inv_mu[g][None, :] + w * (r / noise[g])[:, None]
        half = np.linalg.solve(chol, rhs[:, :, None])
        mean = np.linalg.solve(np.transpose(chol, (0, 2, 1)), half)[:, :, 0]
        half_w = np.linalg.solve(chol, w[:, :, None])[:, :, 0]  # w'Vw = |L^-1 w|^2
        wz[g] = np.einsum("ic,ic->i", w, mean) + np.sqrt((half_w ** 2).sum(axis=1)) * xi[g]
    return wz


def _problem(G, N, C, d1, d2, seed):
    """Inputs, a start state and one sweep's draws, as the engine builds them.

    ``inputs`` are (x, w, c1, c2, sigma, mu); ``state`` is (w'z, theta, noise)
    with theta = (gamma, vec B)."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((G, C, C))
    sigma = a @ np.swapaxes(a, 1, 2) + 0.5 * np.eye(C)
    mu = rng.normal(5.0, 2.0, (G, C))
    p = d1 + C * d2
    inputs = (rng.normal(5.0, 2.0, (G, N)), rng.dirichlet(np.ones(C), N),
              rng.standard_normal((N, d1)), rng.standard_normal((N, d2)), sigma, mu)
    wz, gamma, b = (rng.normal(5.0, 2.0, (G, N)), rng.standard_normal((G, d1)),
                    rng.standard_normal((G, C, d2)))
    state = (wz, np.concatenate([gamma, b.reshape(G, -1)], axis=1), rng.uniform(0.1, 2.0, G))
    draws = (rng.standard_normal((G, N)), rng.standard_normal((G, p)),
             rng.gamma(2.0 + 0.5 * N, 1.0, G), 0.1, 1.0)
    return inputs, state, draws


def _gamma_b(inputs, theta):
    """(gamma, B) from theta, in the shapes the per-gene references take."""
    _, w, c1, c2 = inputs[:4]
    d1 = c1.shape[1]
    return theta[:, :d1], theta[:, d1:].reshape(len(theta), w.shape[1], c2.shape[1])


def _factors(inputs):
    _, w, c1, c2, sigma, mu = inputs
    return prepare(w, c1, c2, np.linalg.cholesky(sigma), mu)


def _precision_inputs(inputs):
    """(x, w, c1, c2, sig_inv, sig_inv_mu): the per-gene reference's inputs."""
    sigma, mu = inputs[4:]
    sig_inv = np.linalg.inv(sigma)
    sig_inv = 0.5 * (sig_inv + np.swapaxes(sig_inv, 1, 2))
    return (*inputs[:4], sig_inv, np.einsum("gcd,gd->gc", sig_inv, mu))


def _reference_coef_draws(inputs, noise, eps_coef, prec):
    """The same for the coefficient normals: L_c' M eps_coef, L_c L_c' =
    D'D/noise + prec I, M = Q diag(eigvals/noise + prec)^(-1/2) from
    D'D = Q diag Q'."""
    _, w, c1, c2 = inputs[:4]
    N = w.shape[0]
    design = np.concatenate([c1, (w[:, :, None] * c2[:, None, :]).reshape(N, -1)], axis=1)
    p = design.shape[1]
    gram = design.T @ design
    vals, vecs = np.linalg.eigh(gram)
    d = np.maximum(vals, 0.0) / noise[:, None] + prec
    chol_coef = np.linalg.cholesky(gram / noise[:, None, None] + prec * np.eye(p))
    rot_coef = np.swapaxes(chol_coef, 1, 2) @ (vecs / np.sqrt(d)[:, None, :])
    return (rot_coef @ eps_coef[..., None])[..., 0]


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
    factors, ref_inputs = _factors(inputs), _precision_inputs(inputs)
    xi, eps_coef, gamma_draws, prec, b0 = draws
    ours = [s.copy() for s in state]
    ref_wz, noise = state[0].copy(), state[2].copy()
    gamma, b = (a.copy() for a in _gamma_b(inputs, state[1]))
    for _ in range(3):  # later sweeps start from updated w'z, coefficients and noise
        sweep(inputs[0], factors, *ours, *draws, update_coef, update_noise)
        coef_noise_per_gene(*ref_inputs[:4], ref_wz, gamma, b, noise,
                            _reference_coef_draws(inputs, noise, eps_coef, prec),
                            gamma_draws, prec, b0, update_coef, update_noise)
        ref_wz = wz_per_gene(*ref_inputs, gamma, b, noise, xi)
    got = (ours[0], *_gamma_b(inputs, ours[1]), ours[2])
    ref = (ref_wz, gamma, b, noise)
    for name, a, r in zip(("wz", "gamma", "b", "noise"), got, ref):
        np.testing.assert_allclose(a, r, rtol=1e-12, atol=1e-12, err_msg=name)
    if not update_coef:
        assert np.array_equal(ours[1], state[1])
    if not update_noise:
        assert np.array_equal(ours[2], state[2])


def _swept(inputs, factors, state, draws, update_coef=True, update_noise=True):
    """The state after one sweep, and the sweep's (q, s)."""
    out = [s.copy() for s in state]
    q, s = sweep(inputs[0], factors, *out, *draws, update_coef, update_noise)
    return out, q, s


def _conditionals(inputs, theta, noise):
    """``z_conditional``'s mean and covariance for every (gene, sample)."""
    x, w, c1, c2, sigma, mu = inputs
    gamma, b = _gamma_b(inputs, theta)
    G, N = x.shape
    C = w.shape[1]
    mean, cov = np.empty((G, N, C)), np.empty((G, N, C, C))
    for g in range(G):
        adj = AdjustmentParams(gamma=gamma[g], b=b[g])
        for i in range(N):
            mean[g, i], cov[g, i] = z_conditional(mu[g], sigma[g], noise[g], x[g, i],
                                                  w[i], c1[i], c2[i], adj)
    return mean, cov


@pytest.mark.parametrize("update_noise", [True, False])
@pytest.mark.parametrize("update_coef", [True, False])
@pytest.mark.parametrize("shape", SHAPES)
def test_z_conditional_from_q_and_s_is_exact(shape, update_coef, update_noise):
    """Per (gene, sample), given the coefficients and noise the same sweep
    drew: m = mu + (Sigma w) q and V = Sigma - (Sigma w)(Sigma w)'/s are z's
    conditional mean and covariance."""
    inputs, state, draws = _problem(*shape, seed=sum(shape) + 1)
    factors = _factors(inputs)
    (_, theta, noise), q, s = _swept(inputs, factors, state, draws,
                                     update_coef, update_noise)
    sigma_w = np.swapaxes(factors.sigma_w, 1, 2)  # (G, N, C)
    m = inputs[5][:, None, :] + sigma_w * q[..., None]
    v = (inputs[4][:, None] - sigma_w[..., :, None] * sigma_w[..., None, :]
         / s[..., None, None])
    want_m, want_v = _conditionals(inputs, theta, noise)
    np.testing.assert_allclose(m, want_m, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(v, want_v, rtol=1e-12, atol=1e-12)


def _coef_oracle(inputs, state, draws, factors):
    """The coefficient draw's mean, given the state's w'z, against
    solve(D'D/noise + prec I, D'(x - w'z)/noise); and its linear map M against
    M M' = (D'D/noise + prec I)^-1."""
    x = inputs[0]
    design, prec, wz, noise = factors.design, draws[3], state[0], state[2]
    p = design.shape[1]
    eps_coef = np.zeros_like(draws[1])

    def theta(eps):
        return _swept(inputs, factors, state, (draws[0], eps, *draws[2:]), True, False)[0][1]

    mean = theta(eps_coef)
    a_mat = design.T @ design / noise[:, None, None] + prec * np.eye(p)
    rhs = (x - wz) @ design / noise[:, None]
    np.testing.assert_allclose(mean, np.linalg.solve(a_mat, rhs[..., None])[..., 0],
                               rtol=1e-12, atol=1e-12)
    cols = []
    for j in range(p):
        unit = eps_coef.copy()
        unit[:, j] = 1.0
        cols.append(theta(unit) - mean)
    lin = np.stack(cols, axis=-1)  # (G, p, p)
    np.testing.assert_allclose(lin @ np.swapaxes(lin, 1, 2), np.linalg.inv(a_mat),
                               rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("shape", [s for s in SHAPES if s[3] + s[2] * s[4] > 0])
def test_eigenbasis_coefficient_draw_is_the_exact_conditional(shape):
    inputs, state, draws = _problem(*shape, seed=sum(shape) + 3)
    _coef_oracle(inputs, state, draws, _factors(inputs))


def test_coefficient_draw_with_rank_deficient_design():
    inputs, state, draws = _problem(6, 12, 3, 2, 1, seed=8)
    c1 = inputs[2].copy()
    c1[:, 1] = c1[:, 0]  # a repeated covariate column
    inputs = (*inputs[:2], c1, *inputs[3:])
    factors = _factors(inputs)
    assert np.linalg.matrix_rank(factors.design) < factors.design.shape[1]
    assert (factors.gram_vals >= 0).all()
    _coef_oracle(inputs, state, draws, factors)


@pytest.mark.parametrize("update_noise", [True, False])
@pytest.mark.parametrize("update_coef", [True, False])
@pytest.mark.parametrize("shape", SHAPES)
def test_burnin_w_dot_z_draw_is_the_exact_conditional(shape, update_coef, update_noise):
    """Every sweep's w'z draw (the burn-in sweep's before kept sweeps drew z
    too), per (gene, sample), given the coefficients and noise the same sweep
    drew first: its mean is w'm and its variance w'Vw, for the mean m and
    covariance V of z's conditional."""
    G, N = shape[:2]
    inputs, state, draws = _problem(*shape, seed=sum(shape) + 4)
    factors = _factors(inputs)
    flags = (update_coef, update_noise)
    mean, theta, noise = _swept(inputs, factors, state, (np.zeros((G, N)), *draws[1:]),
                                *flags)[0]
    sd = _swept(inputs, factors, state, (np.ones((G, N)), *draws[1:]), *flags)[0][0] - mean
    w = inputs[1]
    m, v = _conditionals(inputs, theta, noise)
    np.testing.assert_allclose(mean, np.einsum("gic,ic->gi", m, w), rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(sd ** 2, np.einsum("ic,gicd,id->gi", w, v, w),
                               rtol=1e-12, atol=1e-12)


def test_sweep_is_bitwise_deterministic():
    inputs, state, draws = _problem(9, 13, 3, 2, 1, seed=5)
    factors = _factors(inputs)
    (a, *qs_a), (b, *qs_b) = (_swept(inputs, factors, state, draws) for _ in range(2))
    for u, v in zip(a + qs_a, b + qs_b):
        assert np.array_equal(u, v)


def test_non_finite_bulk_value_raises_naming_the_gene():
    inputs, state, draws = _problem(6, 10, 3, 1, 1, seed=2)
    x = inputs[0].copy()
    x[4, 7] = np.nan
    with pytest.raises(np.linalg.LinAlgError, match="gene index 4"):
        _swept((x, *inputs[1:]), _factors(inputs), state, draws)


def test_non_finite_prior_mean_raises_naming_the_gene():
    # s >= noise > 0 leaves no square root of a negative number, so the
    # finite check is reached only through a non-finite input
    inputs, state, draws = _problem(4, 5, 2, 0, 0, seed=3)
    mu = inputs[5].copy()
    mu[2, 1] = np.inf
    with pytest.raises(np.linalg.LinAlgError, match="gene index 2"):
        _swept(inputs, _factors((*inputs[:5], mu)), state, draws)


def test_resolve_backend_returns_the_kernel():
    assert resolve_backend() is sweep
