"""Batched Gibbs sweep against the per-gene reference loop it replaced, and
the pathwise z draw and eigenbasis coefficient draw against their oracles."""
from __future__ import annotations

import numpy as np
import pytest

from diagnokit.kernels import _draw_z, prepare, resolve_backend, sweep


def draw_z_cholesky(r, w, sig_inv, sig_inv_mu, noise, eps_z):
    """Reference: the former z block. It factors every precision
    sig_inv[g] + w_i w_i' / noise[g] as L L' with a Cholesky written out over
    the C axis and returns L'^{-1} (L^{-1} rhs + eps)."""
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
    """Inputs, a start state and one sweep's draws, as the engine builds them.

    ``inputs`` are (x, w, c1, c2, sigma, mu)."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((G, C, C))
    sigma = a @ np.swapaxes(a, 1, 2) + 0.5 * np.eye(C)
    mu = rng.normal(5.0, 2.0, (G, C))
    p = d1 + C * d2
    inputs = (rng.normal(5.0, 2.0, (G, N)), rng.dirichlet(np.ones(C), N),
              rng.standard_normal((N, d1)), rng.standard_normal((N, d2)), sigma, mu)
    state = (rng.normal(5.0, 2.0, (G, N, C)), rng.standard_normal((G, d1)),
             rng.standard_normal((G, C, d2)), rng.uniform(0.1, 2.0, G))
    draws = (rng.standard_normal((G, N, C)), rng.standard_normal((G, p)),
             rng.gamma(2.0 + 0.5 * N, 1.0, G), 0.1, 1.0)
    return inputs, state, draws


def _factors(inputs):
    _, w, c1, c2, sigma, mu = inputs
    return prepare(w, c1, c2, np.linalg.cholesky(sigma), mu)


def _precision_inputs(inputs):
    """(x, w, c1, c2, sig_inv, sig_inv_mu): the per-gene reference's inputs."""
    sigma, mu = inputs[4:]
    sig_inv = np.linalg.inv(sigma)
    sig_inv = 0.5 * (sig_inv + np.swapaxes(sig_inv, 1, 2))
    return (*inputs[:4], sig_inv, np.einsum("gcd,gd->gc", sig_inv, mu))


def _precision(sig_inv, w, noise):
    """Every (gene, sample) precision sig_inv[g] + w_i w_i' / noise[g]."""
    return sig_inv[:, None] + (w[:, :, None] * w[:, None, :])[None] / noise[:, None, None, None]


def _pathwise_map(sigma, w, noise):
    """S = A (I - beta a a') per (gene, sample), A = chol(sigma), a = A'w:
    the linear part of the pathwise draw, written with matrices."""
    chol = np.linalg.cholesky(sigma)
    a = np.einsum("gkc,ik->gic", chol, w)
    s = noise[:, None] + (a * a).sum(axis=-1)
    beta = 1.0 / (s + np.sqrt(s * noise[:, None]))
    proj = np.eye(w.shape[1]) - beta[..., None, None] * a[..., :, None] * a[..., None, :]
    return chol[:, None] @ proj


def _reference_draws(inputs, noise, eps_z, eps_coef, prec):
    """The reference's normals for the kernel's: L' S eps for z, L L' the
    precision, and L_c' M eps_coef for the coefficients, L_c L_c' = D'D/noise
    + prec I, M = Q diag(eigvals/noise + prec)^(-1/2) from D'D = Q diag Q'.
    L' S and L_c' M are orthogonal, so these are standard normals too, and
    they give the reference the kernel's draws."""
    _, w, c1, c2, sig_inv, _ = _precision_inputs(inputs)
    chol_prec = np.linalg.cholesky(_precision(sig_inv, w, noise))
    rot = np.swapaxes(chol_prec, -1, -2) @ _pathwise_map(inputs[4], w, noise)
    N, C = w.shape
    design = np.concatenate([c1, (w[:, :, None] * c2[:, None, :]).reshape(N, -1)], axis=1)
    p = design.shape[1]
    gram = design.T @ design
    vals, vecs = np.linalg.eigh(gram)
    d = np.maximum(vals, 0.0) / noise[:, None] + prec
    chol_coef = np.linalg.cholesky(gram / noise[:, None, None] + prec * np.eye(p))
    rot_coef = np.swapaxes(chol_coef, 1, 2) @ (vecs / np.sqrt(d)[:, None, :])
    return (rot @ eps_z[..., None])[..., 0], (rot_coef @ eps_coef[..., None])[..., 0]


def _offset(inputs, gamma, b):
    _, w, c1, c2 = inputs[:4]
    return gamma @ c1.T + np.einsum("ic,gcd,id->gi", w, b, c2)


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
    ours = [s.copy() for s in state]
    ref = [s.copy() for s in state]
    for _ in range(3):  # later sweeps start from updated coefficients and noise
        ref_draws = _reference_draws(inputs, ref[3], *draws[:2], draws[3])
        sweep(inputs[0], factors, *ours, *draws, update_coef, update_noise)
        sweep_per_gene(*ref_inputs, *ref, *ref_draws, *draws[2:], update_coef, update_noise)
    for name, a, r in zip(("z", "gamma", "b", "noise"), ours, ref):
        np.testing.assert_allclose(a, r, rtol=1e-12, atol=1e-12, err_msg=name)
    if not update_coef:
        assert np.array_equal(ours[1], state[1]) and np.array_equal(ours[2], state[2])
    if not update_noise:
        assert np.array_equal(ours[3], state[3])


def _swept(inputs, factors, state, draws, update_coef=True, update_noise=True):
    out = [s.copy() for s in state]
    sweep(inputs[0], factors, *out, *draws, update_coef, update_noise)
    return out


@pytest.mark.parametrize("update_noise", [True, False])
@pytest.mark.parametrize("update_coef", [True, False])
@pytest.mark.parametrize("shape", SHAPES)
def test_pathwise_z_draw_is_the_exact_conditional(shape, update_coef, update_noise):
    """Per (gene, sample): the draw is affine in eps, its mean is the
    precision-Cholesky reference's, and its linear map S has S S' = prec^-1."""
    G, N, C = shape[:3]
    inputs, state, draws = _problem(*shape, seed=sum(shape) + 1)
    factors = _factors(inputs)
    x, w, _, _, sig_inv, sig_inv_mu = _precision_inputs(inputs)
    flags = (update_coef, update_noise)
    zero = np.zeros((G, N, C))
    z0 = _swept(inputs, factors, state, (zero, *draws[1:]), *flags)[0]
    r = x - _offset(inputs, state[1], state[2])
    mean = draw_z_cholesky(r, w, sig_inv, sig_inv_mu, state[3], zero)
    np.testing.assert_allclose(z0, mean, rtol=1e-12, atol=1e-12)

    cols = []
    for c in range(C):
        unit = zero.copy()
        unit[:, :, c] = 1.0
        cols.append(_swept(inputs, factors, state, (unit, *draws[1:]), *flags)[0] - z0)
    lin = np.stack(cols, axis=-1)  # (G, N, C, C): S per (gene, sample)
    prod = lin @ np.swapaxes(lin, -1, -2) @ _precision(sig_inv, w, state[3])
    np.testing.assert_allclose(prod, np.broadcast_to(np.eye(C), prod.shape), atol=1e-12)
    z = _swept(inputs, factors, state, draws, *flags)[0]
    np.testing.assert_allclose(z, z0 + (lin @ draws[0][..., None])[..., 0],
                               rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("shape", SHAPES)
def test_pathwise_z_draw_returns_w_dot_z(shape):
    inputs, state, draws = _problem(*shape, seed=sum(shape) + 2)
    factors = _factors(inputs)
    r = inputs[0] - _offset(inputs, state[1], state[2])
    z = np.empty_like(state[0])
    wz = _draw_z(r, factors, state[3], draws[0], z)
    np.testing.assert_allclose(wz, np.einsum("gic,ic->gi", z, inputs[1]), rtol=1e-12)


def _coef_oracle(inputs, state, draws, factors):
    """The coefficient draw's mean, from z drawn with ``draws[0]``, against
    solve(D'D/noise + prec I, D'(x - w'z)/noise); and its linear map M against
    M M' = (D'D/noise + prec I)^-1."""
    x, w = inputs[:2]
    design, prec, noise = factors.design, draws[3], state[3]
    p = design.shape[1]
    eps_coef = np.zeros_like(draws[1])

    def theta(eps):
        out = _swept(inputs, factors, state, (draws[0], eps, *draws[2:]), True, False)
        return np.concatenate([out[1], out[2].reshape(len(x), -1)], axis=1), out[0]

    mean, z = theta(eps_coef)
    a_mat = design.T @ design / noise[:, None, None] + prec * np.eye(p)
    rhs = (x - np.einsum("gic,ic->gi", z, w)) @ design / noise[:, None]
    np.testing.assert_allclose(mean, np.linalg.solve(a_mat, rhs[..., None])[..., 0],
                               rtol=1e-12, atol=1e-12)
    cols = []
    for j in range(p):
        unit = eps_coef.copy()
        unit[:, j] = 1.0
        cols.append(theta(unit)[0] - mean)
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


def test_sweep_is_bitwise_deterministic():
    inputs, state, draws = _problem(9, 13, 3, 2, 1, seed=5)
    factors = _factors(inputs)
    a = _swept(inputs, factors, state, draws)
    b = _swept(inputs, factors, state, draws)
    for u, v in zip(a, b):
        assert np.array_equal(u, v)


def test_non_finite_bulk_value_raises_naming_the_gene():
    inputs, state, draws = _problem(6, 10, 3, 1, 1, seed=2)
    x = inputs[0].copy()
    x[4, 7] = np.nan
    with pytest.raises(np.linalg.LinAlgError, match="gene index 4"):
        sweep(x, _factors(inputs), *state, *draws, True, True)


def test_non_finite_prior_mean_raises_naming_the_gene():
    # s >= noise > 0 leaves no square root of a negative number, so the
    # finite check is reached only through a non-finite input
    inputs, state, draws = _problem(4, 5, 2, 0, 0, seed=3)
    mu = inputs[5].copy()
    mu[2, 1] = np.inf
    with pytest.raises(np.linalg.LinAlgError, match="gene index 2"):
        sweep(inputs[0], _factors((*inputs[:5], mu)), *state, *draws, True, True)


def test_resolve_backend_returns_the_kernel():
    assert resolve_backend() is sweep
