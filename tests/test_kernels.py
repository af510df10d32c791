"""Batched Gibbs sweep against the per-gene reference loop it replaced, and
the pathwise z draw, the burn-in w'z draw and the eigenbasis coefficient draw
against their oracles."""
from __future__ import annotations

import numpy as np
import pytest

from diagnokit.kernels import _draw_z, prepare, resolve_backend, sweep
from diagnokit.types import AdjustmentParams, SampleMeta

from oracles import z_conditional


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


def z_per_gene(x, w, c1, c2, sig_inv, sig_inv_mu, z, gamma, b, noise, eps_z):
    """Reference for a kept sweep's z block: one gene at a time, a LAPACK
    Cholesky of each precision and solves. Returns w'z."""
    for g in range(x.shape[0]):
        offset = c1 @ gamma[g] + np.einsum("ic,ic->i", w, c2 @ b[g].T)
        r = x[g] - offset  # (N,)
        prec = sig_inv[g][None, :, :] + w[:, :, None] * w[:, None, :] / noise[g]
        chol = np.linalg.cholesky(prec)
        rhs = sig_inv_mu[g][None, :] + w * (r / noise[g])[:, None]
        half = np.linalg.solve(chol, rhs[:, :, None])
        mean = np.linalg.solve(np.transpose(chol, (0, 2, 1)), half)[:, :, 0]
        pert = np.linalg.solve(np.transpose(chol, (0, 2, 1)), eps_z[g][:, :, None])[:, :, 0]
        z[g] = mean + pert
    return np.einsum("gic,ic->gi", z, w)


def _problem(G, N, C, d1, d2, seed):
    """Inputs, a start state and one kept sweep's draws, as the engine builds
    them.

    ``inputs`` are (x, w, c1, c2, sigma, mu); ``state`` is (w'z, a z buffer,
    gamma, B, noise)."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((G, C, C))
    sigma = a @ np.swapaxes(a, 1, 2) + 0.5 * np.eye(C)
    mu = rng.normal(5.0, 2.0, (G, C))
    p = d1 + C * d2
    inputs = (rng.normal(5.0, 2.0, (G, N)), rng.dirichlet(np.ones(C), N),
              rng.standard_normal((N, d1)), rng.standard_normal((N, d2)), sigma, mu)
    state = (rng.normal(5.0, 2.0, (G, N)), np.zeros((G, N, C)),
             rng.standard_normal((G, d1)), rng.standard_normal((G, C, d2)),
             rng.uniform(0.1, 2.0, G))
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


def _reference_z_draws(inputs, noise, eps_z):
    """The reference's normals for the kernel's z normals: L' S eps, L L' the
    precision. L' S is orthogonal, so these are standard normals too, and they
    give the reference the kernel's draw."""
    sig_inv, w = _precision_inputs(inputs)[4], inputs[1]
    chol_prec = np.linalg.cholesky(_precision(sig_inv, w, noise))
    rot = np.swapaxes(chol_prec, -1, -2) @ _pathwise_map(inputs[4], w, noise)
    return (rot @ eps_z[..., None])[..., 0]


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
    eps_z, eps_coef, gamma_draws, prec, b0 = draws
    ours = [s.copy() for s in state]
    ref_wz, ref_z, *ref_rest = [s.copy() for s in state]
    gamma, b, noise = ref_rest
    for _ in range(3):  # later sweeps start from updated w'z, coefficients and noise
        sweep(inputs[0], factors, *ours, *draws, update_coef, update_noise)
        coef_noise_per_gene(*ref_inputs[:4], ref_wz, gamma, b, noise,
                            _reference_coef_draws(inputs, noise, eps_coef, prec),
                            gamma_draws, prec, b0, update_coef, update_noise)
        ref_wz = z_per_gene(*ref_inputs, ref_z, gamma, b, noise,
                            _reference_z_draws(inputs, noise, eps_z))
    ref = (ref_wz, ref_z, gamma, b, noise)
    for name, a, r in zip(("wz", "z", "gamma", "b", "noise"), ours, ref):
        np.testing.assert_allclose(a, r, rtol=1e-12, atol=1e-12, err_msg=name)
    if not update_coef:
        assert np.array_equal(ours[2], state[2]) and np.array_equal(ours[3], state[3])
    if not update_noise:
        assert np.array_equal(ours[4], state[4])


def _swept(inputs, factors, state, draws, update_coef=True, update_noise=True):
    out = [None if s is None else s.copy() for s in state]
    sweep(inputs[0], factors, *out, *draws, update_coef, update_noise)
    return out


def _burnin(state, draws, xi=None):
    """A burn-in sweep's state and draws from a kept sweep's: no z buffer, and
    one normal per (gene, sample), by default the first cell type's."""
    return (state[0], None, *state[2:]), (draws[0][..., 0] if xi is None else xi, *draws[1:])


@pytest.mark.parametrize("update_noise", [True, False])
@pytest.mark.parametrize("update_coef", [True, False])
@pytest.mark.parametrize("shape", SHAPES)
def test_pathwise_z_draw_is_the_exact_conditional(shape, update_coef, update_noise):
    """Per (gene, sample): the draw is affine in eps, its mean is the
    precision-Cholesky reference's, and its linear map S has S S' = prec^-1.
    It conditions on the coefficients and noise the same sweep drew first."""
    G, N, C = shape[:3]
    inputs, state, draws = _problem(*shape, seed=sum(shape) + 1)
    factors = _factors(inputs)
    x, w, _, _, sig_inv, sig_inv_mu = _precision_inputs(inputs)
    flags = (update_coef, update_noise)
    zero = np.zeros((G, N, C))
    swept = _swept(inputs, factors, state, (zero, *draws[1:]), *flags)
    z0, gamma, b, noise = swept[1:]
    r = x - _offset(inputs, gamma, b)
    mean = draw_z_cholesky(r, w, sig_inv, sig_inv_mu, noise, zero)
    np.testing.assert_allclose(z0, mean, rtol=1e-12, atol=1e-12)

    cols = []
    for c in range(C):
        unit = zero.copy()
        unit[:, :, c] = 1.0
        cols.append(_swept(inputs, factors, state, (unit, *draws[1:]), *flags)[1] - z0)
    lin = np.stack(cols, axis=-1)  # (G, N, C, C): S per (gene, sample)
    prod = lin @ np.swapaxes(lin, -1, -2) @ _precision(sig_inv, w, noise)
    np.testing.assert_allclose(prod, np.broadcast_to(np.eye(C), prod.shape), atol=1e-12)
    z = _swept(inputs, factors, state, draws, *flags)[1]
    np.testing.assert_allclose(z, z0 + (lin @ draws[0][..., None])[..., 0],
                               rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("shape", SHAPES)
def test_pathwise_z_draw_returns_w_dot_z(shape):
    inputs, state, draws = _problem(*shape, seed=sum(shape) + 2)
    factors = _factors(inputs)
    r = inputs[0] - _offset(inputs, state[2], state[3])
    z = np.empty_like(state[1])
    wz = _draw_z(r, factors, state[4], draws[0], z)
    np.testing.assert_allclose(wz, np.einsum("gic,ic->gi", z, inputs[1]), rtol=1e-12)


def _coef_oracle(inputs, state, draws, factors):
    """The coefficient draw's mean, given the state's w'z, against
    solve(D'D/noise + prec I, D'(x - w'z)/noise); and its linear map M against
    M M' = (D'D/noise + prec I)^-1."""
    x = inputs[0]
    design, prec, wz, noise = factors.design, draws[3], state[0], state[4]
    p = design.shape[1]
    eps_coef = np.zeros_like(draws[1])

    def theta(eps):
        out = _swept(inputs, factors, state, (draws[0], eps, *draws[2:]), True, False)
        return np.concatenate([out[2], out[3].reshape(len(x), -1)], axis=1)

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
    """Per (gene, sample), given the coefficients and noise the same sweep drew
    first: the draw's mean is w'm and its variance w'Vw, for the mean m and
    covariance V of z's conditional."""
    G, N = shape[:2]
    inputs, state, draws = _problem(*shape, seed=sum(shape) + 4)
    factors = _factors(inputs)
    flags = (update_coef, update_noise)
    mean, _, gamma, b, noise = _swept(inputs, factors, *_burnin(state, draws, np.zeros((G, N))),
                                      *flags)
    sd = _swept(inputs, factors, *_burnin(state, draws, np.ones((G, N))), *flags)[0] - mean
    x, w, c1, c2, sigma, mu = inputs
    want_mean, want_var = np.empty((G, N)), np.empty((G, N))
    for g in range(G):
        adj = AdjustmentParams(gamma=gamma[g], b=b[g])
        for i in range(N):
            meta = SampleMeta(sample_id="s", proportions=w[i], bulk_cov=c1[i], cts_cov=c2[i])
            m, v = z_conditional(mu[g], sigma[g], noise[g], x[g, i], meta, adj)
            want_mean[g, i], want_var[g, i] = w[i] @ m, w[i] @ v @ w[i]
    np.testing.assert_allclose(mean, want_mean, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(sd ** 2, want_var, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("shape", SHAPES)
def test_burnin_and_kept_sweeps_agree_on_matched_draws(shape):
    """With xi = a'eps/|a|, a burn-in sweep leaves the kept sweep's w'z, so the
    next sweep draws the same coefficients and noise after either."""
    inputs, state, draws = _problem(*shape, seed=sum(shape) + 5)
    factors = _factors(inputs)
    xi = np.einsum("cgi,gic->gi", factors.a, draws[0]) / np.sqrt(factors.a_sq)
    kept = _swept(inputs, factors, state, draws)
    burn = _swept(inputs, factors, *_burnin(state, draws, xi))
    np.testing.assert_allclose(burn[0], kept[0], rtol=1e-12, atol=1e-12)
    later = _problem(*shape, seed=sum(shape) + 6)[2]
    after_kept = _swept(inputs, factors, kept, later)
    after_burn = _swept(inputs, factors, (burn[0], kept[1], *burn[2:]), later)
    for name, u, v in zip(("gamma", "b", "noise"), after_kept[2:], after_burn[2:]):
        np.testing.assert_allclose(u, v, rtol=1e-12, atol=1e-12, err_msg=name)


def test_sweep_is_bitwise_deterministic():
    inputs, state, draws = _problem(9, 13, 3, 2, 1, seed=5)
    factors = _factors(inputs)
    for args in ((state, draws), _burnin(state, draws)):  # a kept and a burn-in sweep
        a = _swept(inputs, factors, *args)
        b = _swept(inputs, factors, *args)
        for u, v in zip(a, b):
            assert (u is None and v is None) or np.array_equal(u, v)


def test_non_finite_bulk_value_raises_naming_the_gene():
    inputs, state, draws = _problem(6, 10, 3, 1, 1, seed=2)
    x = inputs[0].copy()
    x[4, 7] = np.nan
    for args in ((state, draws), _burnin(state, draws)):
        with pytest.raises(np.linalg.LinAlgError, match="gene index 4"):
            _swept((x, *inputs[1:]), _factors(inputs), *args)


def test_non_finite_prior_mean_raises_naming_the_gene():
    # s >= noise > 0 leaves no square root of a negative number, so the
    # finite check is reached only through a non-finite input
    inputs, state, draws = _problem(4, 5, 2, 0, 0, seed=3)
    mu = inputs[5].copy()
    mu[2, 1] = np.inf
    for args in ((state, draws), _burnin(state, draws)):
        with pytest.raises(np.linalg.LinAlgError, match="gene index 2"):
            _swept(inputs, _factors((*inputs[:5], mu)), *args)


def test_resolve_backend_returns_the_kernel():
    assert resolve_backend() is sweep
