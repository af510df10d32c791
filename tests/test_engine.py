"""Gibbs engine oracles: conditionals, convergence diagnostics, refinement."""
from __future__ import annotations

import itertools

import numpy as np
import pytest

from diagnokit import engine, kernels
from diagnokit.engine import (ChainState, HyperParams, PosteriorSummary, refine_priors,
                              run_mcmc, split_rhat)
from diagnokit.errors import ValidationError
from diagnokit.geneselect import select_pairs
from diagnokit.io import load_sample_meta, save_sample_meta
from diagnokit.reference import _regularize_spd_all
from diagnokit.simulate import SyntheticScenario, generate
from diagnokit.types import (BulkMatrix, GenePriors, PairSelection, RefinementConfig,
                             SampleMetas, pair_key)

from oracles import (AdjustmentParams, gibbs_sweep, init_chain, split_rhat_scalar,
                     z_conditional)


def _row(w, d1=0, d2=0):
    """One sample's proportions and zero covariates, as z_conditional takes them."""
    return np.asarray(w, dtype=float), np.zeros(d1), np.zeros(d2)


def _adj(d1=0, d2=0, C=1):
    return AdjustmentParams(gamma=np.zeros(d1), b=np.zeros((C, d2)))


class TestZConditional:
    def test_scalar_hand_oracle(self):
        # prior N(0,1), w=1, x=2, noise 1: posterior N(1, 1/2)
        mean, cov = z_conditional(np.zeros(1), np.eye(1), 1.0, 2.0, *_row([1.0]), _adj())
        assert mean[0] == pytest.approx(1.0, abs=1e-12)
        assert cov[0, 0] == pytest.approx(0.5, abs=1e-12)

    def test_dense_inverse_oracle(self):
        rng = np.random.default_rng(0)
        C = 3
        a = rng.standard_normal((C, C))
        sigma = a @ a.T + 2 * np.eye(C)
        mu = rng.standard_normal(C)
        w = np.array([0.2, 0.3, 0.5])
        x = 1.8
        mean, cov = z_conditional(mu, sigma, 0.7, x, *_row(w), _adj(C=C))
        prec = np.linalg.inv(sigma) + np.outer(w, w) / 0.7
        cov_ref = np.linalg.inv(prec)
        mean_ref = cov_ref @ (np.linalg.solve(sigma, mu) + w * x / 0.7)
        assert np.allclose(mean, mean_ref, atol=1e-10)
        assert np.allclose(cov, cov_ref, atol=1e-10)

    def test_no_data_limit_returns_prior(self):
        # noise -> infinity removes the likelihood: posterior equals prior
        mu = np.array([1.0, -2.0])
        sigma = np.array([[2.0, 0.5], [0.5, 1.0]])
        mean, cov = z_conditional(mu, sigma, 1e12, 100.0, *_row([0.5, 0.5]), _adj(C=2))
        assert np.allclose(mean, mu, atol=1e-6)
        assert np.allclose(cov, sigma, atol=1e-6)

    def test_covariate_offset_subtracted(self):
        adj = AdjustmentParams(gamma=np.array([0.5]), b=np.zeros((1, 0)))
        mean, _ = z_conditional(np.zeros(1), np.eye(1), 1.0, 3.0, np.array([1.0]),
                                np.array([2.0]), np.zeros(0), adj)  # residual 3 - 1 = 2
        assert mean[0] == pytest.approx(1.0, abs=1e-12)


class TestSplitRhat:
    def test_well_mixed_near_one(self):
        rng = np.random.default_rng(1)
        chains = [rng.standard_normal(2000) for _ in range(4)]
        assert split_rhat(chains) < 1.05

    def test_mean_offset_large(self):
        rng = np.random.default_rng(2)
        chains = [rng.standard_normal(2000) + 5.0 * i for i in range(4)]
        assert split_rhat(chains) > 1.5

    def test_degenerate_defined_as_one(self):
        chains = [np.full(100, 3.0), np.full(100, 3.0)]
        assert split_rhat(chains) == 1.0

    def test_constant_but_offset_chains_inf(self):
        chains = [np.full(100, 0.0), np.full(100, 1.0)]
        assert split_rhat(chains) == np.inf

    def test_validation(self):
        with pytest.raises(ValidationError):
            split_rhat_scalar([np.zeros(100)])
        with pytest.raises(ValidationError):
            split_rhat_scalar([np.zeros(3), np.zeros(3)])

    @pytest.mark.parametrize("chains,draws", [(2, 4), (2, 5), (3, 17), (4, 40)])
    def test_array_pass_matches_scalar(self, chains, draws):
        rng = np.random.default_rng(chains * draws)
        traces = rng.standard_normal((chains, draws, 6, 3))
        traces[:, :, 0, 0] = 3.0                      # fully degenerate: 1.0
        traces[:, :, 1, 1] = np.arange(chains)[:, None]  # constant, offset: inf
        traces[1:, :, 2, 2] = traces[0, :, 2, 2]      # identical chains
        traces[:, :, 3] += 4.0 * np.arange(chains)[:, None, None]  # not mixed
        got = split_rhat(traces)
        want = np.array([[split_rhat_scalar(list(traces[:, :, g, c])) for c in range(3)]
                         for g in range(6)])
        assert got[0, 0] == 1.0 and got[1, 1] == np.inf
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    def test_array_pass_undefined_below_four_draws(self):
        assert np.isnan(split_rhat(np.zeros((3, 3, 2, 2)))).all()


def _toy_problem(C=2, N=6, G=1, seed=0, d1=0, d2=0):
    rng = np.random.default_rng(seed)
    genes = [f"g{i}" for i in range(G)]
    mu = rng.standard_normal((G, C))
    sigma = np.stack([np.eye(C) + 0.3 for _ in range(G)])
    priors = GenePriors(genes=genes, mu=mu, sigma=sigma, noise_var=np.full(G, 0.5))
    w = rng.dirichlet(np.ones(C), N)
    cov = rng.standard_normal((N, d1 + d2))  # row i: sample i's bulk, then CTS covariates
    metas = SampleMetas(sample_ids=[f"s{i}" for i in range(N)],
                        cell_types=[f"ct{j}" for j in range(C)], proportions=w,
                        bulk_cov=cov[:, :d1], cts_cov=cov[:, d1:])
    x = rng.standard_normal((G, N))
    bulk = BulkMatrix(genes=genes, samples=metas.sample_ids, values=x)
    return bulk, priors, metas


class TestRunMcmc:
    def test_conjugate_posterior_oracle(self):
        # with coefficients and noise fixed, z draws are iid from the exact
        # Gaussian conditional: compare against z_conditional analytically
        bulk, priors, metas = _toy_problem(C=2, N=5, seed=3)
        cfg = RefinementConfig(chains=2, iters=1500, burnin=500, rounds=1)
        hyper = HyperParams(update_coef=False, update_noise=False)
        summary = run_mcmc(bulk, priors, metas, cfg, seed=0, hyper=hyper)
        total = cfg.chains * (cfg.iters - cfg.burnin)
        adj = AdjustmentParams(gamma=np.zeros(0), b=np.zeros((2, 0)))
        for i in range(bulk.n_samples):
            mean_ref, cov_ref = z_conditional(priors.mu[0], priors.sigma[0],
                                              priors.noise_var[0], bulk.values[0, i],
                                              metas.proportions[i], metas.bulk_cov[i],
                                              metas.cts_cov[i], adj)
            for c in range(2):
                se = np.sqrt(cov_ref[c, c] / total)
                assert abs(summary.cts.mean[0, c, i] - mean_ref[c]) < 3.5 * se

    def test_bitwise_deterministic(self):
        bulk, priors, metas = _toy_problem(C=2, N=4, G=3, seed=4, d1=1, d2=1)
        cfg = RefinementConfig(chains=2, iters=40, burnin=20, rounds=1)
        s1 = run_mcmc(bulk, priors, metas, cfg, seed=9)
        s2 = run_mcmc(bulk, priors, metas, cfg, seed=9)
        assert np.array_equal(s1.cts.mean, s2.cts.mean)
        assert np.array_equal(s1.sigma_hat, s2.sigma_hat)

    def test_seed_changes_draws(self):
        bulk, priors, metas = _toy_problem(C=2, N=4, seed=4)
        cfg = RefinementConfig(chains=2, iters=40, burnin=20, rounds=1)
        s1 = run_mcmc(bulk, priors, metas, cfg, seed=1)
        s2 = run_mcmc(bulk, priors, metas, cfg, seed=2)
        assert not np.array_equal(s1.cts.mean, s2.cts.mean)

    def test_prior_mismatch_rejected(self):
        bulk, priors, metas = _toy_problem(G=2)
        for wrong in (priors.take([]), priors.take(["g1", "g0"])):
            with pytest.raises(ValidationError, match="bulk genes in bulk order"):
                run_mcmc(bulk, wrong, metas, RefinementConfig(chains=2, iters=8), seed=0)

    def test_prior_without_cholesky_names_the_gene(self):
        # rank-2 covariances plus a rounding-sized ridge: some have a least
        # eigenvalue above 0 and no Cholesky factor; GenePriors judges them by
        # the factor the sampler would use, so it refuses them
        rng = np.random.default_rng(0)
        for _ in range(2000):
            v = rng.standard_normal((3, 2))
            bad = v @ v.T + 1e-16 * rng.uniform() * np.eye(3)
            bad = 0.5 * (bad + bad.T)
            if np.linalg.eigvalsh(bad)[0] > 0:
                try:
                    np.linalg.cholesky(bad)
                except np.linalg.LinAlgError:
                    break
        else:
            pytest.fail("no covariance with eigenvalues above 0 and no Cholesky factor")
        _, priors, _ = _toy_problem(C=3, G=3)
        sigma = priors.sigma.copy()
        sigma[1] = bad
        with pytest.raises(ValidationError, match="sigma not positive definite for gene 'g1'"):
            GenePriors(genes=priors.genes, mu=priors.mu, sigma=sigma, noise_var=priors.noise_var)


@pytest.mark.parametrize("rounds", [1, 2])
def test_split_rhat_runs_once_per_round_through_the_module(monkeypatch, rounds):
    # perfbench's tracer times R-hat by replacing engine.split_rhat
    bundle = generate(SyntheticScenario(G=4, C=2, N=8, d1=0, d2=0,
                                        ref_cells_per_type=10, seed=1))
    pairs = {(g, c) for g in bundle.bulk.genes for c in bundle.true_z.cell_types}
    selection = PairSelection(pairs=frozenset(pairs),
                              provenance={pair_key(*p): "marker" for p in pairs})
    cfg = RefinementConfig(chains=2, iters=12, burnin=6, rounds=rounds)
    shapes = []

    def counted(traces):
        shapes.append(traces.shape)
        return split_rhat(traces)

    monkeypatch.setattr(engine, "split_rhat", counted)
    engine.deconvolve(bundle.bulk, bundle.ref, selection, bundle.metas, cfg, seed=3)
    assert shapes == [(2, 6, 4, 2)] * rounds


@pytest.mark.parametrize("rounds", [1, 2])
def test_every_sweep_goes_through_the_module_hook(monkeypatch, rounds):
    # perfbench's tracer times every sweep by replacing engine.resolve_backend
    bundle = generate(SyntheticScenario(G=4, C=2, N=8, d1=1, d2=1,
                                        ref_cells_per_type=10, seed=2))
    pairs = {(g, c) for g in bundle.bulk.genes for c in bundle.true_z.cell_types}
    selection = PairSelection(pairs=frozenset(pairs),
                              provenance={pair_key(*p): "marker" for p in pairs})
    cfg = RefinementConfig(chains=3, iters=10, burnin=4, rounds=rounds)
    shapes = []

    def counted(x, *rest):
        q, s = kernels.sweep(x, *rest)
        shapes.append((q.shape, s.shape))
        return q, s

    monkeypatch.setattr(engine, "resolve_backend", lambda: counted)
    engine.deconvolve(bundle.bulk, bundle.ref, selection, bundle.metas, cfg, seed=4)
    assert shapes == [((4, 8), (4, 8))] * (cfg.chains * cfg.iters * rounds)


def test_metas_join_the_reference_cell_types_by_name(tmp_path):
    # simulate names eleven types ct1, ..., ct11, and the reference sorts them
    # (ct1, ct10, ct11, ct2, ...): the record and the same record read back
    # from meta.json (renormalized once more) give the same estimate
    bundle = generate(SyntheticScenario(G=30, C=11, N=40, d1=1, d2=1,
                                        ref_cells_per_type=20, seed=1))
    assert bundle.metas.cell_types != bundle.ref.cell_types
    selection = select_pairs(bundle.ref, set(), fdr_threshold=0.2, lfc_threshold=0.2)
    assert selection.pairs
    save_sample_meta(bundle.metas, tmp_path / "meta.json")
    cfg = RefinementConfig(chains=2, iters=60, burnin=30, rounds=1)
    lib, file = (engine.deconvolve(bundle.bulk, bundle.ref, selection, metas, cfg, seed=1).cts
                 for metas in (bundle.metas, load_sample_meta(tmp_path / "meta.json")))
    assert lib.cell_types == file.cell_types == bundle.ref.cell_types
    np.testing.assert_allclose(lib.mean, file.mean, rtol=0, atol=1e-10)
    np.testing.assert_allclose(lib.variance, file.variance, rtol=0, atol=1e-10)


def _kept_states(monkeypatch, cfg):
    """Patch the sweep hook so that the (theta, noise) after each of a
    ``run_mcmc`` call's kept sweeps is appended to the returned list."""
    states, calls = [], itertools.count()

    def recorded(x, f, wz, theta, noise, *rest):
        out = kernels.sweep(x, f, wz, theta, noise, *rest)
        if next(calls) % cfg.iters >= cfg.burnin:
            states.append((theta.copy(), noise.copy()))
        return out

    monkeypatch.setattr(engine, "resolve_backend", lambda: recorded)
    return states


@pytest.mark.parametrize("fixed", [False, True])
@pytest.mark.parametrize("C,N,G,d1,d2,burnin", [
    (3, 5, 2, 1, 1, 4),
    (1, 4, 2, 0, 0, 3),  # one cell type, no covariates
    (2, 6, 3, 0, 2, 0),  # no burn-in
    (4, 3, 1, 2, 0, 5),  # an odd number of kept sweeps
])
def test_posterior_moments_average_the_z_conditionals_of_the_kept_states(
        monkeypatch, C, N, G, d1, d2, burnin, fixed):
    # the Rao-Blackwellized moments, against z_conditional in each kept state:
    # mean E[m], variance E[V] + Var(m), sigma_hat the average of m m' + V
    # less mu_hat mu_hat', over kept sweeps and samples; with the coefficients
    # and noise fixed, every kept state is the same
    bulk, priors, metas = _toy_problem(C=C, N=N, G=G, seed=11 + C, d1=d1, d2=d2)
    cfg = RefinementConfig(chains=2, iters=12, burnin=burnin, rounds=1)
    hyper = HyperParams(update_coef=not fixed, update_noise=not fixed)
    states = _kept_states(monkeypatch, cfg)
    summary = run_mcmc(bulk, priors, metas, cfg, seed=5, hyper=hyper)
    assert len(states) == cfg.chains * (cfg.iters - cfg.burnin)
    m = np.empty((len(states), G, N, C))
    v = np.empty((len(states), G, N, C, C))
    for t, (theta, noise) in enumerate(states):
        for g in range(G):
            adj = AdjustmentParams(gamma=theta[g, :d1], b=theta[g, d1:].reshape(C, d2))
            for i in range(N):
                m[t, g, i], v[t, g, i] = z_conditional(
                    priors.mu[g], priors.sigma[g], noise[g], bulk.values[g, i],
                    metas.proportions[i], metas.bulk_cov[i], metas.cts_cov[i], adj)
    mean = m.mean(axis=0)
    var = np.diagonal(v.mean(axis=0), axis1=-2, axis2=-1) + m.var(axis=0)
    mu_hat = mean.mean(axis=1)
    second = (m[..., :, None] * m[..., None, :] + v).mean(axis=(0, 2))
    sigma_hat = second - mu_hat[:, :, None] * mu_hat[:, None, :]
    sigma_hat = _regularize_spd_all(sigma_hat, np.trace(sigma_hat, axis1=1, axis2=2))
    tol = dict(rtol=1e-10, atol=1e-10)
    np.testing.assert_allclose(summary.cts.mean, np.swapaxes(mean, 1, 2), **tol)
    np.testing.assert_allclose(summary.cts.variance, np.swapaxes(var, 1, 2), **tol)
    np.testing.assert_allclose(summary.mu_hat, mu_hat, **tol)
    np.testing.assert_allclose(summary.sigma_hat, sigma_hat, **tol)
    # R-hat reads the sample-averaged trace of m, per chain
    traces = m.mean(axis=2).reshape(cfg.chains, cfg.iters - cfg.burnin, G, C)
    np.testing.assert_allclose(summary.rhat, split_rhat(traces), **tol)


def test_gibbs_sweep_advances_state():
    bulk, priors, metas = _toy_problem(C=2, N=4, seed=6, d1=1, d2=1)
    state = init_chain(bulk, priors, metas, np.random.default_rng(0))
    before = [a.copy() for a in (state.wz, state.theta, state.noise_var)]
    gibbs_sweep(state, bulk, priors, metas)
    after = (state.wz, state.theta, state.noise_var)
    assert not any(np.array_equal(u, v) for u, v in zip(before, after))


def test_chains_that_differ_only_in_their_start_differ_after_one_sweep():
    # the over-dispersed start reaches the first (gamma, B, noise) draw
    bulk, priors, metas = _toy_problem(C=2, N=6, G=3, seed=7, d1=1, d2=1)
    states = []
    for start_seed in (1, 2):
        state = init_chain(bulk, priors, metas, np.random.default_rng(start_seed))
        state.rng = np.random.default_rng(99)  # the same sweep draws for both
        states.append(gibbs_sweep(state, bulk, priors, metas))
    a, b = states
    assert not np.array_equal(a.theta[:, :1], b.theta[:, :1])  # gamma (d1 = 1)
    assert not np.array_equal(a.theta[:, 1:], b.theta[:, 1:])  # vec B
    assert (a.noise_var != b.noise_var).all()


def test_chain_starts_are_over_dispersed():
    # w'z0 = w'mu + OVERDISPERSION a'eps: mean w'mu, variance OVERDISPERSION^2 |a|^2
    bulk, priors, metas = _toy_problem(C=3, N=5, G=2, seed=8)
    factors = engine._stack_inputs(bulk, priors, metas)
    rng = np.random.default_rng(5)
    starts = np.stack([init_chain(bulk, priors, metas, rng).wz for _ in range(4000)])
    se = engine.OVERDISPERSION * np.sqrt(factors.a_sq / len(starts))
    assert (np.abs(starts.mean(axis=0) - factors.w_mu) < 4.0 * se).all()
    np.testing.assert_allclose(starts.var(axis=0),
                               engine.OVERDISPERSION ** 2 * factors.a_sq, rtol=0.1)


def test_chain_state_validation():
    with pytest.raises(ValidationError):
        ChainState(wz=np.zeros((1, 1)), theta=np.zeros((1, 0)), noise_var=np.array([0.0]),
                   rng=np.random.default_rng(0))


class TestRefinePriors:
    def test_concentrated_refinement_tracks_posterior(self):
        bulk, priors, metas = _toy_problem(C=2, N=8, seed=7)
        cfg = RefinementConfig(chains=2, iters=200, burnin=100, rounds=2,
                               tau=0.0, nu=2000.0)
        summary = run_mcmc(bulk, priors, metas, cfg, seed=3)
        refined = refine_priors(summary, priors, cfg, seed=3)
        assert refined.genes == priors.genes
        assert np.allclose(refined.mu, summary.mu_hat, atol=1e-12)
        # enormous degrees of freedom concentrate the IW near its mean
        assert np.allclose(refined.sigma, summary.sigma_hat, rtol=0.25)

    def test_refinement_deterministic(self):
        bulk, priors, metas = _toy_problem(C=2, N=6, seed=8)
        cfg = RefinementConfig(chains=2, iters=60, burnin=30)
        summary = run_mcmc(bulk, priors, metas, cfg, seed=3)
        a = refine_priors(summary, priors, cfg, seed=5)
        b = refine_priors(summary, priors, cfg, seed=5)
        assert np.array_equal(a.mu, b.mu)
        assert np.array_equal(a.sigma, b.sigma)


def _posterior(sigma_hat, mu_hat=None):
    """A posterior summary carrying only what ``refine_priors`` reads."""
    G, C, _ = sigma_hat.shape
    mu_hat = np.zeros((G, C)) if mu_hat is None else mu_hat
    return PosteriorSummary(cts=None, mu_hat=mu_hat, sigma_hat=sigma_hat,
                            noise_hat=np.ones(G), rhat=np.ones((G, C)))


def _copies(sigma, G):
    genes = [f"g{i}" for i in range(G)]
    sigma_hat = np.repeat(sigma[None], G, axis=0)
    priors = GenePriors(genes=genes, mu=np.zeros((G, sigma.shape[0])), sigma=sigma_hat,
                        noise_var=np.ones(G))
    return _posterior(sigma_hat), priors


SIGMA = np.array([[2.0, 0.6, -0.3], [0.6, 1.0, 0.2], [-0.3, 0.2, 0.5]])


class TestBartlettInverseWishart:
    """Moments of the batched Bartlett draw, one gene per copy of ``SIGMA``.

    With scale = sigma_hat (nu - C - 1), E[Sigma] = sigma_hat and
    Var(Sigma_ij) = ((nu-C+1) s_ij^2 + (nu-C-1) s_ii s_jj)
                    / ((nu-C) (nu-C-1)^2 (nu-C-3)) for s = scale.
    """

    @staticmethod
    def _exact_var(sigma, nu):
        C = sigma.shape[0]
        s = sigma * (nu - C - 1)
        d = np.diag(s)
        return (((nu - C + 1) * s ** 2 + (nu - C - 1) * np.outer(d, d))
                / ((nu - C) * (nu - C - 1) ** 2 * (nu - C - 3)))

    def test_mean_of_draws_is_sigma_hat(self):
        G, C = 20_000, SIGMA.shape[0]
        nu = C + 8.0
        summary, priors = _copies(SIGMA, G)
        cfg = RefinementConfig(tau=0.0, nu=nu)
        draws = refine_priors(summary, priors, cfg, seed=11).sigma
        # four Monte-Carlo standard errors per entry (about 1.8 % of s_00)
        tol = 4.0 * np.sqrt(self._exact_var(SIGMA, nu) / G)
        assert (np.abs(draws.mean(axis=0) - SIGMA) < tol).all()
        assert np.abs(draws.mean(axis=0) - SIGMA).max() / SIGMA[0, 0] < 0.01

    def test_variance_matches_scipy_invwishart(self):
        from scipy.stats import invwishart

        G, C = 40_000, SIGMA.shape[0]
        nu = C + 12.0
        summary, priors = _copies(SIGMA, G)
        ours = refine_priors(summary, priors, RefinementConfig(tau=0.0, nu=nu), seed=12).sigma
        theirs = invwishart.rvs(df=nu, scale=SIGMA * (nu - C - 1), size=G,
                                random_state=np.random.default_rng(13))
        exact = self._exact_var(SIGMA, nu)
        v_ours, v_theirs = ours.var(axis=0, ddof=1), theirs.var(axis=0, ddof=1)
        # each sample variance lies within about 2.5 % (one s.e.) of the exact one
        np.testing.assert_allclose(v_ours, v_theirs, rtol=0.10)
        np.testing.assert_allclose(v_ours, exact, rtol=0.08)
        np.testing.assert_allclose(v_theirs, exact, rtol=0.08)

    def test_draws_symmetric_and_means_drawn_around_mu_hat(self):
        summary, priors = _copies(SIGMA, 50)
        mu_hat = np.arange(150.0).reshape(50, 3)
        summary = _posterior(summary.sigma_hat, mu_hat)
        refined = refine_priors(summary, priors, RefinementConfig(tau=0.5), seed=1)
        assert np.array_equal(refined.sigma, np.swapaxes(refined.sigma, 1, 2))
        z = (refined.mu - mu_hat) / 0.5
        assert abs(z.mean()) < 4 / np.sqrt(z.size) and abs(z.std() - 1) < 0.15

    def test_failed_draws_are_redrawn_and_counted(self):
        # correlation 1 - 1e-15: a few percent of the draws have no Cholesky
        # factor; only those genes are drawn again
        eps = 1e-15
        summary, priors = _copies(np.array([[1.0, 1 - eps], [1 - eps, 1.0]]), 400)
        cfg = RefinementConfig(tau=0.0, nu=4.0)
        rescues = {"iw_redraws": 0}
        refined = refine_priors(summary, priors, cfg, seed=0, rescues=rescues)
        assert rescues["iw_redraws"] > 0
        assert np.isfinite(np.linalg.cholesky(refined.sigma)).all()
        again = {"iw_redraws": 0}
        assert np.array_equal(refine_priors(summary, priors, cfg, seed=0, rescues=again).sigma,
                              refined.sigma)
        assert again == rescues

    def test_refined_priors_run_without_a_second_factor_check(self):
        # a draw is accepted by the factor the sampler uses, so every refined
        # prior of the nearly singular copies runs, and the rescues are counted
        eps = 1e-15
        summary, priors = _copies(np.array([[1.0, 1 - eps], [1 - eps, 1.0]]), 400)
        rescues = {"iw_redraws": 0}
        refined = refine_priors(summary, priors, RefinementConfig(tau=0.0, nu=4.0), seed=0,
                                rescues=rescues)
        assert rescues["iw_redraws"] > 0
        bulk, _, metas = _toy_problem(C=2, N=4, G=400)
        out = run_mcmc(bulk, refined, metas, RefinementConfig(chains=2, iters=4), seed=0)
        assert np.isfinite(out.cts.mean).all()

    def test_exhausted_retries_name_the_gene(self, monkeypatch):
        # a NaN scale has no factor: it fails at once, before any draw
        summary, priors = _copies(SIGMA, 3)
        sigma_hat = summary.sigma_hat.copy()
        sigma_hat[1, 0, 0] = np.nan
        rescues = {"iw_redraws": 0}
        with pytest.raises(ValidationError,
                           match="inverse-Wishart scale is not positive definite for 'g1'"):
            refine_priors(_posterior(sigma_hat), priors, RefinementConfig(), seed=0,
                          rescues=rescues)
        assert rescues == {"iw_redraws": 0}
        # the last gene of every draw never has a factor: with two genes,
        # that is g1 in the first draw and in each of its redraws
        real = engine._bartlett_iw

        def draw(chol_inv, nu, rng):
            out = real(chol_inv, nu, rng)
            out[-1] = -out[-1]
            return out

        monkeypatch.setattr(engine, "_bartlett_iw", draw)
        summary, priors = _copies(SIGMA, 2)
        with pytest.raises(ValidationError, match="retries exhausted for 'g1'"):
            refine_priors(summary, priors, RefinementConfig(), seed=0, rescues=rescues)
        assert rescues == {"iw_redraws": engine.IW_TRIES - 1}

    def test_scale_without_cholesky_names_the_gene(self):
        summary, priors = _copies(SIGMA, 3)
        sigma_hat = summary.sigma_hat.copy()
        sigma_hat[2] = -SIGMA
        with pytest.raises(ValidationError, match="not positive definite for 'g2'"):
            refine_priors(_posterior(sigma_hat), priors, RefinementConfig(), seed=0)


def test_spd_jitter_rescues_counted():
    sigma = np.stack([np.eye(2), np.array([[1.0, 2.0], [2.0, 1.0]]), 2 * np.eye(2)])
    rescues = {"spd_jitter": 0}
    out = _regularize_spd_all(sigma, np.trace(sigma, axis1=1, axis2=2), rescues)
    assert rescues == {"spd_jitter": 1}
    assert np.isfinite(np.linalg.cholesky(out)).all()
