"""Gibbs engine oracles: conditionals, convergence diagnostics, refinement."""
from __future__ import annotations

import numpy as np
import pytest

from diagnokit.engine import (ChainState, HyperParams, gibbs_sweep, init_chain,
                              refine_priors, run_mcmc, split_rhat, z_conditional)
from diagnokit.errors import ValidationError
from diagnokit.types import (AdjustmentParams, BulkMatrix, GenePrior,
                             RefinementConfig, SampleMeta)


def _meta(w, d1=0, d2=0, sid="s0"):
    return SampleMeta(sample_id=sid, proportions=np.asarray(w, dtype=float),
                      bulk_cov=np.zeros(d1), cts_cov=np.zeros(d2))


def _adj(d1=0, d2=0, C=1):
    return AdjustmentParams(gamma=np.zeros(d1), b=np.zeros((C, d2)))


class TestZConditional:
    def test_scalar_hand_oracle(self):
        # prior N(0,1), w=1, x=2, noise 1: posterior N(1, 1/2)
        prior = GenePrior(gene="g", mu=np.zeros(1), sigma=np.eye(1), noise_var=1.0)
        mean, cov = z_conditional(prior, 2.0, _meta([1.0]), _adj())
        assert mean[0] == pytest.approx(1.0, abs=1e-12)
        assert cov[0, 0] == pytest.approx(0.5, abs=1e-12)

    def test_dense_inverse_oracle(self):
        rng = np.random.default_rng(0)
        C = 3
        a = rng.standard_normal((C, C))
        sigma = a @ a.T + 2 * np.eye(C)
        mu = rng.standard_normal(C)
        prior = GenePrior(gene="g", mu=mu, sigma=sigma, noise_var=0.7)
        w = np.array([0.2, 0.3, 0.5])
        x = 1.8
        mean, cov = z_conditional(prior, x, _meta(w), _adj(C=C))
        prec = np.linalg.inv(sigma) + np.outer(w, w) / 0.7
        cov_ref = np.linalg.inv(prec)
        mean_ref = cov_ref @ (np.linalg.solve(sigma, mu) + w * x / 0.7)
        assert np.allclose(mean, mean_ref, atol=1e-10)
        assert np.allclose(cov, cov_ref, atol=1e-10)

    def test_no_data_limit_returns_prior(self):
        # noise -> infinity removes the likelihood: posterior equals prior
        prior = GenePrior(gene="g", mu=np.array([1.0, -2.0]),
                          sigma=np.array([[2.0, 0.5], [0.5, 1.0]]), noise_var=1e12)
        mean, cov = z_conditional(prior, 100.0, _meta([0.5, 0.5]), _adj(C=2))
        assert np.allclose(mean, prior.mu, atol=1e-6)
        assert np.allclose(cov, prior.sigma, atol=1e-6)

    def test_covariate_offset_subtracted(self):
        prior = GenePrior(gene="g", mu=np.zeros(1), sigma=np.eye(1), noise_var=1.0)
        meta = SampleMeta(sample_id="s", proportions=np.array([1.0]),
                          bulk_cov=np.array([2.0]), cts_cov=np.zeros(0))
        adj = AdjustmentParams(gamma=np.array([0.5]), b=np.zeros((1, 0)))
        mean, _ = z_conditional(prior, 3.0, meta, adj)  # residual 3 - 1 = 2
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
            split_rhat([np.zeros(100)])
        with pytest.raises(ValidationError):
            split_rhat([np.zeros(3), np.zeros(3)])


def _toy_problem(C=2, N=6, G=1, seed=0, d1=0, d2=0):
    rng = np.random.default_rng(seed)
    genes = [f"g{i}" for i in range(G)]
    mu = rng.standard_normal((G, C))
    sigma = np.stack([np.eye(C) + 0.3 for _ in range(G)])
    priors = [GenePrior(gene=genes[g], mu=mu[g], sigma=sigma[g], noise_var=0.5)
              for g in range(G)]
    w = rng.dirichlet(np.ones(C), N)
    metas = [SampleMeta(sample_id=f"s{i}", proportions=w[i],
                        bulk_cov=rng.standard_normal(d1),
                        cts_cov=rng.standard_normal(d2)) for i in range(N)]
    x = rng.standard_normal((G, N))
    bulk = BulkMatrix(genes=genes, samples=[m.sample_id for m in metas], values=x)
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
        for i, meta in enumerate(metas):
            mean_ref, cov_ref = z_conditional(priors[0], bulk.values[0, i], meta, adj)
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
        bulk, priors, metas = _toy_problem()
        with pytest.raises(ValidationError):
            run_mcmc(bulk, priors[:0], metas, RefinementConfig(chains=2, iters=8),
                     seed=0)


def test_gibbs_sweep_advances_state():
    bulk, priors, metas = _toy_problem(C=2, N=4, seed=6)
    rng = np.random.default_rng(0)
    state = init_chain(bulk, priors, metas, rng)
    z_before = state.z.copy()
    gibbs_sweep(state, bulk, priors, metas)
    assert state.iteration == 1
    assert not np.array_equal(state.z, z_before)


def test_chain_state_validation():
    with pytest.raises(ValidationError):
        ChainState(z=np.zeros((1, 1, 1)), gamma=np.zeros((1, 0)),
                   b=np.zeros((1, 1, 0)), noise_var=np.array([0.0]),
                   iteration=0, rng=np.random.default_rng(0))


class TestRefinePriors:
    def test_concentrated_refinement_tracks_posterior(self):
        bulk, priors, metas = _toy_problem(C=2, N=8, seed=7)
        cfg = RefinementConfig(chains=2, iters=200, burnin=100, rounds=2,
                               tau=0.0, nu=2000.0)
        summary = run_mcmc(bulk, priors, metas, cfg, seed=3)
        refined = refine_priors(summary, priors, cfg, seed=3)
        for gi, p in enumerate(refined):
            assert np.allclose(p.mu, summary.mu_hat[gi], atol=1e-12)
            # enormous degrees of freedom concentrate the IW near its mean
            assert np.allclose(p.sigma, summary.sigma_hat[gi], rtol=0.25)

    def test_refinement_deterministic(self):
        bulk, priors, metas = _toy_problem(C=2, N=6, seed=8)
        cfg = RefinementConfig(chains=2, iters=60, burnin=30)
        summary = run_mcmc(bulk, priors, metas, cfg, seed=3)
        a = refine_priors(summary, priors, cfg, seed=5)
        b = refine_priors(summary, priors, cfg, seed=5)
        for pa, pb in zip(a, b):
            assert np.array_equal(pa.mu, pb.mu)
            assert np.array_equal(pa.sigma, pb.sigma)
