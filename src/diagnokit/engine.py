"""Blocked Gibbs inference of cell-type-specific expression from bulk mixtures.

The model, per gene g and sample i with proportions w_i and covariates c1_i,
c2_i (row i of a ``SampleMetas`` record, joined by name to bulk and reference):

    z_gi ~ N(mu_g, Sigma_g)
    x_gi = w_i' z_gi + gamma_g' c1_i + w_i' B_g c2_i + eps,  eps ~ N(0, s2_g)

All conditionals are conjugate: the coefficients theta = (gamma, vec B), one
block in the design matrix's column order, from a Bayesian linear regression
draw, s2 from an Inverse-Gamma, and w'z from its 1-D Gaussian. A run reads
chol(Sigma_g), taken once by ``GenePriors``, and takes one eigendecomposition
of the design Gram matrix (``kernels.prepare``), with no NaN path in the sweep.
A chain's state holds theta, s2 and w_i'z_gi, the only way the theta and s2
draws read z; no sweep draws z itself (``kernels.sweep``). Each chain has its
own SFC64 stream spawned from the seed, and starts from an over-dispersed
w'z0, as for a prior draw of z with its deviations scaled up, so the chains'
first (theta, s2) draws differ. The posterior moments are Rao-Blackwellized
(Gelfand & Smith 1990): each kept sweep's z conditional, mean
m = mu + (Sigma w) q and covariance V = Sigma - (Sigma w)(Sigma w)'/s, enters
through running sums of q, q^2 and 1/s. Split R-hat reads the per-(gene, cell
type) sample-averaged trace of m; ``deconvolve`` keeps it for the pairs it
writes from the sampler. Two-stage prior refinement
re-estimates (mu, Sigma) from posterior moments and redraws them through a
Normal / Inverse-Wishart step: one normal draw for every mean, and every
covariance from the Bartlett decomposition (Smith & Hocking 1972),
Sigma = T'T with T = (chol(scale^-1) A)^-1 for a lower-triangular A of chi
and standard normal draws, all genes in one array pass. Draws with no
finite Cholesky factor (``types._factor``) are redrawn; the redraws and the
covariance jitter rescues are counted, never silent.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .kernels import NonFiniteDraw, RunFactors, prepare, resolve_backend
from .reference import DEFAULT_SHRINKAGE, ReferenceDataset, _regularize_spd_all, estimate_priors
from .types import (BulkMatrix, CtsTensor, GenePriors, PairSelection, RefinementConfig,
                    SampleMetas, _cholesky, _factor, _positions)

# scale of a chain's start around the prior mean, in prior standard deviations
OVERDISPERSION = 2.0
# weakly informative hyperpriors of the non-z blocks: theta ~ N(0, COEF_PRIOR_VAR I),
# s2 ~ Inverse-Gamma(NOISE_A0, NOISE_B0)
COEF_PRIOR_VAR = 10.0
NOISE_A0 = 2.0
NOISE_B0 = 1.0


@dataclass(frozen=True)
class HyperParams:
    """Which non-z blocks a sweep draws; a block not drawn keeps its value."""

    update_coef: bool = True
    update_noise: bool = True


@dataclass
class ChainState:
    """Mutable state of one Gibbs chain; z enters it only as w'z."""

    wz: np.ndarray         # (G, N) w_i'z_gi
    theta: np.ndarray      # (G, d1 + C d2) (gamma, vec B), the design's column order
    noise_var: np.ndarray  # (G,)
    rng: np.random.Generator

    def __post_init__(self):
        if (self.noise_var <= 0).any():
            raise ValidationError("noise_var must stay positive")
        for arr in (self.wz, self.theta, self.noise_var):
            if not np.isfinite(arr).all():
                raise ValidationError("chain state contains non-finite values")


@dataclass(frozen=True)
class PosteriorSummary:
    """Posterior moments, refinement inputs, and convergence diagnostics."""

    cts: CtsTensor
    mu_hat: np.ndarray       # (G, C)
    sigma_hat: np.ndarray    # (G, C, C)
    noise_hat: np.ndarray    # (G,)
    rhat: np.ndarray         # (G, C), nan where undefined
    estimated: np.ndarray | None = None  # (G, C) bool mask, deconvolve only
    rescues: dict[str, int] | None = None  # numerical rescue counts, deconvolve only


def _stack_inputs(bulk: BulkMatrix, priors: GenePriors, metas: SampleMetas):
    if priors.genes != list(bulk.genes):
        raise ValidationError("priors must list the bulk genes in bulk order "
                              "(GenePriors.take reorders them)")
    if metas.sample_ids != list(bulk.samples):
        raise ValidationError("sample metas must list the bulk samples in bulk order "
                              "(SampleMetas.take reorders them)")
    if len(metas.cell_types) != priors.mu.shape[1]:
        raise ValidationError("meta proportions dimension does not match priors")
    return prepare(metas.proportions, metas.bulk_cov, metas.cts_cov, priors.chol, priors.mu)


def _run_sweep(state: ChainState, x, factors: RunFactors, hyper: HyperParams,
               sweep_fn):
    """One sweep of ``state``; returns the sweep's (q, s) (``kernels.sweep``)."""
    G, N = x.shape
    p = factors.design.shape[1]
    rng = state.rng
    eps_coef = rng.standard_normal((G, max(p, 1)))[:, :p]
    gamma_draws = rng.gamma(NOISE_A0 + 0.5 * N, 1.0, G)
    xi = rng.standard_normal((G, N))
    return sweep_fn(x, factors, state.wz, state.theta, state.noise_var, xi,
                    eps_coef, gamma_draws, 1.0 / COEF_PRIOR_VAR, NOISE_B0,
                    hyper.update_coef, hyper.update_noise)


def _start_chain(factors: RunFactors, noise_var: np.ndarray,
                 rng: np.random.Generator) -> ChainState:
    """Over-dispersed start: w'z0 for a prior draw z0 = mu + OVERDISPERSION A eps,
    that is w'mu + OVERDISPERSION a'eps, drawn as w'mu + OVERDISPERSION |a| xi."""
    xi = rng.standard_normal(factors.a_sq.shape)
    wz0 = factors.w_mu + OVERDISPERSION * np.sqrt(factors.a_sq) * xi
    return ChainState(wz=wz0, theta=np.zeros((len(wz0), factors.design.shape[1])),
                      noise_var=noise_var.copy(), rng=rng)


def split_rhat(traces) -> np.ndarray:
    """Split Gelman-Rubin statistic of every scalar trace in one array pass.

    ``traces`` is array-like, (chains, draws, ...); the result has the
    trailing shape. Each chain is halved, an odd-length one after dropping
    its first draw, and the between/within variances are taken over the
    half-chains. A fully degenerate set (zero within-chain variance and
    identical halves) is converged, R-hat 1.0; constant but offset chains
    give inf. It is NaN everywhere when fewer than 4 draws are retained.
    """
    traces = np.asarray(traces, dtype=np.float64)
    m, draws = traces.shape[:2]
    rest = traces.shape[2:]
    if draws < 4:
        return np.full(rest, np.nan)
    n = draws // 2
    halves = traces[:, draws % 2:].reshape((2 * m, n) + rest)
    w_var = halves.var(axis=1, ddof=1).mean(axis=0)
    b_var = n * halves.mean(axis=1).var(axis=0, ddof=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        rhat = np.sqrt(((n - 1) / n * w_var + b_var / n) / w_var)
    return np.where(w_var == 0.0, np.where(b_var == 0.0, 1.0, np.inf), rhat)


def run_mcmc(bulk: BulkMatrix, priors: GenePriors, metas: SampleMetas,
             config: RefinementConfig, seed: int,
             hyper: HyperParams | None = None,
             rescues: dict[str, int] | None = None) -> PosteriorSummary:
    """Multi-chain Gibbs sampling with pooled Rao-Blackwellized posterior moments
    and R-hat.

    ``metas`` lists the bulk samples in bulk order and names the output's
    cell types. ``rescues``, when given, counts the genes whose sigma_hat
    needed more than the first jitter step (``_regularize_spd_all``). A draw
    that is not finite raises ``np.linalg.LinAlgError`` naming its gene."""
    hyper = hyper or HyperParams()
    factors = _stack_inputs(bulk, priors, metas)
    G, N = bulk.n_genes, bulk.n_samples
    C = factors.mu.shape[1]
    sweep_fn = resolve_backend()
    x = bulk.values
    kept = config.iters - config.burnin
    master = np.random.SeedSequence(entropy=(seed, 0xD1A6))
    chain_seeds = master.spawn(config.chains)

    sum_q = np.zeros((G, N))
    sum_q2 = np.zeros((G, N))
    sum_inv_s = np.zeros((G, N))
    sum_noise = np.zeros(G)
    traces = np.empty((config.chains, kept, G, C))
    sigma_w, mu = factors.sigma_w, factors.mu

    for ci in range(config.chains):
        rng = np.random.Generator(np.random.SFC64(chain_seeds[ci]))
        state = _start_chain(factors, priors.noise_var, rng)
        for it in range(config.iters):
            try:
                q, s = _run_sweep(state, x, factors, hyper, sweep_fn)
            except NonFiniteDraw as exc:  # name the gene, not its row
                raise np.linalg.LinAlgError("Gibbs sweep produced a non-finite draw for "
                                            f"gene {bulk.genes[exc.row]!r}") from None
            if it < config.burnin:
                continue
            sum_q += q
            sum_q2 += q * q
            sum_inv_s += 1.0 / s
            sum_noise += state.noise_var
            # the sample average of the conditional mean m = mu + (Sigma w) q
            traces[ci, it - config.burnin] = mu + np.einsum("gci,gi->gc", sigma_w, q) / N

    total = config.chains * kept
    mean_q, mean_q2, mean_inv_s = sum_q / total, sum_q2 / total, sum_inv_s / total
    mean = mu[:, :, None] + sigma_w * mean_q[:, None, :]
    # E[V] + Var(m) per cell type: Sigma_cc - (Sigma w)_c^2 (E[1/s] - Var(q))
    var = np.maximum(np.diagonal(priors.sigma, axis1=1, axis2=2)[:, :, None]
                     + sigma_w ** 2 * (mean_q2 - mean_q ** 2 - mean_inv_s)[:, None, :], 0.0)
    mu_hat = mean.mean(axis=2)
    # the average of m m' + V over kept sweeps and samples, less mu_hat mu_hat'
    shift = mu_hat - mu
    sigma_hat = (priors.sigma
                 + np.einsum("gci,gdi,gi->gcd", sigma_w, sigma_w, mean_q2 - mean_inv_s) / N
                 - np.einsum("gc,gd->gcd", shift, shift))
    sigma_hat = _regularize_spd_all(sigma_hat, np.trace(sigma_hat, axis1=1, axis2=2),
                                    rescues)
    noise_hat = sum_noise / total

    cts = CtsTensor(genes=bulk.genes, cell_types=metas.cell_types, samples=bulk.samples,
                    mean=mean, variance=var)
    return PosteriorSummary(cts=cts, mu_hat=mu_hat, sigma_hat=sigma_hat,
                            noise_hat=noise_hat, rhat=split_rhat(traces))


IW_TRIES = 100


def _bartlett_iw(chol_inv: np.ndarray, nu: float, rng: np.random.Generator) -> np.ndarray:
    """One IW(nu, scale) draw per gene, given L = chol(scale^-1) of each.

    Bartlett: with A lower triangular, A_ii = sqrt(chi2(nu - i)) and
    A_ij ~ N(0, 1) below the diagonal, L A A' L' ~ Wishart(nu, scale^-1), so
    its inverse T'T, T = (L A)^-1, is the draw (symmetric by construction).
    """
    G, C, _ = chol_inv.shape
    a = np.tril(rng.standard_normal((G, C, C)), -1)
    diag = np.arange(C)
    a[:, diag, diag] = np.sqrt(rng.chisquare(nu - diag, (G, C)))
    t = np.linalg.inv(chol_inv @ a)
    return np.swapaxes(t, 1, 2) @ t


def refine_priors(summary: PosteriorSummary, priors: GenePriors,
                  config: RefinementConfig, seed: int,
                  rescues: dict[str, int] | None = None) -> GenePriors:
    """Redraw each gene's prior around the posterior estimates.

    Mean from N(mu_hat, tau^2 I); covariance from an Inverse-Wishart whose
    scale is chosen so its expectation equals sigma_hat, drawn for all genes
    at once (``_bartlett_iw``). Genes whose draw has no finite Cholesky
    factor are redrawn, up to ``IW_TRIES`` draws in all; the redraws are
    added to ``rescues["iw_redraws"]`` when ``rescues`` is given.
    """
    C = priors.mu.shape[1]
    nu = config.resolved_nu(C)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 0x5EED)))
    mu_new = (rng.normal(summary.mu_hat, config.tau) if config.tau > 0
              else summary.mu_hat.copy())
    # run_mcmc regularizes sigma_hat to be positive definite, so it has an inverse
    chol_inv = _cholesky(np.linalg.inv(summary.sigma_hat * (nu - C - 1)), priors.genes,
                         "inverse-Wishart scale is not positive definite for {!r}")
    sigma_new, pending = np.empty_like(chol_inv), np.arange(len(chol_inv))
    for k in range(IW_TRIES):
        if k and rescues is not None:
            rescues["iw_redraws"] += pending.size
        draw = _bartlett_iw(chol_inv[pending], nu, rng)
        ok = _factor(draw)[1]
        sigma_new[pending[ok]] = draw[ok]
        pending = pending[~ok]
        if not pending.size:
            return GenePriors(genes=priors.genes, mu=mu_new, sigma=sigma_new,
                              noise_var=summary.noise_hat.copy())
    raise ValidationError(f"inverse-Wishart retries exhausted for {priors.genes[pending[0]]!r}")


def deconvolve(bulk: BulkMatrix, ref: ReferenceDataset, selection: PairSelection,
               metas: SampleMetas, config: RefinementConfig, seed: int,
               shrinkage: float = DEFAULT_SHRINKAGE,
               round_summaries: list | None = None) -> PosteriorSummary:
    """Full pipeline: priors -> restrict to selected genes -> iterated MCMC.

    ``metas`` is joined to the bulk samples and the reference cell types.
    Runs ``config.rounds`` MCMC passes with a refinement step between passes.
    Output entries for unselected (gene, cell type) pairs carry the reference
    prior mean/variance, are flagged False in ``estimated`` and have R-hat NaN,
    so ``rhat[estimated]`` covers exactly the sampled outputs. ``rescues``
    counts the numerical rescues of the whole run: covariances that needed
    more than the first jitter step (``spd_jitter``) and inverse-Wishart
    redraws (``iw_redraws``), each summed over rounds.
    """
    cell_types = ref.cell_types
    C = len(cell_types)
    config.resolved_nu(C)  # a bad nu fails now, not after a round of sampling
    metas = metas.take(bulk.samples, cell_types)
    pairs = sorted(selection.pairs)
    estimated = np.zeros((bulk.n_genes, C), dtype=bool)
    estimated[_positions(bulk.genes, [g for g, _ in pairs], "bulk genes"),
              _positions(cell_types, [c for _, c in pairs], "reference cell types")] = True

    rescues = {"iw_redraws": 0, "spd_jitter": 0}
    bulk_priors = estimate_priors(ref, shrinkage, seed=seed, rescues=rescues).take(bulk.genes)
    rows = np.flatnonzero(estimated.any(axis=1))  # genes the sampler runs on

    mu_hat = bulk_priors.mu.copy()
    sigma_hat = bulk_priors.sigma.copy()
    noise_hat = bulk_priors.noise_var.copy()
    N = bulk.n_samples
    mean = np.repeat(mu_hat[:, :, None], N, axis=2)
    var = np.repeat(np.diagonal(sigma_hat, axis1=1, axis2=2)[:, :, None], N, axis=2)
    rhat = np.full((bulk.n_genes, C), np.nan)

    if rows.size:
        sampled_genes = [bulk.genes[gi] for gi in rows]
        sub_bulk = BulkMatrix(genes=sampled_genes, samples=bulk.samples,
                              values=bulk.values[rows])
        priors = bulk_priors.take(sampled_genes)
        for rnd in range(config.rounds):
            summary = run_mcmc(sub_bulk, priors, metas, config, seed + rnd, rescues=rescues)
            if round_summaries is not None:
                round_summaries.append(summary)
            if rnd + 1 < config.rounds:
                priors = refine_priors(summary, priors, config, seed + rnd, rescues)
        picked = estimated[rows]
        mean[rows] = np.where(picked[:, :, None], summary.cts.mean, mean[rows])
        var[rows] = np.where(picked[:, :, None], summary.cts.variance, var[rows])
        rhat[rows] = np.where(picked, summary.rhat, np.nan)
        mu_hat[rows] = summary.mu_hat
        sigma_hat[rows] = summary.sigma_hat
        noise_hat[rows] = summary.noise_hat

    cts = CtsTensor(genes=bulk.genes, cell_types=cell_types, samples=bulk.samples,
                    mean=mean, variance=var)
    return PosteriorSummary(cts=cts, mu_hat=mu_hat, sigma_hat=sigma_hat,
                            noise_hat=noise_hat, rhat=rhat, estimated=estimated,
                            rescues=rescues)
