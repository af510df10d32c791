"""Synthetic generator consistency, evaluation metrics, and baselines."""
from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from diagnokit.errors import ValidationError
from diagnokit.reference import signature_matrix
from diagnokit.simulate import (GroundTruthBundle, RecoveryReport, SyntheticScenario,
                                _shared_component_cov, evaluate_recovery, generate)
from diagnokit.types import CtsTensor

from deconv_baselines import baseline_ols, baseline_reference_mean, nnls_proportions
from oracles import pearson


def test_scenario_validation():
    with pytest.raises(ValidationError):
        SyntheticScenario(G=0)
    with pytest.raises(ValidationError):
        SyntheticScenario(C=2, dirichlet_alpha=(1.0,))
    with pytest.raises(ValidationError):
        SyntheticScenario(noise_sd=-1.0)
    # each of these used to fail inside generate, with no field named
    for bad, field in (({"ref_cells_per_type": 0}, "ref_cells_per_type"),
                       ({"ref_cells_per_type": 1}, "ref_cells_per_type"),
                       ({"expr_sd": -1.0}, "expr_sd"),
                       ({"ref_cell_sd": -1.0}, "ref_cell_sd"),
                       ({"sigma_scale": -1.0}, "sigma_scale"),
                       ({"sigma_scale": 0.0}, "sigma_scale"),
                       ({"sigma_rho_range": (0.5, 1.5)}, "sigma_rho_range"),
                       ({"sigma_rho_range": (-0.1, 0.5)}, "sigma_rho_range"),
                       ({"sigma_rho_range": (0.9, 0.5)}, "sigma_rho_range"),
                       ({"sigma_rho_range": (0.5,)}, "sigma_rho_range")):
        with pytest.raises(ValidationError, match=field):
            SyntheticScenario(**bad)
    # the edges of the valid ranges still generate
    generate(SyntheticScenario(G=3, N=4, expr_sd=0.0, ref_cell_sd=0.0,
                               sigma_rho_range=(0.0, 0.0), ref_cells_per_type=2))


def test_generate_deterministic():
    a = generate(SyntheticScenario(G=5, N=6, seed=11, ref_cells_per_type=6))
    b = generate(SyntheticScenario(G=5, N=6, seed=11, ref_cells_per_type=6))
    assert np.array_equal(a.bulk.values, b.bulk.values)
    assert np.array_equal(a.ref.values, b.ref.values)


def _old_reference(donors, rng, cell_types, ref_cell_sd):
    """The per-cell loop ``generate`` used to build the reference with: G
    normals per cell, type by type, added to the cell's donor vector."""
    G, M, _ = donors.shape
    cells, labels, cols = [], [], []
    for j, ct in enumerate(cell_types):
        for k in range(M):
            cells.append(f"{ct}_cell{k:03d}")
            labels.append(ct)
            cols.append(donors[:, k, j] + rng.normal(0.0, ref_cell_sd, G))
    return cells, labels, np.column_stack(cols)


@pytest.mark.parametrize("seed", [1, 101])
def test_reference_matches_the_per_cell_loop_bit_for_bit(monkeypatch, seed):
    sc = SyntheticScenario(G=12, C=3, N=5, ref_cells_per_type=7, seed=seed)
    states = []

    class Recording(np.random.Generator):
        def normal(self, *args, **kwargs):
            states.append(self.bit_generator.state)
            return super().normal(*args, **kwargs)

    make = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda s: Recording(make(s).bit_generator))
    bundle = generate(sc)
    monkeypatch.undo()
    # the reference draw comes last, and the sd scales it only, so with sd 0
    # the reference holds the donor vectors themselves
    zero = generate(dataclasses.replace(sc, ref_cell_sd=0.0)).ref.values
    donors = np.swapaxes(zero.reshape(sc.G, sc.C, sc.ref_cells_per_type), 1, 2)
    rng = np.random.Generator(np.random.PCG64())
    # the reference's normals follow those of mu, gamma and B
    rng.bit_generator.state = states[3]
    cells, labels, values = _old_reference(donors, rng, bundle.true_z.cell_types,
                                           sc.ref_cell_sd)
    assert bundle.ref.cells == cells and bundle.ref.cell_type_labels == labels
    assert np.array_equal(bundle.ref.values, values)
    assert bundle.ref.values.flags.c_contiguous


def _old_shared_component_cov(rng, C, rho_range, scale):
    """The per-gene draw ``generate`` used to call once per gene: rho, then C
    jitters, then the covariance."""
    rho = rng.uniform(*rho_range)
    s = rng.uniform(0.9, 1.1, C)
    corr = (1.0 - rho) * np.eye(C) + rho * np.ones((C, C))
    return scale * np.outer(s, s) * corr


@pytest.mark.parametrize("G, C", [(1, 1), (5, 3), (40, 3), (7, 5), (30, 2)])
@pytest.mark.parametrize("rho_range", [(0.95, 0.99), (0.0, 0.0), (0.3, 0.3), (0.0, 0.9)])
def test_shared_component_cov_matches_the_per_gene_loop_bit_for_bit(G, C, rho_range):
    for seed in range(4):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got = _shared_component_cov(rng, G, C, rho_range, 1.3)
        want = np.stack([_old_shared_component_cov(ref, C, rho_range, 1.3)
                         for _ in range(G)])
        assert got.tobytes() == want.tobytes()
        # the stream is left where the loop left it
        assert rng.bit_generator.state == ref.bit_generator.state


def test_mixture_reconstruction_exact():
    sc = SyntheticScenario(G=8, N=10, seed=3, ref_cells_per_type=6)
    bundle = generate(sc)
    w, c1, c2 = bundle.metas.proportions, bundle.metas.bulk_cov, bundle.metas.cts_cov
    z = np.transpose(bundle.true_z.mean, (0, 2, 1))  # (G, N, C)
    rebuilt = (np.einsum("nc,gnc->gn", w, z) + bundle.gamma @ c1.T
               + np.einsum("nc,gck,nk->gn", w, bundle.b, c2) + bundle.noise)
    assert np.abs(rebuilt - bundle.bulk.values).max() < 1e-12


def test_noiseless_identity_scenario():
    sc = SyntheticScenario(G=4, C=1, N=5, d1=0, d2=0, noise_sd=0.0,
                           covariate_effect_scale=0.0, dirichlet_alpha=(1.0,),
                           seed=0, ref_cells_per_type=4)
    bundle = generate(sc)
    assert np.allclose(bundle.bulk.values, bundle.true_z.mean[:, 0, :], atol=1e-12)


class TestPearson:
    def test_hand_oracle(self):
        # a=[1,2,3], b=[1,2,4]: centered dot 3, norms sqrt(2) and sqrt(14/3)
        assert pearson([1, 2, 3], [1, 2, 4]) == pytest.approx(
            3.0 / np.sqrt(2.0 * 14.0 / 3.0), abs=1e-12)

    def test_perfect_and_inverse(self):
        assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)
        assert pearson([1, 2, 3], [-1, -2, -3]) == pytest.approx(-1.0)

    def test_zero_variance_rejected(self):
        with pytest.raises(ValidationError):
            pearson([1, 1], [1, 2])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            pearson([1, 2], [1, 2, 3])


class TestNnls:
    def test_noiseless_recovery(self):
        rng = np.random.default_rng(0)
        sig = rng.uniform(1, 10, (8, 3))
        p_true = np.array([0.2, 0.3, 0.5])
        est = nnls_proportions(sig @ p_true, sig)
        assert np.abs(est - p_true).max() < 1e-8

    def test_grid_oracle_two_types(self):
        # brute-force search over the 2-type simplex as an independent oracle
        rng = np.random.default_rng(1)
        grid = np.linspace(0.0, 1.0, 4001)
        for _ in range(5):
            sig = rng.uniform(1, 10, (6, 2))
            p_true = rng.dirichlet(np.ones(2))
            x = sig @ p_true + rng.normal(0, 1e-3, 6)
            est = nnls_proportions(x, sig)
            resid = ((x[:, None] - sig @ np.stack([grid, 1 - grid])) ** 2).sum(axis=0)
            best = grid[np.argmin(resid)]
            assert abs(est[0] - best) < 2e-3

    def test_rank_deficient_rejected(self):
        sig = np.ones((6, 2))
        with pytest.raises(ValidationError):
            nnls_proportions(np.ones(6), sig)

    def test_shape_validation(self):
        with pytest.raises(ValidationError):
            nnls_proportions(np.ones(3), np.ones((2, 4)))


def test_baseline_reference_mean_constant_over_samples():
    bundle = generate(SyntheticScenario(G=5, N=4, seed=2, ref_cells_per_type=6))
    base = baseline_reference_mean(bundle.ref, bundle.bulk)
    sig = signature_matrix(bundle.ref)
    assert np.allclose(base.mean[:, :, 0], sig)
    assert np.allclose(base.mean, base.mean[:, :, [0]])


def test_baseline_ols_fits_proportion_regression():
    bundle = generate(SyntheticScenario(G=6, N=30, seed=4, ref_cells_per_type=6))
    est = baseline_ols(bundle.bulk, bundle.metas)
    assert est.mean.shape == bundle.true_z.mean.shape
    # residual redistribution preserves the bulk mixture identity
    w = bundle.metas.proportions
    mixed = np.einsum("nc,gcn->gn", w, est.mean)
    assert np.allclose(mixed, bundle.bulk.values, atol=1e-8)


def test_evaluate_recovery_counts_exclusions():
    genes, cts, samples = ["g0"], ["a"], ["s0", "s1", "s2"]
    truth = CtsTensor(genes=genes, cell_types=cts, samples=samples,
                      mean=np.array([[[1.0, 2.0, 3.0]]]),
                      variance=np.zeros((1, 1, 3)))
    flat = CtsTensor(genes=genes, cell_types=cts, samples=samples,
                     mean=np.ones((1, 1, 3)), variance=np.zeros((1, 1, 3)))
    report = evaluate_recovery(flat, truth)
    assert report.excluded_per_gene["a"] == 1
    assert report.per_gene["a"] == []
    assert report.summary()["median_per_gene_overall"] is None


def test_evaluate_recovery_axis_mismatch():
    t = CtsTensor(genes=["g"], cell_types=["a"], samples=["s0", "s1"],
                  mean=np.zeros((1, 1, 2)), variance=np.zeros((1, 1, 2)))
    u = CtsTensor(genes=["h"], cell_types=["a"], samples=["s0", "s1"],
                  mean=np.zeros((1, 1, 2)), variance=np.zeros((1, 1, 2)))
    with pytest.raises(ValidationError):
        evaluate_recovery(t, u)


def test_evaluate_recovery_names_the_estimate_ids_the_truth_lacks():
    def tensor(genes):
        shape = (len(genes), 1, 2)
        return CtsTensor(genes=genes, cell_types=["a"], samples=["s0", "s1"],
                         mean=np.zeros(shape), variance=np.zeros(shape))

    extra = [f"x{i}" for i in range(7)]
    with pytest.raises(ValidationError, match=r"^missing from truth genes: 'x0', 'x1', "
                                              r"'x2', 'x3', 'x4' and 2 more$"):
        evaluate_recovery(tensor(["g", *extra]), tensor(["g"]))


def test_recovery_report_summary_quartiles():
    report = RecoveryReport(cell_types=["a"],
                            per_gene={"a": [0.1, 0.5, 0.9, 0.7]},
                            per_sample={"a": []},
                            excluded_per_gene={"a": 0},
                            excluded_per_sample={"a": 2})
    s = report.summary()
    assert s["per_gene"]["a"]["median"] == pytest.approx(0.6)
    assert s["per_sample"]["a"]["excluded"] == 2
    assert s["median_per_gene_overall"] == pytest.approx(0.6)


def _recovery_loop(estimate, truth):
    """Reference: one scalar ``pearson`` per (gene, type) and (sample, type)."""
    out = {"per_gene": {}, "per_sample": {}, "excl_gene": {}, "excl_sample": {}}
    for j, ct in enumerate(estimate.cell_types):
        for level, pairs in (
                ("gene", [(estimate.mean[g, j], truth.mean[g, j])
                          for g in range(len(estimate.genes))]),
                ("sample", [(estimate.mean[:, j, i], truth.mean[:, j, i])
                            for i in range(len(estimate.samples))])):
            vals, excluded = [], 0
            for a, b in pairs:
                try:
                    vals.append(pearson(a, b))
                except ValidationError:
                    excluded += 1
            out[f"per_{level}"][ct] = vals
            out[f"excl_{level}"][ct] = excluded
    return out


@pytest.mark.parametrize("G,C,N", [(7, 3, 9), (1, 2, 5), (6, 2, 1), (5, 1, 4)])
def test_evaluate_recovery_matches_pearson_loop(G, C, N):
    rng = np.random.default_rng(G * 100 + C * 10 + N)
    truth_mean = rng.normal(size=(G, C, N))
    est_mean = truth_mean + rng.normal(scale=0.5, size=(G, C, N))
    planted = G > 1 and N > 1 and C > 1
    if planted:
        truth_mean[:, -1, -1] = 0.25               # constant truth sample: excluded
        truth_mean[1, 0] = 0.0                     # constant truth gene: excluded
        est_mean[0, 0] = 3.0                       # constant estimate gene: excluded
        est_mean[2 % G, -1] = 2.0 * truth_mean[2 % G, -1] + 1.0   # r = +1
        est_mean[3 % G, 0] = -truth_mean[3 % G, 0]                # r = -1
    axes = dict(genes=[f"g{i}" for i in range(G)], cell_types=[f"c{j}" for j in range(C)],
                samples=[f"s{i}" for i in range(N)], variance=np.zeros((G, C, N)))
    est = CtsTensor(mean=est_mean, **axes)
    truth = CtsTensor(mean=truth_mean, **axes)
    got = evaluate_recovery(est, truth)
    want = _recovery_loop(est, truth)
    assert got.excluded_per_gene == want["excl_gene"]
    assert got.excluded_per_sample == want["excl_sample"]
    for level in ("per_gene", "per_sample"):
        for ct in got.cell_types:
            np.testing.assert_allclose(getattr(got, level)[ct], want[level][ct],
                                       rtol=1e-12, atol=1e-12)
            assert all(-1.0 <= v <= 1.0 for v in getattr(got, level)[ct])
    if planted:
        assert got.excluded_per_gene["c0"] == 2
        assert got.excluded_per_sample[f"c{C - 1}"] == 1
        assert max(got.per_gene[f"c{C - 1}"]) == pytest.approx(1.0, abs=1e-15)
        assert min(got.per_gene["c0"]) == pytest.approx(-1.0, abs=1e-15)
