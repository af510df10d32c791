"""End-to-end acceptance gate.

Each criterion prints exactly one ``ACCEPTANCE <n>: PASS/FAIL`` line (visible
with ``pytest -s`` or in the captured output on failure) and asserts the same
condition, so a green run doubles as a signed checklist.
"""
from __future__ import annotations

import re
import time

import numpy as np
import pytest

from diagnokit.classifier import (Dataset, TrainConfig, forward, integrated_gradients,
                                  top_k_features, train)
from diagnokit.classifier import HIDDEN1, HIDDEN2, MlpModel
from diagnokit.cli import main
from diagnokit.divergence import ood_subset, symbolic_conflict_subset
from diagnokit.engine import HyperParams, deconvolve, run_mcmc, split_rhat
from diagnokit.geneselect import benjamini_hochberg, select_pairs
from diagnokit.reference import ReferenceDataset
from diagnokit.report import (PATIENT_BLOCKLIST, FeatureReading, PromptInput,
                              build_prompt, render_offline)
from diagnokit.simulate import SyntheticScenario, evaluate_recovery, generate
from diagnokit.types import (BulkMatrix, GenePriors, PairSelection, RefinementConfig,
                             SampleMetas, pair_key)

from deconv_baselines import baseline_ols, nnls_proportions
from oracles import (AdjustmentParams, backprop_gradient, bce_loss, logit,
                     sign_rule_predict, wilcoxon_rank_sum, z_conditional)


def _verdict(n: int, ok: bool, desc: str) -> None:
    print(f"\nACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} — {desc}")
    assert ok, f"acceptance criterion {n} failed: {desc}"


def _rand_model(rng, d, scale=0.5):
    return MlpModel(
        w1=rng.standard_normal((HIDDEN1, d)) * scale,
        b1=rng.standard_normal(HIDDEN1) * 0.1,
        w2=rng.standard_normal((HIDDEN2, HIDDEN1)) * scale,
        b2=rng.standard_normal(HIDDEN2) * 0.1,
        w3=rng.standard_normal((1, HIDDEN2)) * scale,
        b3=rng.standard_normal(1) * 0.1,
        mean=np.zeros(d), sd=np.ones(d), kept=np.ones(d, dtype=bool),
        feature_names=tuple(f"f{i}" for i in range(d)),
        feature_tags=("cts",) * d)


def test_acceptance_1_conjugate_posterior_oracle():
    """Sampler means match the analytic Gaussian conditional to 3 MC SEs."""
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    ok = True
    for C in (1, 2, 3):
        N = 5
        a = rng.standard_normal((C, C))
        sigma = a @ a.T + C * np.eye(C)
        prior = GenePriors(genes=["g"], mu=rng.standard_normal((1, C)), sigma=sigma[None],
                           noise_var=np.array([0.8]))
        w = rng.dirichlet(np.ones(C), N)
        metas = SampleMetas(sample_ids=[f"s{i}" for i in range(N)],
                            cell_types=[f"c{j}" for j in range(C)], proportions=w,
                            bulk_cov=np.zeros((N, 0)), cts_cov=np.zeros((N, 0)))
        x = rng.standard_normal((1, N)) * 2
        bulk = BulkMatrix(genes=["g"], samples=metas.sample_ids,
                          values=x)
        cfg = RefinementConfig(chains=2, iters=6000, burnin=1000, rounds=1)
        hyper = HyperParams(update_coef=False, update_noise=False)
        summary = run_mcmc(bulk, prior, metas, cfg, seed=C, hyper=hyper)
        total = cfg.chains * (cfg.iters - cfg.burnin)  # 10k retained draws
        adj = AdjustmentParams(gamma=np.zeros(0), b=np.zeros((C, 0)))
        for i in range(N):
            mean_ref, cov_ref = z_conditional(prior.mu[0], sigma, 0.8, x[0, i],
                                              metas.proportions[i], metas.bulk_cov[i],
                                              metas.cts_cov[i], adj)
            for c in range(C):
                se = np.sqrt(cov_ref[c, c] / total)
                ok &= abs(summary.cts.mean[0, c, i] - mean_ref[c]) < 3 * se
    elapsed = time.perf_counter() - start
    ok &= elapsed < 30
    _verdict(1, ok, f"1-gene conjugate oracle, C in {{1,2,3}}, N=5, 10k draws "
                    f"within 3 MC SEs ({elapsed:.1f}s < 30s)")


def test_acceptance_2_split_rhat_discriminates():
    """Split-R-hat reads <1.05 when well mixed and >1.5 under a mean offset."""
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    mixed = [rng.standard_normal(2000) for _ in range(4)]
    offset = [rng.standard_normal(2000) + 3.0 * i for i in range(4)]
    r_mixed = split_rhat(mixed)
    r_offset = split_rhat(offset)
    elapsed = time.perf_counter() - start
    ok = r_mixed < 1.05 and r_offset > 1.5 and elapsed < 5
    _verdict(2, ok, f"split R-hat {r_mixed:.4f} < 1.05 mixed, "
                    f"{r_offset:.2f} > 1.5 offset ({elapsed:.2f}s < 5s)")


def test_acceptance_3_recovery_beats_ols_and_refinement_holds():
    """Median per-gene correlation >= 0.85, beats per-gene OLS by > 0.05 on
    every seed, and the second refinement round never degrades round one by
    more than 0.02."""
    start = time.perf_counter()
    cfg = RefinementConfig(chains=2, iters=800, burnin=400, rounds=2,
                           tau=0.01, nu=500.0)
    ok = True
    details = []
    for seed in (1, 2, 3, 4, 5):
        bundle = generate(SyntheticScenario(seed=seed))
        pairs = {(g, c) for g in bundle.bulk.genes
                 for c in bundle.true_z.cell_types}
        selection = PairSelection(
            pairs=frozenset(pairs),
            provenance={pair_key(g, c): "marker" for g, c in pairs})
        rounds: list = []
        summary = deconvolve(bundle.bulk, bundle.ref, selection, bundle.metas,
                             cfg, seed=seed, shrinkage=0.0,
                             round_summaries=rounds)
        med = evaluate_recovery(summary.cts, bundle.true_z).summary()[
            "median_per_gene_overall"]
        ols = baseline_ols(bundle.bulk, bundle.metas)
        med_ols = evaluate_recovery(ols, bundle.true_z).summary()[
            "median_per_gene_overall"]
        med_r1 = evaluate_recovery(rounds[0].cts, bundle.true_z).summary()[
            "median_per_gene_overall"]
        ok &= med >= 0.85
        ok &= med - med_ols > 0.05
        ok &= med >= med_r1 - 0.02
        details.append(f"seed {seed}: {med:.3f} (OLS {med_ols:.3f}, r1 {med_r1:.3f})")
    elapsed = time.perf_counter() - start
    ok &= elapsed < 600
    _verdict(3, ok, "; ".join(details) + f" ({elapsed:.0f}s < 600s)")


def test_acceptance_4_gene_selection_oracles():
    """Planted DE recovery with zero false positives plus BH and Wilcoxon
    hand oracles."""
    rng = np.random.default_rng(2)
    G, planted, C, cells = 100, 10, 5, 15
    types = [f"ct{j + 1}" for j in range(C)]
    labels = [t for t in types for _ in range(cells)]
    names = [f"{t}_c{k}" for t in types for k in range(cells)]
    values = rng.normal(5.0, 0.2, (G, len(names)))
    cols = [i for i, lab in enumerate(labels) if lab == "ct1"]
    for g in range(planted):
        values[g, cols] += np.log2(4.0)  # 4-fold elevation in ct1
    genes = [f"g{i:03d}" for i in range(G)]
    ref = ReferenceDataset(genes=genes, cells=names, cell_type_labels=labels,
                           values=values)
    sel = select_pairs(ref, markers=set(), fdr_threshold=0.01, lfc_threshold=1.0)
    truth = {(genes[g], "ct1") for g in range(planted)}
    exact_recovery = sel.pairs == frozenset(truth)

    bh = benjamini_hochberg([0.01, 0.02, 0.03])
    bh_ok = np.allclose(bh, [0.03, 0.03, 0.03])
    _, p = wilcoxon_rank_sum([1.0, 2.0], [3.0, 4.0])
    wilcoxon_ok = abs(p - 1.0 / 3.0) < 1e-12

    ok = exact_recovery and bh_ok and wilcoxon_ok
    _verdict(4, ok, f"10/100 planted DE pairs recovered exactly with zero FP "
                    f"at fdr=0.01; BH oracle {bh.round(3).tolist()}; "
                    f"exact Wilcoxon p={p:.4f}=1/3")


def test_acceptance_5_classifier_and_attributions():
    """Gradient check, IG completeness/closed form, separable-blob accuracy,
    and a 28-feature synthetic task with 100 held-out samples."""
    start = time.perf_counter()
    rng = np.random.default_rng(3)
    ok = True

    # finite-difference gradient check on 20 random instances
    h = 1e-5
    for _ in range(20):
        d = int(rng.integers(2, 8))
        m = _rand_model(rng, d)
        x = rng.standard_normal(d)
        y = float(rng.integers(0, 2))
        grads = backprop_gradient(m, x, y)
        weights = {k: getattr(m, k) for k in ("w1", "b1", "w2", "b2", "w3", "b3")}
        kw = dict(mean=m.mean, sd=m.sd, kept=m.kept,
                  feature_names=m.feature_names, feature_tags=m.feature_tags)
        name = ("w1", "w2", "w3", "b1", "b2", "b3")[int(rng.integers(6))]
        arr = weights[name]
        idx = np.unravel_index(int(rng.integers(arr.size)), arr.shape)
        p1, p2 = arr.copy(), arr.copy()
        p1[idx] += h
        p2[idx] -= h
        fd = (bce_loss(MlpModel(**{**weights, name: p1}, **kw), x, y)
              - bce_loss(MlpModel(**{**weights, name: p2}, **kw), x, y)) / (2 * h)
        denom = max(abs(fd), abs(grads[name][idx]), 1e-8)
        ok &= abs(fd - grads[name][idx]) / denom < 1e-4

    # IG completeness of the exact piecewise-linear path integral
    comp_err = 0.0
    for _ in range(10):
        m = _rand_model(rng, 6)
        x = rng.standard_normal(6) * 2
        base = rng.standard_normal(6)
        attr = integrated_gradients(m, x, base)
        comp_err = max(comp_err, abs(attr.sum() - (logit(m, x) - logit(m, base))))
    ok &= comp_err < 1e-3

    # closed form for an effectively-linear network
    d = 3
    w1 = np.zeros((HIDDEN1, d))
    w1[:d, :d] = np.eye(d)
    w2 = np.zeros((HIDDEN2, HIDDEN1))
    w2[:d, :d] = np.eye(d)
    w3 = np.zeros((1, HIDDEN2))
    w3[0, :d] = [1.5, -2.0, 0.5]
    lin = MlpModel(w1=w1, b1=np.full(HIDDEN1, 100.0), w2=w2,
                   b2=np.full(HIDDEN2, 100.0), w3=w3, b3=np.zeros(1),
                   mean=np.zeros(d), sd=np.ones(d), kept=np.ones(d, dtype=bool),
                   feature_names=("a", "b", "c"), feature_tags=("cts",) * d)
    x = np.array([0.3, -0.7, 2.0])
    base = np.array([0.1, 0.2, -0.4])
    lin_err = np.abs(integrated_gradients(lin, x, base)
                     - np.array([1.5, -2.0, 0.5]) * (x - base)).max()
    ok &= lin_err < 1e-8

    # separable blobs
    xs = np.vstack([rng.normal(-2, 0.5, (100, 2)), rng.normal(2, 0.5, (100, 2))])
    ys = np.array([0] * 100 + [1] * 100)
    feats = Dataset(values=xs, names=("f0", "f1"), tags=("covariate",) * 2,
                    sample_ids=tuple(f"s{i}" for i in range(200)))
    res = train(feats, ys, TrainConfig(seed=1, max_epochs=100))
    blob_acc = float(np.mean([(forward(res.model, x) >= 0.5) == bool(y)
                              for x, y in zip(feats.values, ys)]))
    ok &= blob_acc >= 0.99

    # 28-feature synthetic task, 100 held-out samples
    d28 = 28
    beta = rng.standard_normal(d28)
    names28 = tuple(f"x{i:02d}" for i in range(d28))
    def _make(n, seed):
        r = np.random.default_rng(seed)
        x = r.standard_normal((n, d28))
        y = (x @ beta > 0).astype(int)
        fv = Dataset(values=x, names=names28, tags=("cts",) * d28,
                     sample_ids=tuple(f"t{seed}_{i}" for i in range(n)))
        return fv, y
    train_f, train_y = _make(400, 10)
    test_f, test_y = _make(100, 11)
    res28 = train(train_f, train_y, TrainConfig(seed=2, max_epochs=200))
    acc28 = float(np.mean([(forward(res28.model, x) >= 0.5) == bool(y)
                           for x, y in zip(test_f.values, test_y)]))
    ok &= acc28 >= 0.85

    elapsed = time.perf_counter() - start
    ok &= elapsed < 60
    _verdict(5, ok, f"gradcheck rel<1e-4 (20 instances); IG completeness "
                    f"{comp_err:.2e}<1e-3; linear closed form {lin_err:.1e}<1e-8; "
                    f"blobs {blob_acc:.2f}>=0.99; 28-feature held-out "
                    f"{acc28:.2f}>=0.85 ({elapsed:.0f}s < 60s)")


def test_acceptance_6_divergence_harness():
    """Conflict subset contains only AD-labeled negative-BETA cases; OOD
    recovers the planted outliers exactly; the sign-rule heuristic fails on
    the conflict subset while the trained MLP succeeds."""
    start = time.perf_counter()
    rng = np.random.default_rng(4)
    names = ("cts:gA|ct1", "beta:gA", "se:gA", "pval:gA")
    tags = ("cts", "eqtl_beta", "eqtl_se", "eqtl_pval")

    # cts drives the label; beta sign is anti-correlated with the label in a
    # planted conflict stratum, so the sign rule misreads exactly those cases
    rows, labels = [], []
    n = 400
    for i in range(n):
        y = i % 2
        cts = (2.0 if y else -2.0) + rng.normal(0, 0.4)
        conflict = y == 1 and i % 4 == 1
        beta = -abs(rng.normal(0.1, 0.02)) if conflict else abs(rng.normal(0.1, 0.02))
        rows.append([cts, beta, 0.05, 0.5])
        labels.append(y)
    labels = np.array(labels)
    feats = Dataset(values=np.array(rows), names=names, tags=tags,
                    sample_ids=tuple(f"s{i:03d}" for i in range(n)))

    idx = symbolic_conflict_subset(feats, labels, size=100)
    conflict_ok = all(labels[i] == 1 and
                      (feats.values[i, 1] < 0) for i in idx)

    res = train(feats, labels, TrainConfig(seed=3, max_epochs=100))
    mlp_acc = float(np.mean([(forward(res.model, feats.values[i]) >= 0.5) == bool(labels[i])
                             for i in idx]))
    rule_acc = float(np.mean(sign_rule_predict(feats)[idx] == labels[idx]))

    # planted OOD: 30 samples pushed far outside the training spread
    mean = np.zeros(4)
    sd = np.ones(4)
    inliers = [rng.uniform(-0.9, 0.9, 4) for _ in range(170)]
    outliers = [np.append(rng.uniform(-0.9, 0.9, 3),
                          float(rng.choice([-1, 1])) * rng.uniform(3, 5))
                for _ in range(30)]
    pool = Dataset(values=np.array(inliers + outliers), names=names, tags=tags,
                   sample_ids=tuple([f"in{i}" for i in range(170)]
                                    + [f"out{i}" for i in range(30)]))
    ood_idx = ood_subset(pool, mean, sd, threshold=1.0)
    ood_ok = set(ood_idx) == set(range(170, 200))

    elapsed = time.perf_counter() - start
    ok = conflict_ok and ood_ok and rule_acc < 0.5 and mlp_acc > 0.8 and elapsed < 60
    _verdict(6, ok, f"conflict subset pure; OOD 30/30 exact; sign rule "
                    f"{rule_acc:.2f}<0.5 vs MLP {mlp_acc:.2f}>0.8 "
                    f"({elapsed:.0f}s < 60s)")


def test_acceptance_7_nnls_baseline():
    """NNLS recovers noiseless proportions to 1e-8 and matches a brute-force
    simplex grid to 2e-3 under small noise."""
    rng = np.random.default_rng(5)
    sig = rng.uniform(1, 10, (8, 3))
    p_true = np.array([0.2, 0.3, 0.5])
    noiseless_err = np.abs(nnls_proportions(sig @ p_true, sig) - p_true).max()

    grid = np.linspace(0.0, 1.0, 4001)
    grid_ok = True
    for _ in range(5):
        sig2 = rng.uniform(1, 10, (6, 2))
        p2 = rng.dirichlet(np.ones(2))
        x = sig2 @ p2 + rng.normal(0, 1e-3, 6)
        est = nnls_proportions(x, sig2)
        resid = ((x[:, None] - sig2 @ np.stack([grid, 1 - grid])) ** 2).sum(axis=0)
        grid_ok &= abs(est[0] - grid[np.argmin(resid)]) < 2e-3

    ok = noiseless_err < 1e-8 and grid_ok
    _verdict(7, ok, f"noiseless NNLS error {noiseless_err:.1e}<1e-8; "
                    f"G=6 C=2 grid oracle within 2e-3")


def test_acceptance_8_report_invariants_and_fixtures():
    """500 random prompt inputs satisfy the prompt/report invariants, the
    patient blocklist holds, the decision flips exactly at 0.5, and the two
    reference patients render as specified."""
    start = time.perf_counter()
    rng = np.random.default_rng(6)
    safe = ("cts:GENE1|typeA", "beta:GENE1", "se:GENE1", "pval:GENE1",
            "cov:age", "cov:smoking")
    ok = True
    for _ in range(500):
        k = int(rng.integers(1, 6))
        picks = rng.choice(len(safe), size=k, replace=False)
        feats = tuple(FeatureReading(name=safe[j],
                                     value=float(rng.normal()),
                                     attribution=float(rng.normal()))
                      for j in picks)
        prob = float(rng.uniform())
        audience = ("clinician", "patient")[int(rng.integers(2))]
        strategy = ("direct", "step", "step-domain")[int(rng.integers(3))]
        inp = PromptInput(
            predicted_label="AD" if prob >= 0.5 else "nonAD", probability=prob,
            top_features=feats, audience=audience, strategy=strategy,
            domain_knowledge={"k": "snippet"},
            population_stats={f.name: (1.0, 0.0, 0.5) for f in feats})
        prompt = build_prompt(inp)
        ok &= all(f.name in prompt for f in feats)
        ok &= prompt.rstrip().endswith("DECISION: <AD|nonAD>")
        report = render_offline(inp)
        ok &= report.decision == ("AD" if prob >= 0.5 else "nonAD")
        ok &= bool(report.recommendations)
        if audience == "patient":
            for term in PATIENT_BLOCKLIST:
                ok &= re.search(rf"\b{re.escape(term)}\b",
                                report.rationale) is None

    def _inp(p, feats, audience="patient"):
        return PromptInput(predicted_label="AD" if p >= 0.5 else "nonAD",
                           probability=p, top_features=feats, audience=audience)

    feat = (FeatureReading(name="cov:age", value=70.0, attribution=0.1),)
    flip_ok = (render_offline(_inp(0.5, feat)).decision == "AD"
               and render_offline(_inp(float(np.nextafter(0.5, 0.0)),
                                       feat)).decision == "nonAD")

    a = render_offline(_inp(0.83, (FeatureReading(
        name="cts:APOE|microglia", value=2.1, attribution=1.3),)))
    patient_a_ok = (a.decision == "AD"
                    and any("lipid management" in r for r in a.recommendations))
    b = render_offline(_inp(0.10, (FeatureReading(
        name="beta:CLU", value=0.02, attribution=-0.4),)))
    patient_b_ok = (b.decision == "nonAD"
                    and any("monitoring" in r for r in b.recommendations))

    elapsed = time.perf_counter() - start
    ok = ok and flip_ok and patient_a_ok and patient_b_ok and elapsed < 10
    _verdict(8, ok, f"500 random prompt inputs pass invariants + blocklist; "
                    f"decision flips at 0.5; patient A -> AD+lipid, "
                    f"patient B -> nonAD+monitoring ({elapsed:.1f}s < 10s)")


def test_acceptance_9_cli_reproducibility(tmp_path):
    """Fixed-seed CLI runs are byte-identical at different thread counts and
    the file formats round-trip losslessly."""
    import json as _json

    from diagnokit.io import load_bulk_matrix, load_cts_tensor

    cfg = tmp_path / "scenario.json"
    cfg.write_text(_json.dumps({"G": 6, "C": 2, "N": 8, "d1": 1, "d2": 0,
                                "ref_cells_per_type": 6}))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    rc1 = main(["simulate", "--config", str(cfg), "--seed", "42",
                "--out", str(out1), "--threads", "1"])
    rc2 = main(["simulate", "--config", str(cfg), "--seed", "42",
                "--out", str(out2), "--threads", "4"])
    files = ("bulk.tsv", "truth_mean.tsv", "truth_variance.tsv", "meta.json",
             "reference.tsv", "reference_labels.json")
    identical = all((out1 / f).read_bytes() == (out2 / f).read_bytes()
                    for f in files)

    bulk = load_bulk_matrix(out1 / "bulk.tsv")
    truth = load_cts_tensor(out1 / "truth.tsv")
    from diagnokit.io import save_bulk_matrix, save_cts_tensor
    save_bulk_matrix(bulk, tmp_path / "bulk2.tsv")
    save_cts_tensor(truth, tmp_path / "truth2.tsv")
    lossless = ((tmp_path / "bulk2.tsv").read_bytes()
                == (out1 / "bulk.tsv").read_bytes()
                and (tmp_path / "truth2_mean.tsv").read_bytes()
                == (out1 / "truth_mean.tsv").read_bytes())

    ok = rc1 == 0 and rc2 == 0 and identical and lossless
    _verdict(9, ok, "fixed-seed simulate byte-identical across thread counts; "
                    "TSV round-trips byte-lossless")
