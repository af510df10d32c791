"""Correctness checks of one pipeline round, computed apart from the program.

Every check reads the files a round wrote and recomputes what they must hold
with numpy/scipy, from the inputs alone. Each returns a list of problems; an
empty list means the check passed. ``run_checks`` maps check names to their
problems and, for classify-explain, counts the attributions that miss
Integrated Gradients completeness.
"""
from __future__ import annotations

import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np

# Thresholds of diagnokit's select-genes defaults.
FDR, LFC, NOISE_QUANTILE, DROPOUT_CEILING = 0.01, 1.0, 0.10, 0.95
# deconv-mcmc: median per-gene Pearson r of estimated pairs against the truth
# must reach RECOVERY_FLOOR and beat the least-squares baseline by RECOVERY_MARGIN.
RECOVERY_FLOOR, RECOVERY_MARGIN = 0.65, 0.02
# |sum(attributions) - (logit(x) - logit(baseline))| allowed per sample:
# rounding over ~100 terms stays near 1e-14.
COMPLETENESS_TOL = 1e-9
PATIENT_BLOCKLIST = (
    "eQTL", "logit", "BETA", "PVAL", "p-value", "attribution",
    "LDL", "homocysteine", "posterior", "covariate", "biomarker",
    "standard error", "effect size",
)


# ----------------------------------------------------------------- parsing

def _lines(path: Path) -> list[str]:
    return [ln for ln in Path(path).read_text().split("\n") if ln]


def read_matrix(path: Path):
    lines = _lines(path)
    cols = lines[0].split("\t")[1:]
    rows = [ln.split("\t") for ln in lines[1:]]
    return [r[0] for r in rows], cols, np.array([r[1:] for r in rows], dtype=np.float64)


def read_tensor(path: Path):
    """Long-format tensor file -> (genes, cell types, samples, G x C x N array)."""
    lines = _lines(path)
    parts = [ln.split("\t") for ln in lines[1:]]
    genes = list(dict.fromkeys(p[0] for p in parts))
    cts = list(dict.fromkeys(p[1] for p in parts))
    samples = list(dict.fromkeys(p[2] for p in parts))
    gi = {g: i for i, g in enumerate(genes)}
    ci = {c: i for i, c in enumerate(cts)}
    si = {s: i for i, s in enumerate(samples)}
    out = np.full((len(genes), len(cts), len(samples)), np.nan)
    for g, c, s, v in parts:
        out[gi[g], ci[c], si[s]] = float(v)
    return genes, cts, samples, out


def read_json(path: Path):
    return json.loads(Path(path).read_text())


def read_reference(sim: Path):
    genes, cells, values = read_matrix(sim / "reference.tsv")
    labels = read_json(sim / "reference_labels.json")
    return genes, np.array([labels[c] for c in cells]), values


def read_selection(sel: Path) -> set[tuple[str, str]]:
    return {(r["gene"], r["cell_type"]) for r in read_json(sel / "selection.json")}


def _rowwise_pearson(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pearson r along the last axis; nan where either side is constant."""
    da = a - a.mean(axis=-1, keepdims=True)
    db = b - b.mean(axis=-1, keepdims=True)
    na, nb = (da * da).sum(axis=-1), (db * db).sum(axis=-1)
    with np.errstate(invalid="ignore", divide="ignore"):
        r = (da * db).sum(axis=-1) / np.sqrt(na * nb)
    r[(na == 0) | (nb == 0)] = np.nan
    return np.clip(r, -1.0, 1.0)


# ------------------------------------------------ deconvolution workloads

def selection_oracle(sim: Path):
    """One-vs-rest selection recomputed with scipy.

    Returns (pairs, details, cut): details maps each tested pair to
    (adjusted p, log2 fold change, score, dropout); cut is the noise cut.
    """
    from scipy.stats import false_discovery_control, mannwhitneyu

    genes, labels, x = read_reference(sim)
    types = sorted(set(labels.tolist()))
    pvals, lfcs = [], []
    lin = np.exp2(x)
    for c in types:
        a, b = x[:, labels == c], x[:, labels != c]
        pvals.append(mannwhitneyu(a, b, axis=1, alternative="two-sided",
                                  method="asymptotic", use_continuity=True).pvalue)
        ma, mb = lin[:, labels == c].mean(axis=1), lin[:, labels != c].mean(axis=1)
        lfcs.append(np.log2((ma + 1e-9) / (mb + 1e-9)))
    p = np.column_stack(pvals)            # G x C
    lfc = np.column_stack(lfcs)
    p_adj = false_discovery_control(p.ravel(), method="bh").reshape(p.shape)
    passed = (p_adj < FDR) & (np.abs(lfc) > LFC)
    score = -np.log10(np.maximum(p_adj, 1e-300)) * np.abs(lfc)
    cut = float(np.quantile(score[passed], NOISE_QUANTILE, method="lower")) \
        if passed.any() else math.inf
    dropout = (x == 0).mean(axis=1)
    keep = passed & (score >= cut) & (dropout[:, None] <= DROPOUT_CEILING)
    pairs = {(genes[g], types[c]) for g, c in zip(*np.nonzero(keep))}
    details = {(genes[g], types[c]): (p_adj[g, c], lfc[g, c], score[g, c], dropout[g])
               for g in range(len(genes)) for c in range(len(types))}
    return pairs, details, cut


def check_selection(sim: Path, sel: Path) -> list[str]:
    """Selected pairs and scores equal the scipy recomputation, except pairs
    that sit within rounding of a threshold."""
    expected, details, cut = selection_oracle(sim)
    records = read_json(sel / "selection.json")
    got = {(r["gene"], r["cell_type"]) for r in records}
    problems = []

    def near(a, b):
        return abs(a - b) <= 1e-9 * max(abs(b), 1e-300)

    for pair in sorted(got ^ expected):
        p_adj, lfc, score, dropout = details[pair]
        if not (near(p_adj, FDR) or near(abs(lfc), LFC) or near(score, cut)
                or near(dropout, DROPOUT_CEILING)):
            side = "selected" if pair in got else "missing"
            problems.append(f"pair {pair} {side}: p_adj={p_adj:.3g} lfc={lfc:.3g} "
                            f"score={score:.3g} cut={cut:.3g}")
    for r in records:
        pair = (r["gene"], r["cell_type"])
        if pair in expected and not math.isclose(r["score"], details[pair][2], rel_tol=1e-6):
            problems.append(f"score of {pair} is {r['score']}, expected {details[pair][2]}")
        if r["provenance"] != "stability":
            problems.append(f"pair {pair} has provenance {r['provenance']} without markers")
    if not expected:
        problems.append("the recomputation selects no pair; the check would be vacuous")
    return problems


def check_unselected_means(sim: Path, sel: Path, dec: Path) -> list[str]:
    """Unselected pairs carry the per-type reference mean (the prior mean)."""
    ref_genes, labels, x = read_reference(sim)
    genes, types, _, mean = read_tensor(dec / "cts_mean.tsv")
    selected = read_selection(sel)
    ref_idx = {g: i for i, g in enumerate(ref_genes)}
    type_mean = {c: x[:, labels == c].mean(axis=1) for c in types}
    problems = []
    for gi, g in enumerate(genes):
        for ci, c in enumerate(types):
            if (g, c) in selected:
                continue
            want = type_mean[c][ref_idx[g]]
            if np.abs(mean[gi, ci] - want).max() > 1e-12 * max(1.0, abs(want)):
                problems.append(f"unselected {(g, c)} mean differs from reference mean {want}")
    return problems


def check_variances(sel: Path, dec: Path) -> list[str]:
    """Posterior variances are finite and non-negative; diagnostics agree."""
    _, _, _, var = read_tensor(dec / "cts_variance.tsv")
    problems = []
    if not np.isfinite(var).all():
        problems.append("non-finite posterior variance")
    if (var < 0).any():
        problems.append(f"{int((var < 0).sum())} negative posterior variances")
    diag = read_json(dec / "diagnostics.json")
    if diag["estimated_pairs"] != len(read_selection(sel)):
        problems.append(f"diagnostics report {diag['estimated_pairs']} estimated pairs, "
                        f"selection has {len(read_selection(sel))}")
    return problems


def check_tensor_roundtrip(dec: Path) -> list[str]:
    """load(save(tensor)) is bit-exact and the bytes survive a second save."""
    from diagnokit.io import load_cts_tensor, save_cts_tensor

    tensor = load_cts_tensor(dec / "cts.tsv")
    problems = []
    for kind, arr in (("mean", tensor.mean), ("variance", tensor.variance)):
        _, _, _, own = read_tensor(dec / f"cts_{kind}.tsv")
        if not np.array_equal(own, arr):
            problems.append(f"loaded {kind} differs from the file's values")
    with tempfile.TemporaryDirectory(dir=dec) as tmp:
        save_cts_tensor(tensor, Path(tmp) / "again.tsv")
        for kind in ("mean", "variance"):
            if (Path(tmp) / f"again_{kind}.tsv").read_bytes() != \
                    (dec / f"cts_{kind}.tsv").read_bytes():
                problems.append(f"save(load(cts_{kind}.tsv)) changes its bytes")
    return problems


def _meta_weights(sim: Path, samples: list[str], types: list[str]) -> np.ndarray:
    by_id = {r["sample_id"]: r["proportions"] for r in read_json(sim / "meta.json")}
    return np.array([[by_id[s][c] for c in types] for s in samples])


def least_squares_baseline(sim: Path, types: list[str]) -> np.ndarray:
    """Per-gene least squares of bulk on proportions, residual spread along w."""
    _, samples, x = read_matrix(sim / "bulk.tsv")
    w = _meta_weights(sim, samples, types)
    beta = np.linalg.lstsq(w, x.T, rcond=None)[0].T            # G x C
    resid = x - beta @ w.T                                     # G x N
    share = w / (w * w).sum(axis=1, keepdims=True)             # N x C
    return beta[:, :, None] + resid[:, None, :] * share.T[None, :, :]


def check_recovery(sim: Path, sel: Path, dec: Path) -> list[str]:
    """Estimated pairs track the truth and beat the least-squares baseline."""
    genes, types, _, est = read_tensor(dec / "cts_mean.tsv")
    _, _, _, truth = read_tensor(sim / "truth_mean.tsv")
    ols = least_squares_baseline(sim, types)
    selected = read_selection(sel)
    mask = np.array([[(g, c) in selected for c in types] for g in genes])
    if not mask.any():
        return ["no estimated pairs"]
    r_est = np.nanmedian(_rowwise_pearson(est, truth)[mask])
    r_ols = np.nanmedian(_rowwise_pearson(ols, truth)[mask])
    problems = []
    if not r_est >= RECOVERY_FLOOR:
        problems.append(f"median per-gene r {r_est:.4f} below floor {RECOVERY_FLOOR}")
    if not r_est - r_ols >= RECOVERY_MARGIN:
        problems.append(f"median per-gene r {r_est:.4f} does not beat least squares "
                        f"{r_ols:.4f} by {RECOVERY_MARGIN}")
    return problems


def check_eval(sim: Path, dec: Path, ev: Path) -> list[str]:
    """recovery.json equals per-gene and per-sample Pearson r recomputed here."""
    _, types, _, est = read_tensor(dec / "cts_mean.tsv")
    _, _, _, truth = read_tensor(sim / "truth_mean.tsv")
    rec = read_json(ev / "recovery.json")
    problems = []
    per_gene = _rowwise_pearson(est, truth)                               # G x C
    per_sample = _rowwise_pearson(est.transpose(1, 2, 0), truth.transpose(1, 2, 0))
    for level, table in (("per_gene", per_gene.T), ("per_sample", per_sample)):
        for ct, vals in zip(types, table):
            got = rec[level][ct]
            ok = vals[np.isfinite(vals)]
            if got["n"] != ok.size or got["excluded"] != vals.size - ok.size:
                problems.append(f"{level} {ct}: n/excluded {got['n']}/{got['excluded']}, "
                                f"expected {ok.size}/{vals.size - ok.size}")
            elif ok.size and not math.isclose(got["median"], float(np.median(ok)),
                                              rel_tol=1e-9, abs_tol=1e-12):
                problems.append(f"{level} {ct}: median {got['median']}, "
                                f"expected {float(np.median(ok))}")
    overall = per_gene[np.isfinite(per_gene)]
    want = float(np.median(overall)) if overall.size else None
    got = rec["median_per_gene_overall"]
    if (got is None) != (want is None) or (
            want is not None and not math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12)):
        problems.append(f"median_per_gene_overall {got}, expected {want}")
    return problems


# ------------------------------------------------------- classify-explain

def read_dataset(path: Path):
    lines = _lines(path)
    names = lines[0].split("\t")[1:-1]
    tags = lines[1].split("\t")[1:-1]
    rows = [ln.split("\t") for ln in lines[2:]]
    x = np.array([r[1:-1] for r in rows], dtype=np.float64)
    return [r[0] for r in rows], names, tags, x, np.array([int(r[-1]) for r in rows])


class Mlp:
    """Forward pass of a model.json checkpoint, batched over samples."""

    def __init__(self, path: Path):
        m = read_json(path)
        self.w = [np.array(m[k], dtype=np.float64) for k in ("w1", "w2", "w3")]
        self.b = [np.array(m[k], dtype=np.float64) for k in ("b1", "b2", "b3")]
        self.mean = np.array(m["mean"], dtype=np.float64)
        self.sd = np.array(m["sd"], dtype=np.float64)
        self.kept = np.array(m["kept"], dtype=bool)

    def logit(self, x: np.ndarray) -> np.ndarray:
        h = (x[:, self.kept] - self.mean) / self.sd
        for w, b in zip(self.w[:2], self.b[:2]):
            h = np.maximum(h @ w.T + b, 0.0)
        return (h @ self.w[2].T + self.b[2])[:, 0]

    def prob(self, x: np.ndarray) -> np.ndarray:
        return 1.0 / (1.0 + np.exp(-self.logit(x)))

    def baseline(self, x: np.ndarray) -> np.ndarray:
        """Default IG baseline: training mean for kept features, x elsewhere."""
        base = x.copy()
        base[:, self.kept] = self.mean
        return base


def _report_dirs(out: Path) -> list[Path]:
    return sorted(p for p in out.iterdir() if p.name.startswith("report_"))


def check_training(inputs: Path, out: Path) -> list[str]:
    """The checkpoint covers every feature and training ran its fixed epochs."""
    _, names, _, _, _ = read_dataset(inputs / "dataset.tsv")
    model = read_json(out / "model" / "model.json")
    log = read_json(out / "model" / "train_log.json")["log"]
    epochs = read_json(inputs / "train.json")["max_epochs"]
    problems = []
    if model["feature_names"] != names or len(model["kept"]) != len(names):
        problems.append("checkpoint features differ from the dataset's")
    if len(log) != epochs:
        problems.append(f"training ran {len(log)} epochs, configured {epochs} "
                        f"with patience that cannot stop it early")
    return problems


def check_reports(inputs: Path, out: Path) -> list[str]:
    """Report probabilities match the forward pass and decisions agree."""
    samples, _, _, x, _ = read_dataset(inputs / "dataset.tsv")
    probs = Mlp(out / "model" / "model.json").prob(x)
    index = {s: i for i, s in enumerate(samples)}
    problems = []
    dirs = _report_dirs(out)
    if not dirs:
        return ["no reports"]
    for d in dirs:
        _, sample, audience = d.name.split("_", 2)
        rep = read_json(d / "report.json")
        p = probs[index[sample]]
        if not math.isclose(rep["source_probability"], p, rel_tol=1e-12, abs_tol=1e-14):
            problems.append(f"{d.name}: probability {rep['source_probability']}, "
                            f"forward pass gives {p}")
        if abs(p - 0.5) > 1e-12 and rep["decision"] != ("AD" if p >= 0.5 else "nonAD"):
            problems.append(f"{d.name}: decision {rep['decision']} at probability {p}")
        if rep["audience"] != audience or rep["generator"] != "offline":
            problems.append(f"{d.name}: audience/generator {rep['audience']}/"
                            f"{rep['generator']}")
    return problems


def blocklisted(text: str) -> list[str]:
    return [t for t in PATIENT_BLOCKLIST
            if re.search(r"(?<!\w)" + re.escape(t) + r"(?!\w)", text)]


def check_patient_language(out: Path) -> list[str]:
    """Patient reports contain no blocklisted technical term."""
    problems = []
    dirs = [d for d in _report_dirs(out) if d.name.endswith("_patient")]
    if not dirs:
        return ["no patient reports"]
    for d in dirs:
        rep = read_json(d / "report.json")
        text = "\n".join([rep["rationale"], *rep["recommendations"],
                          (d / "report.md").read_text()])
        found = blocklisted(text)
        if found:
            problems.append(f"{d.name}: blocklisted terms {found}")
    return problems


def check_divergence(inputs: Path, out: Path) -> list[str]:
    """Subsets, predictions and accuracies match the independent forward pass."""
    samples, _, tags, x, y = read_dataset(inputs / "dataset.tsv")
    mlp = Mlp(out / "model" / "model.json")
    pred = (mlp.prob(x) >= 0.5).astype(int)
    index = {s: i for i, s in enumerate(samples)}
    beta = np.array([t == "eqtl_beta" for t in tags])
    mean, sd = np.zeros(x.shape[1]), np.ones(x.shape[1])
    mean[mlp.kept], sd[mlp.kept] = mlp.mean, mlp.sd
    members = {
        "symbolic-conflict": [i for i in range(len(y))
                              if y[i] == 1 and (x[i, beta] < 0).any()][:100],
        "ood": [i for i in range(len(y)) if (np.abs(x[i] - mean) / sd).max() > 1.0][:100],
    }
    problems = []
    reports = read_json(out / "div" / "divergence.json")
    if sorted(r["subset_name"] for r in reports) != sorted(members):
        return [f"subsets {[r['subset_name'] for r in reports]}"]
    for r in reports:
        rows = r["case_table"]
        idx = [index[row["sample"]] for row in rows]
        if idx != members[r["subset_name"]]:
            problems.append(f"{r['subset_name']}: members differ from the recomputed subset")
        if [row["mlp_pred"] for row in rows] != [int(pred[i]) for i in idx]:
            problems.append(f"{r['subset_name']}: predictions differ from the forward pass")
        acc = sum(int(pred[i] == y[i]) for i in idx) / len(idx) if idx else None
        if r["mlp_accuracy"] != acc or r["subset_size"] != len(idx):
            problems.append(f"{r['subset_name']}: accuracy {r['mlp_accuracy']}, "
                            f"recomputed {acc}")
        if r["llm_accuracy"] is not None:
            problems.append(f"{r['subset_name']}: offline run reports an LLM accuracy")
    return problems


def attribution_completeness(inputs: Path, out: Path) -> tuple[int, int, list[str]]:
    """Count the probe's samples whose attributions miss IG completeness.

    Returns (incomplete samples, samples, problems). Problems are outright
    errors: wrong rows or non-zero attributions on features the model dropped.
    """
    probe = inputs / "probe"
    samples, names, _, x, _ = read_dataset(probe / "dataset.tsv")
    mlp = Mlp(probe / "model" / "model.json")
    attr_samples, attr_names, attr = read_matrix(out / "attr" / "attributions.tsv")
    if attr_samples != samples or attr_names != names:
        return 0, len(samples), ["attribution rows or columns differ from the dataset"]
    problems = []
    if np.abs(attr[:, ~mlp.kept]).max(initial=0.0) != 0.0:
        problems.append("non-zero attribution on a dropped feature")
    gap = mlp.logit(x) - mlp.logit(mlp.baseline(x))
    err = np.abs(attr.sum(axis=1) - gap)
    incomplete = int((err > COMPLETENESS_TOL * np.maximum(1.0, np.abs(gap))).sum())
    return incomplete, len(samples), problems


# ------------------------------------------------------------- entry point

def run_checks(workload: str, inputs: Path,
               out: Path) -> tuple[dict[str, list[str]], int, int]:
    """All checks of one workload's round.

    Returns ({check: problems}, probe attributions missing IG completeness,
    probe attributions checked).
    """
    sim = inputs / "sim"
    if workload in ("deconv-mcmc", "reference-wide"):
        sel, dec, ev = out / "sel", out / "dec", out / "eval"
        results = {
            "selection": check_selection(sim, sel),
            "unselected_means": check_unselected_means(sim, sel, dec),
            "variances": check_variances(sel, dec),
            "tensor_roundtrip": check_tensor_roundtrip(dec),
            "eval": check_eval(sim, dec, ev),
        }
        if workload == "deconv-mcmc":
            results["recovery"] = check_recovery(sim, sel, dec)
        return results, 0, 0
    incomplete, attributions, attr_problems = attribution_completeness(inputs, out)
    return {
        "training": check_training(inputs, out),
        "reports": check_reports(inputs, out),
        "patient_language": check_patient_language(out),
        "divergence": check_divergence(inputs, out),
        "attributions": attr_problems,
    }, incomplete, attributions
