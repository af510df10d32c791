"""Wilcoxon / BH / fold-change oracles and tripartite pair selection."""
from __future__ import annotations

import json

import numpy as np
import pytest
from scipy.stats import mannwhitneyu

from diagnokit.errors import ParseError, ValidationError
from diagnokit.geneselect import (benjamini_hochberg, load_marker_list,
                                  load_selection, save_selection,
                                  select_pairs, stability_scores)
from diagnokit.reference import ReferenceDataset
from diagnokit.types import pair_key

from oracles import log2_fold_change, wilcoxon_rank_sum


class TestWilcoxon:
    def test_exact_small_sample_oracle(self):
        # n1=n2=2, no ties: 6 equally likely rank splits, 2 as extreme
        _, p = wilcoxon_rank_sum([1.0, 2.0], [3.0, 4.0])
        assert p == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_exact_symmetry(self):
        _, p1 = wilcoxon_rank_sum([1, 2, 5], [3, 4, 6])
        _, p2 = wilcoxon_rank_sum([3, 4, 6], [1, 2, 5])
        assert p1 == pytest.approx(p2, abs=1e-12)

    def test_identical_groups_p_one(self):
        _, p = wilcoxon_rank_sum([1.0, 1.0], [1.0, 1.0])
        assert p == 1.0

    def test_large_sample_matches_scipy_asymptotic(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = rng.normal(0, 1, 10)
            b = rng.normal(0.5, 1, 12)
            u, p = wilcoxon_rank_sum(a, b)
            ref = mannwhitneyu(a, b, alternative="two-sided", method="asymptotic")
            assert u == pytest.approx(ref.statistic, abs=1e-9)
            assert p == pytest.approx(ref.pvalue, rel=1e-9)

    def test_large_sample_ties_match_scipy(self):
        rng = np.random.default_rng(1)
        a = rng.integers(0, 4, 15).astype(float)
        b = rng.integers(0, 4, 15).astype(float)
        u, p = wilcoxon_rank_sum(a, b)
        ref = mannwhitneyu(a, b, alternative="two-sided", method="asymptotic")
        assert u == pytest.approx(ref.statistic, abs=1e-9)
        assert p == pytest.approx(ref.pvalue, rel=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            wilcoxon_rank_sum([], [1.0])


class TestBenjaminiHochberg:
    def test_hand_oracle(self):
        adj = benjamini_hochberg([0.01, 0.02, 0.03])
        assert np.allclose(adj, [0.03, 0.03, 0.03])

    def test_monotone_and_bounded(self):
        rng = np.random.default_rng(2)
        p = rng.uniform(0, 1, 50)
        adj = benjamini_hochberg(p)
        assert (adj >= p - 1e-15).all() and (adj <= 1.0).all()
        order = np.argsort(p)
        assert (np.diff(adj[order]) >= -1e-15).all()

    def test_empty_ok_invalid_rejected(self):
        assert benjamini_hochberg([]).size == 0
        with pytest.raises(ValidationError):
            benjamini_hochberg([0.5, 1.5])


def test_log2_fold_change_oracle():
    # groups already on log2 scale: values 3 vs 1 -> linear 8 vs 2 -> lfc 2
    assert log2_fold_change([3.0], [1.0]) == pytest.approx(2.0, abs=1e-9)
    assert log2_fold_change([1.0], [3.0]) == pytest.approx(-2.0, abs=1e-9)


def _planted_reference(G=40, planted=4, C=5, cells_per_type=15, fold=4.0,
                       sd=0.2, seed=0):
    """Planted one-vs-rest DE genes: type ct1 elevated by log2(fold)."""
    rng = np.random.default_rng(seed)
    types = [f"ct{j + 1}" for j in range(C)]
    labels = [t for t in types for _ in range(cells_per_type)]
    cells = [f"{t}_c{k}" for t in types for k in range(cells_per_type)]
    base = 5.0
    values = rng.normal(base, sd, (G, len(cells)))
    for g in range(planted):
        cols = [i for i, lab in enumerate(labels) if lab == "ct1"]
        values[g, cols] += np.log2(fold)
    genes = [f"g{i:03d}" for i in range(G)]
    ref = ReferenceDataset(genes=genes, cells=cells, cell_type_labels=labels,
                           values=values)
    return ref, {(genes[g], "ct1") for g in range(planted)}


def test_planted_signal_recovered_exactly():
    ref, truth = _planted_reference()
    sel = select_pairs(ref, markers=set())
    assert sel.pairs == frozenset(truth)
    for pair in sel.pairs:
        key = pair_key(*pair)
        assert sel.provenance[key] == "stability"
        assert sel.scores[key] > 0


def test_markers_always_survive():
    ref, _ = _planted_reference()
    markers = {("g039", "ct3"), ("unknown_gene", "ct1")}
    sel = select_pairs(ref, markers=markers)
    assert ("g039", "ct3") in sel.pairs          # kept despite no DE signal
    assert ("unknown_gene", "ct1") not in sel.pairs  # filtered: not in reference
    assert sel.provenance[pair_key("g039", "ct3")] == "marker"


def test_pairs_whose_names_hold_a_bar_keep_their_own_keys(tmp_path):
    """('a|b', 'c') and ('a', 'b|c') are two pairs with two provenances and
    two scores, in the selection and in selection.json."""
    rng = np.random.default_rng(0)
    values = rng.normal(5.0, 0.2, (2, 40))
    values[0, :20] += 3.0  # 'a|b' up in 'c'
    values[1, 20:] += 1.5  # 'a' up in 'b|c', by less
    ref = ReferenceDataset(genes=["a|b", "a"], cells=[f"k{i}" for i in range(40)],
                           cell_type_labels=["c"] * 20 + ["b|c"] * 20, values=values)
    sel = select_pairs(ref, {("a|b", "c")})
    assert len(sel.pairs) == len(sel.provenance) == len(sel.scores) == 4
    assert sel.provenance[pair_key("a|b", "c")] == "both"
    assert sel.provenance[pair_key("a", "b|c")] == "stability"
    assert sel.scores[pair_key("a|b", "c")] > 1.5 * sel.scores[pair_key("a", "b|c")]
    save_selection(sel, tmp_path / "selection.json")
    records = {(r["gene"], r["cell_type"]): r
               for r in json.loads((tmp_path / "selection.json").read_text())}
    assert records["a|b", "c"]["provenance"] == "both"
    assert records["a|b", "c"]["score"] == sel.scores[pair_key("a|b", "c")]
    assert load_selection(tmp_path / "selection.json") == sel


def test_stability_scores_monotone_in_fdr():
    ref, _ = _planted_reference()
    _, loose = stability_scores(ref, fdr_threshold=0.05, lfc_threshold=1.0)
    _, tight = stability_scores(ref, fdr_threshold=1e-6, lfc_threshold=1.0)
    assert tight.any() and not (tight & ~loose).any()


def test_select_pairs_threshold_validation():
    ref, _ = _planted_reference(G=5, planted=1)
    with pytest.raises(ValidationError):
        select_pairs(ref, set(), fdr_threshold=0.0)
    with pytest.raises(ValidationError):
        select_pairs(ref, set(), noise_quantile=1.0)


def test_marker_list_parsing(tmp_path):
    path = tmp_path / "markers.json"
    path.write_text(json.dumps({"g1": ["ct1", "ct2"], "g2": ["ct1"]}))
    assert load_marker_list(path) == {("g1", "ct1"), ("g1", "ct2"), ("g2", "ct1")}
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")
    with pytest.raises(ParseError):
        load_marker_list(bad)
    # an entry that is not a list of cell-type names: a number, nested lists
    # and objects, and a list holding a number (once dropped without a word)
    for entry in (3, [["ct1"]], [{"ct": "ct1"}], [1], ["ct1", None]):
        bad.write_text(json.dumps({"g": entry}))
        with pytest.raises(ParseError, match="marker entry for 'g'"):
            load_marker_list(bad)


def test_selection_roundtrip(tmp_path):
    ref, _ = _planted_reference()
    sel = select_pairs(ref, markers={("g039", "ct2")})
    path = tmp_path / "sel.json"
    save_selection(sel, path)
    loaded = load_selection(path)
    assert loaded.pairs == sel.pairs
    assert loaded.provenance == sel.provenance
    assert loaded.scores == sel.scores


@pytest.mark.parametrize("cells_per_type,seed", [(4, 0), (4, 1), (20, 2), (20, 3)])
def test_selection_equivariant_under_gene_and_cell_permutation(tmp_path, cells_per_type,
                                                              seed):
    """Permuting the reference genes and cells gives the same selection.json
    pairs and provenance, with scores equal within 1e-12. Four cells per type
    (12 in all) take the exact Wilcoxon path, twenty the normal approximation."""
    from diagnokit.simulate import SyntheticScenario, generate

    ref = generate(SyntheticScenario(G=40, C=3, N=4, ref_cells_per_type=cells_per_type,
                                     seed=seed)).ref
    rng = np.random.default_rng(seed)
    genes, cells = rng.permutation(len(ref.genes)), rng.permutation(len(ref.cells))
    permuted = ReferenceDataset(genes=[ref.genes[i] for i in genes],
                                cells=[ref.cells[j] for j in cells],
                                cell_type_labels=[ref.cell_type_labels[j] for j in cells],
                                values=ref.values[np.ix_(genes, cells)])
    records = []
    for r, name in ((ref, "a.json"), (permuted, "b.json")):
        save_selection(select_pairs(r, set(), fdr_threshold=0.2, lfc_threshold=0.2),
                       tmp_path / name)
        records.append(json.loads((tmp_path / name).read_text()))
    a, b = records
    assert a, "the scenario must select some pairs"
    assert [(r["gene"], r["cell_type"], r["provenance"]) for r in a] == \
        [(r["gene"], r["cell_type"], r["provenance"]) for r in b]
    np.testing.assert_allclose([r["score"] for r in b], [r["score"] for r in a],
                               rtol=1e-12, atol=0)
