"""Domain-type validation and lossless file round-trips."""
from __future__ import annotations

from contextlib import suppress

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diagnokit.classifier import Dataset
from diagnokit.errors import ParseError, ValidationError
from diagnokit.io import (load_bulk_matrix, load_cts_tensor, load_sample_meta,
                          save_bulk_matrix, save_cts_tensor, save_sample_meta)
from diagnokit.reference import ReferenceDataset
from diagnokit.types import (BulkMatrix, CtsTensor, GenePriors, PairSelection,
                             RefinementConfig, SampleMetas, _factor, pair_key)

finite_floats = st.floats(allow_nan=False, allow_infinity=False,
                          min_value=-1e12, max_value=1e12)


def _bulk(G=2, N=3, values=None):
    if values is None:
        values = np.arange(G * N, dtype=float).reshape(G, N)
    return BulkMatrix(genes=[f"g{i}" for i in range(G)],
                      samples=[f"s{i}" for i in range(N)], values=values)


class TestBulkMatrix:
    def test_valid_is_frozen(self):
        b = _bulk()
        assert not b.values.flags.writeable
        assert (b.n_genes, b.n_samples) == (2, 3)

    def test_duplicate_gene_rejected(self):
        with pytest.raises(ValidationError, match="duplicate gene"):
            BulkMatrix(genes=["g", "g"], samples=["s"], values=np.zeros((2, 1)))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="shape"):
            _bulk(values=np.zeros((3, 2)))

    def test_nan_rejected(self):
        v = np.zeros((2, 3))
        v[0, 0] = np.nan
        with pytest.raises(ValidationError, match="non-finite"):
            _bulk(values=v)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            BulkMatrix(genes=[], samples=["s"], values=np.zeros((0, 1)))


def _metas(w, cell_types=None, bulk_cov=None, cts_cov=None):
    """A record of len(w) samples s0, s1, ..., no covariates unless given."""
    w = np.asarray(w, dtype=float)
    N, C = w.shape
    return SampleMetas(sample_ids=[f"s{i}" for i in range(N)],
                       cell_types=cell_types or [f"ct{j + 1}" for j in range(C)],
                       proportions=w,
                       bulk_cov=np.zeros((N, 0)) if bulk_cov is None else bulk_cov,
                       cts_cov=np.zeros((N, 0)) if cts_cov is None else cts_cov)


class TestSampleMeta:
    def test_renormalizes_within_tolerance(self):
        m = _metas([[0.25, 0.75], [0.5, 0.5 + 5e-9]])
        assert m.proportions.sum(axis=1) == pytest.approx(1.0, abs=1e-15)

    def test_rejects_off_simplex(self):
        with pytest.raises(ValidationError,
                           match=r"sum to 1\.1, outside simplex tolerance \(sample 's1'\)"):
            _metas([[0.5, 0.5], [0.6, 0.5]])

    def test_rejects_negative(self):
        with pytest.raises(ValidationError, match=r"negative proportion \(sample 's1'\)"):
            _metas([[0.5, 0.5], [1.2, -0.2]])

    def test_rejects_non_finite_covariate_naming_the_sample(self):
        cov = np.zeros((2, 1))
        cov[1, 0] = np.inf
        with pytest.raises(ValidationError, match="non-finite value for sample meta ID 's1'"):
            _metas([[1.0], [1.0]], cts_cov=cov)

    def test_take_reorders_without_a_second_division(self):
        rng = np.random.default_rng(0)
        m = _metas(rng.dirichlet(np.ones(11), 50), bulk_cov=rng.standard_normal((50, 2)),
                   cts_cov=rng.standard_normal((50, 1)))
        samples, cell_types = m.sample_ids[::-1], sorted(m.cell_types)  # ct1, ct10, ct11, ct2
        cols = [m.cell_types.index(c) for c in cell_types]
        taken = m.take(samples, cell_types)
        assert (taken.sample_ids, taken.cell_types) == (samples, cell_types)
        assert taken.proportions.tobytes() == m.proportions[::-1][:, cols].tobytes()
        assert taken.bulk_cov.tobytes() == m.bulk_cov[::-1].tobytes()
        assert taken.cts_cov.tobytes() == m.cts_cov[::-1].tobytes()
        assert not taken.proportions.flags.writeable
        # dividing by the row sums again would move some last bits
        renormalized = taken.proportions / taken.proportions.sum(axis=1, keepdims=True)
        assert renormalized.tobytes() != taken.proportions.tobytes()

    @pytest.mark.parametrize("samples,cell_types,message", [
        (["s1"], ["ct1", "ct2"], "missing from bulk samples: 's0'"),
        (["s1", "s0", "s2"], ["ct1", "ct2"], "missing from sample metas: 's2'"),
        (["s0", "s1"], ["ct2"], "missing from reference cell types: 'ct1'"),
        (["s0", "s1"], ["ct2", "ct1", "ct3"], "missing from sample meta cell types: 'ct3'"),
    ])
    def test_take_joins_one_to_one(self, samples, cell_types, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            _metas([[0.5, 0.5], [0.25, 0.75]]).take(samples, cell_types)


def _priors(sigma_b=np.eye(2), noise_b=1.0):
    """Priors of two genes: a valid one, then one with the given parts."""
    return GenePriors(genes=["a", "b"], mu=np.zeros((2, 2)),
                      sigma=np.stack([np.eye(2), sigma_b]),
                      noise_var=np.array([1.0, noise_b]))


class TestGenePrior:
    def test_rejects_non_spd(self):
        with pytest.raises(ValidationError, match="positive definite for gene 'b'"):
            _priors(sigma_b=np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValidationError, match="symmetric for gene 'b'"):
            _priors(sigma_b=np.array([[1.0, 0.5], [0.2, 1.0]]))

    def test_rejects_nonpositive_noise(self):
        with pytest.raises(ValidationError, match="noise_var must be positive for gene 'b'"):
            _priors(noise_b=0.0)

    def test_take_reorders_and_rejects_missing_gene(self):
        priors = GenePriors(genes=["a", "b", "c"], mu=np.arange(6.0).reshape(3, 2),
                            sigma=np.stack([np.eye(2) * (g + 1) for g in range(3)]),
                            noise_var=np.array([1.0, 2.0, 3.0]))
        picked = priors.take(["c", "a"])
        assert picked.genes == ["c", "a"]
        np.testing.assert_array_equal(picked.mu, priors.mu[[2, 0]])
        np.testing.assert_array_equal(picked.sigma, priors.sigma[[2, 0]])
        np.testing.assert_array_equal(picked.noise_var, [3.0, 1.0])
        with pytest.raises(ValidationError, match="missing from gene priors: 'd'$"):
            priors.take(["a", "d"])
        with pytest.raises(ValidationError, match="duplicate gene ID 'a'"):
            priors.take(["a", "c", "a"])

    def test_take_keeps_the_factor_of_each_taken_sigma(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((4, 3, 3))
        priors = GenePriors(genes=["a", "b", "c", "d"], mu=np.zeros((4, 3)),
                            sigma=a @ np.swapaxes(a, 1, 2) + 0.1 * np.eye(3),
                            noise_var=np.ones(4))
        picked = priors.take(["d", "b", "c"])
        assert picked.chol.tobytes() == np.linalg.cholesky(picked.sigma).tobytes()
        assert not picked.chol.flags.writeable


# each record's array under test: (record, its first-axis ID field, what the
# IDs are, the array's field, valid fields for the three IDs x0, x1, x2)
_ARRAYS = {
    "bulk": (BulkMatrix, "genes", "gene ID", "values",
             dict(samples=["s0", "s1"], values=np.ones((3, 2)))),
    "tensor_mean": (CtsTensor, "genes", "gene ID", "mean",
                    dict(cell_types=["c"], samples=["s0", "s1"], mean=np.ones((3, 1, 2)),
                         variance=np.ones((3, 1, 2)))),
    "tensor_variance": (CtsTensor, "genes", "gene ID", "variance",
                        dict(cell_types=["c"], samples=["s0", "s1"], mean=np.ones((3, 1, 2)),
                             variance=np.ones((3, 1, 2)))),
    "reference": (ReferenceDataset, "genes", "gene ID", "values",
                  dict(cells=["c0", "c1", "c2", "c3"], cell_type_labels=["a", "a", "b", "b"],
                       values=np.ones((3, 4)))),
    "dataset": (Dataset, "sample_ids", "sample ID", "values",
                dict(names=("f", "h"), tags=("cts", "covariate"), values=np.ones((3, 2)))),
    **{f"priors_{name}": (GenePriors, "genes", "gene ID", name,
                          dict(mu=np.zeros((3, 2)), sigma=np.stack([np.eye(2)] * 3),
                               noise_var=np.ones(3)))
       for name in ("mu", "sigma", "noise_var")},
    **{f"metas_{name}": (SampleMetas, "sample_ids", "sample meta ID", name,
                         dict(cell_types=["c1", "c2"], proportions=np.full((3, 2), 0.5),
                              bulk_cov=np.zeros((3, 1)), cts_cov=np.ones((3, 2))))
       for name in ("proportions", "bulk_cov", "cts_cov")},
}


@pytest.mark.parametrize("case", list(_ARRAYS))
def test_every_record_checks_its_arrays_in_one_wording(case):
    """A non-finite value names its row's ID, a repeated ID is refused, and
    so is a shape that does not match the IDs: the same three checks and
    wordings for every array of every record."""
    cls, id_field, what, array, fields = _ARRAYS[case]
    ids, good = ["x0", "x1", "x2"], fields[array]

    def build(ids, values):
        return cls(**{**fields, id_field: ids, array: values})

    build(ids, good)
    bad = good.copy()
    bad.reshape(3, -1)[1, -1] = np.nan  # the last value of row 2
    with pytest.raises(ValidationError, match=f"^non-finite value for {what} 'x1'$"):
        build(ids, bad)
    with pytest.raises(ValidationError, match=f"^duplicate {what} 'x0'$"):
        build(["x0", "x1", "x0"], good)
    with pytest.raises(ValidationError,
                       match=rf"^values of shape \(4[,)].* do not match 3 {what}s"):
        build(ids, np.concatenate([good, good[:1]]))


def test_take_only_reorders(monkeypatch):
    """Each ``take`` gives the reordered arrays of a checked record without
    building, so without checking, a record again."""
    rng = np.random.default_rng(1)
    a = rng.standard_normal((3, 2, 2))
    priors = GenePriors(genes=["a", "b", "c"], mu=rng.standard_normal((3, 2)),
                        sigma=a @ np.swapaxes(a, 1, 2) + np.eye(2), noise_var=np.ones(3))
    metas = _metas(rng.dirichlet(np.ones(3), 4), bulk_cov=rng.standard_normal((4, 2)),
                   cts_cov=rng.standard_normal((4, 1)))
    data = Dataset(values=rng.standard_normal((2, 3)), names=("f", "g", "h"),
                   tags=("cts", "eqtl_beta", "covariate"), sample_ids=("p", "q"))

    def refuse(self):
        raise AssertionError(f"{type(self).__name__} checked again")

    for cls in (GenePriors, SampleMetas, Dataset):
        monkeypatch.setattr(cls, "__post_init__", refuse)
    picked = priors.take(["c", "a"])
    for name in ("mu", "sigma", "noise_var", "chol"):
        assert getattr(picked, name).tobytes() == getattr(priors, name)[[2, 0]].tobytes()
    rows = [3, 1, 0, 2]
    taken = metas.take([f"s{i}" for i in rows], ["ct3", "ct1", "ct2"])
    assert taken.proportions.tobytes() == metas.proportions[np.ix_(rows, [2, 0, 1])].tobytes()
    assert taken.bulk_cov.tobytes() == metas.bulk_cov[rows].tobytes()
    assert taken.cts_cov.tobytes() == metas.cts_cov[rows].tobytes()
    columns = data.take(["h", "f"])
    assert (columns.names, columns.tags, columns.sample_ids) == (("h", "f"),
                                                                ("covariate", "cts"), ("p", "q"))
    assert columns.values.tobytes() == data.values[:, [2, 0]].tobytes()
    assert not columns.values.flags.writeable
    with pytest.raises(ValidationError, match="^duplicate feature name 'f'$"):
        data.take(["f", "h", "f"])


@pytest.mark.parametrize("failing", [[700], [0, 1, 2, 511, 512, 1023], list(range(0, 1024, 7))],
                         ids=["one", "six", "every_seventh"])
def test_factor_halves_a_failing_stack(monkeypatch, failing):
    """A stack the batched call cannot factor is factored by halves: one
    failure among 1,024 matrices costs at most 1 + 2 log2(1024) = 21 calls,
    and the factors and mask are those of factoring each matrix alone."""
    rng = np.random.default_rng(4)
    a = rng.standard_normal((1024, 3, 3))
    stack = a @ np.swapaxes(a, 1, 2) + 0.1 * np.eye(3)
    stack[failing] = -np.eye(3)
    want = np.full(stack.shape, np.nan)
    for i, s in enumerate(stack):
        with suppress(np.linalg.LinAlgError):
            want[i] = np.linalg.cholesky(s)
    calls, cholesky = [], np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda s: calls.append(len(s)) or cholesky(s))
    chol, ok = _factor(stack)
    assert chol.tobytes() == want.tobytes()
    assert np.flatnonzero(~ok).tolist() == failing
    assert len(calls) <= (21 if len(failing) == 1 else 2 * len(failing) * 10 + 1)


class TestRefinementConfig:
    def test_burnin_defaults_to_half(self):
        assert RefinementConfig(iters=100).burnin == 50

    def test_invalid_burnin(self):
        with pytest.raises(ValidationError):
            RefinementConfig(iters=10, burnin=10)

    def test_resolved_nu_default_and_floor(self):
        cfg = RefinementConfig()
        assert cfg.resolved_nu(3) == 5.0
        with pytest.raises(ValidationError):
            RefinementConfig(nu=3.0).resolved_nu(3)


class TestPairSelection:
    def test_requires_provenance(self):
        with pytest.raises(ValidationError, match="provenance"):
            PairSelection(pairs=frozenset({("g", "ct")}))

    def test_genes_sorted(self):
        pairs = {("b", "x"), ("a", "y")}
        sel = PairSelection(pairs=frozenset(pairs),
                            provenance={pair_key(g, c): "marker" for g, c in pairs})
        assert sel.genes() == ["a", "b"]


@settings(max_examples=30, deadline=None)
@given(g=st.integers(1, 4), n=st.integers(1, 4), data=st.data())
def test_bulk_matrix_roundtrip_bit_exact(tmp_path_factory, g, n, data):
    values = np.array(data.draw(
        st.lists(st.lists(finite_floats, min_size=n, max_size=n),
                 min_size=g, max_size=g)))
    b = _bulk(G=g, N=n, values=values)
    path = tmp_path_factory.mktemp("io") / "bulk.tsv"
    save_bulk_matrix(b, path)
    loaded = load_bulk_matrix(path)
    assert loaded.genes == b.genes and loaded.samples == b.samples
    assert np.array_equal(loaded.values, b.values)


@settings(max_examples=20, deadline=None)
@given(g=st.integers(1, 3), c=st.integers(1, 3), n=st.integers(1, 3), data=st.data())
def test_cts_tensor_roundtrip_bit_exact(tmp_path_factory, g, c, n, data):
    mean = np.array(data.draw(st.lists(
        st.lists(st.lists(finite_floats, min_size=n, max_size=n),
                 min_size=c, max_size=c), min_size=g, max_size=g)))
    var = np.abs(mean)
    t = CtsTensor(genes=[f"g{i}" for i in range(g)],
                  cell_types=[f"c{i}" for i in range(c)],
                  samples=[f"s{i}" for i in range(n)], mean=mean, variance=var)
    path = tmp_path_factory.mktemp("io") / "tensor.tsv"
    save_cts_tensor(t, path)
    loaded = load_cts_tensor(path)
    assert (loaded.genes, loaded.cell_types, loaded.samples) == (
        t.genes, t.cell_types, t.samples)
    assert np.array_equal(loaded.mean, t.mean)
    assert np.array_equal(loaded.variance, t.variance)


def test_sample_meta_roundtrip(tmp_path):
    # the file keeps the record's cell-type order
    metas = _metas(np.tile([0.25, 0.75], (3, 1)), cell_types=["ct2", "ct1"],
                   bulk_cov=np.tile([1.5, -2.25], (3, 1)), cts_cov=np.full((3, 1), 0.125))
    path = tmp_path / "meta.json"
    save_sample_meta(metas, path)
    loaded = load_sample_meta(path)
    assert (loaded.sample_ids, loaded.cell_types) == (metas.sample_ids, metas.cell_types)
    for name in ("proportions", "bulk_cov", "cts_cov"):
        assert np.array_equal(getattr(loaded, name), getattr(metas, name)), name


def test_sample_meta_missing_type_rejected(tmp_path):
    path = tmp_path / "meta.json"
    save_sample_meta(_metas([[1.0]]), path)
    with pytest.raises(ValidationError, match="missing from sample meta cell types: 'ct2'"):
        load_sample_meta(path).take(["s0"], ["ct1", "ct2"])


class TestParseErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError, match="not found"):
            load_bulk_matrix(tmp_path / "nope.tsv")

    def test_bad_header_line_number(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("wrong\ts1\n")
        with pytest.raises(ParseError) as err:
            load_bulk_matrix(path)
        assert err.value.line == 1

    def test_ragged_row_line_number(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("gene\ts1\ts2\ng0\t1.0\n")
        with pytest.raises(ParseError) as err:
            load_bulk_matrix(path)
        assert err.value.line == 2

    def test_duplicate_tensor_row_line_number(self, tmp_path):
        t = CtsTensor(genes=["g"], cell_types=["c"], samples=["s0", "s1"],
                      mean=np.ones((1, 1, 2)), variance=np.ones((1, 1, 2)))
        save_cts_tensor(t, tmp_path / "t.tsv")
        path = tmp_path / "t_mean.tsv"
        path.write_text(path.read_text() + "g\tc\ts0\t2.0\n")
        with pytest.raises(ParseError, match="duplicate") as err:
            load_cts_tensor(tmp_path / "t.tsv")
        assert err.value.line == 4

    def test_non_numeric_value(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("gene\ts1\ng0\tabc\n")
        with pytest.raises(ParseError):
            load_bulk_matrix(path)

    def test_tensor_axis_disagreement(self, tmp_path):
        t = CtsTensor(genes=["g"], cell_types=["c"], samples=["s"],
                      mean=np.ones((1, 1, 1)), variance=np.ones((1, 1, 1)))
        save_cts_tensor(t, tmp_path / "t.tsv")
        (tmp_path / "t_variance.tsv").write_text(
            "gene\tcell_type\tsample\tvalue\ng2\tc\ts\t1.0\n")
        with pytest.raises(ParseError, match="disagree"):
            load_cts_tensor(tmp_path / "t.tsv")


def _records_of(arrays):
    """One record of each type, built from the given arrays."""
    from diagnokit.classifier import HIDDEN1, HIDDEN2, Dataset, MlpModel
    d = 2
    return {
        "BulkMatrix": lambda: BulkMatrix(genes=["g"], samples=["s"], values=arrays["bulk"]),
        "CtsTensor": lambda: CtsTensor(genes=["g"], cell_types=["c"], samples=["s"],
                                       mean=arrays["mean"], variance=arrays["variance"]),
        "GenePriors": lambda: GenePriors(genes=["g"], mu=arrays["mu"], sigma=arrays["sigma"],
                                         noise_var=arrays["noise_var"]),
        "SampleMetas": lambda: SampleMetas(sample_ids=["s"], cell_types=["c"],
                                           proportions=arrays["w"], bulk_cov=arrays["c1"],
                                           cts_cov=arrays["c2"]),
        "Dataset": lambda: Dataset(values=arrays["values"], names=("a", "b"),
                                   tags=("cts", "cts"), sample_ids=("s",)),
        "MlpModel": lambda: MlpModel(
            w1=arrays["w1"], b1=np.zeros(HIDDEN1), w2=np.zeros((HIDDEN2, HIDDEN1)),
            b2=np.zeros(HIDDEN2), w3=np.zeros((1, HIDDEN2)), b3=np.zeros(1),
            mean=np.zeros(d), sd=np.ones(d), kept=arrays["kept"],
            feature_names=("a", "b"), feature_tags=("cts", "cts")),
    }


@pytest.mark.parametrize("record", ["BulkMatrix", "CtsTensor", "GenePriors", "SampleMetas",
                                    "Dataset", "MlpModel"])
def test_record_copies_the_callers_arrays(record):
    """A record keeps read-only copies: the caller's contiguous float64 arrays
    stay writable, and writing to them later does not reach the record."""
    from diagnokit.classifier import HIDDEN1
    arrays = {"bulk": np.zeros((1, 1)), "mean": np.zeros((1, 1, 1)),
              "variance": np.ones((1, 1, 1)), "mu": np.zeros((1, 1)),
              "sigma": np.ones((1, 1, 1)), "noise_var": np.ones(1),
              "w": np.ones((1, 1)), "c1": np.zeros((1, 1)), "c2": np.zeros((1, 1)),
              "values": np.zeros((1, 2)), "w1": np.zeros((HIDDEN1, 2)),
              "kept": np.ones(2, dtype=bool)}
    built = _records_of(arrays)[record]()
    for key, a in arrays.items():
        assert a.flags.writeable, key
        a[(0,) * a.ndim] = 7 if a.dtype != bool else False
    for name in ("values", "mean", "variance", "mu", "sigma", "noise_var", "proportions",
                 "bulk_cov", "cts_cov", "w1", "kept"):
        held = getattr(built, name, None)
        if held is not None:
            assert not held.flags.writeable
            assert held[(0,) * held.ndim] != (7 if held.dtype != bool else False), name
