"""The bulk TSV codec (``io.read_rows``/``parse_rows``/``write_rows``) against
the line-by-line readers and writers it replaced.

On generated files, old and new must give the same axes and the same bits,
or raise ``ParseError`` on the same line; the writers must give the same
bytes.
"""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diagnokit import io
from diagnokit.classifier import FEATURE_TAGS, Dataset, load_dataset, save_dataset
from diagnokit.errors import ParseError, ValidationError
from diagnokit.io import (_load_long, _read_grid, load_cts_tensor, load_matrix_tsv,
                          parse_rows, save_bulk_matrix, save_cts_tensor, save_matrix_tsv,
                          write_rows)
from diagnokit.types import BulkMatrix, CtsTensor

from oracles import save_eqtl_table

# ---------------------------------------------------------------- references

def _fmt(x: float) -> str:
    return repr(float(x))


def save_long_loop(genes, cell_types, samples, values):
    """Reference: the long-format text, one formatted line per value."""
    lines = ["gene\tcell_type\tsample\tvalue"]
    for gi, g in enumerate(genes):
        for ci, c in enumerate(cell_types):
            for si, s in enumerate(samples):
                lines.append(f"{g}\t{c}\t{s}\t{_fmt(values[gi, ci, si])}")
    return "\n".join(lines) + "\n"


def load_long_loop(path):
    """Reference: split each line, store every entry in a dict keyed by
    (gene, cell type, sample), then fill the array entry by entry."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != "gene\tcell_type\tsample\tvalue":
        raise ParseError("bad long-format tensor header", line=1)
    genes, cell_types, samples = {}, {}, {}
    entries = {}
    blank = 0
    non_finite = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            blank += 1
            continue
        parts = line.split("\t")
        if len(parts) != 4:
            raise ParseError(f"expected 4 fields, got {len(parts)}", line=lineno)
        g, c, s, v = parts
        genes[g] = None
        cell_types[c] = None
        samples[s] = None
        try:
            entries[(g, c, s)] = float(v)
        except ValueError as exc:
            raise ParseError(str(exc), line=lineno) from exc
        if not math.isfinite(float(v)):
            non_finite.append(lineno)
    if non_finite:  # only once every line parses
        raise ParseError("non-finite value", line=non_finite[0])
    if len(entries) < len(lines) - 1 - blank:
        first_line = {}
        for lineno, line in enumerate(lines[1:], start=2):
            key = tuple(line.split("\t")[:3])
            if line and first_line.setdefault(key, lineno) != lineno:
                raise ParseError(f"duplicate tensor entry {key} (first on line "
                                 f"{first_line[key]})", line=lineno)
    genes, cell_types, samples = list(genes), list(cell_types), list(samples)
    values = np.empty((len(genes), len(cell_types), len(samples)))
    try:
        for gi, g in enumerate(genes):
            for ci, c in enumerate(cell_types):
                for si, s in enumerate(samples):
                    values[gi, ci, si] = entries[(g, c, s)]
    except KeyError as exc:
        raise ParseError(f"missing tensor entry {exc.args[0]}") from exc
    return genes, cell_types, samples, values


def save_matrix_loop(genes, samples, values):
    """Reference: the matrix text, one formatted line per gene."""
    lines = ["\t".join(["gene", *samples])]
    for g, row in zip(genes, np.asarray(values)):
        lines.append("\t".join([g, *map(_fmt, row)]))
    return "\n".join(lines) + "\n"


def load_matrix_loop(path):
    """Reference: split each line and parse each value with float(), then
    look for a repeated sample, then a repeated gene."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ParseError("empty matrix file", line=1)
    header = lines[0].split("\t")
    if header[0] != "gene":
        raise ParseError(f"expected header starting with 'gene', got {header[0]!r}", line=1)
    samples = header[1:]
    if len(set(samples)) < len(samples):
        sample = next(s for i, s in enumerate(samples) if s in samples[:i])
        raise ParseError(f"duplicate column {sample!r} (first on line 1)", line=1)
    genes, rows, first_line, non_finite = [], [], {}, []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != len(samples) + 1:
            raise ParseError(
                f"expected {len(samples) + 1} fields, got {len(parts)}", line=lineno)
        genes.append(parts[0])
        first_line.setdefault(parts[0], lineno)
        try:
            rows.append([float(p) for p in parts[1:]])
        except ValueError as exc:
            raise ParseError(str(exc), line=lineno) from exc
        if not all(map(math.isfinite, rows[-1])):
            non_finite.append(lineno)
    if non_finite:  # only once every line parses
        raise ParseError("non-finite value", line=non_finite[0])
    for lineno, line in enumerate(lines[1:], start=2):
        gene = line.split("\t")[0]
        if line and first_line[gene] != lineno:
            raise ParseError(f"duplicate gene ID {gene!r} (first on line "
                             f"{first_line[gene]})", line=lineno)
    return genes, samples, np.array(rows, dtype=np.float64).reshape(len(genes), len(samples))


def save_dataset_loop(dataset, labels):
    """Reference: the dataset text, one formatted line per sample."""
    lines = ["\t".join(["sample", *dataset.names, "label"]),
             "\t".join(["#tags", *dataset.tags, "-"])]
    for sample_id, row, lab in zip(dataset.sample_ids, dataset.values, labels):
        lines.append("\t".join([sample_id, *map(_fmt, row), str(int(lab))]))
    return "\n".join(lines) + "\n"


def load_dataset_loop(path):
    """Reference: a per-row check of field counts and sample IDs, then one
    np.loadtxt over the value block."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    linenos = [i for i, line in enumerate(lines[2:], start=3) if line]
    if not linenos:
        raise ParseError("dataset needs a header, a tag row, and data", line=1)
    header = lines[0].split("\t")
    if header[0] != "sample" or header[-1] != "label":
        raise ParseError("dataset header must be sample ... label", line=1)
    names = tuple(header[1:-1])
    tag_row = lines[1].split("\t")
    if tag_row[0] != "#tags":
        raise ParseError("second dataset row must carry #tags", line=2)
    if len(tag_row) != len(header):
        raise ParseError(f"expected {len(header)} fields, got {len(tag_row)}", line=2)
    tags = tuple(tag_row[1:-1])
    unknown = sorted(set(tags) - set(FEATURE_TAGS))
    if unknown:
        raise ParseError(f"unknown feature tags: {unknown}", line=2)
    rows = [lines[i - 1] for i in linenos]
    first_line = {}
    for lineno, row in zip(linenos, rows):
        if row.count("\t") != len(header) - 1:
            raise ParseError(f"expected {len(header)} fields", line=lineno)
        sample_id = row[:row.index("\t")]
        if first_line.setdefault(sample_id, lineno) != lineno:
            raise ParseError(f"duplicate sample ID {sample_id!r} (first on line "
                             f"{first_line[sample_id]})", line=lineno)
    try:
        block = np.loadtxt(rows, delimiter="\t", comments=None,
                           usecols=range(1, len(header)), ndmin=2)
    except ValueError as exc:
        for lineno, row in zip(linenos, rows):
            try:
                [float(v) for v in row.split("\t")[1:]]
            except ValueError as bad:
                raise ParseError(str(bad), line=lineno) from exc
        raise ParseError(str(exc)) from exc
    values, labels = block[:, :-1], block[:, -1]
    for bad, what in ((~np.isfinite(block).all(axis=1), "non-finite value"),
                      (~np.isin(labels, (0.0, 1.0)), "label must be 0 or 1")):
        if bad.any():
            raise ParseError(what, line=linenos[int(np.argmax(bad))])
    return (Dataset(values=values, names=names, tags=tags, sample_ids=tuple(first_line)),
            labels.astype(int))


# ---------------------------------------------------------------- strategies

# every float64 but NaN: infinities, signed zeros and subnormals included
any_float = st.floats(allow_nan=False)
finite_float = st.floats(allow_nan=False, allow_infinity=False)
# no tab and no character that str.splitlines treats as a line end; the
# non-ASCII letter sends a tensor file to the keyed reader
name = st.text(alphabet="abxyzAB019_-.:| é", min_size=1, max_size=4)
# a small pool, so that values repeat down a column and the writer formats
# each distinct bit pattern once: signed zeros side by side, subnormals,
# infinities, and NaNs that differ in sign and payload
FINITE_POOL = [0.0, -0.0, 5e-324, -2.5e-310, 1.0, 0.1, -7.25, 1e300]
NAN_POOL = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000001,
                     0x7FFFFFFFFFFFFFFF, 0xFFF0000000000001], dtype=np.uint64
                    ).view(np.float64).tolist()
pooled_finite = st.one_of(st.sampled_from(FINITE_POOL), finite_float)
pooled_any = st.one_of(st.sampled_from(FINITE_POOL + [np.inf, -np.inf] + NAN_POOL), any_float)
bad_float = st.sampled_from(["abc", "", "1.0.0", "0x10", "1,5", "--1", "e5", "1e", "nan nan"])


def names(n):
    return st.lists(name, min_size=n, max_size=n, unique=True)


@st.composite
def layouts(draw, n_rows):
    """Row order, blank-line positions, line end and trailing line end."""
    order = draw(st.permutations(range(n_rows)))
    blanks = draw(st.lists(st.integers(0, n_rows), max_size=3))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return order, blanks, end, draw(st.booleans())


def render(header_lines, rows, layout):
    """File text: the rows in ``order`` with blank lines inserted."""
    order, blanks, end, trailing = layout
    body = [rows[i] for i in order]
    for pos in sorted(blanks, reverse=True):
        body.insert(pos, "")
    return end.join([*header_lines, *body]) + (end if trailing else "")


@st.composite
def tensor_files(draw):
    g, c, s = (draw(st.integers(1, 3)) for _ in range(3))
    axes = draw(names(g)), draw(names(c)), draw(names(s))
    values = np.array(draw(st.lists(any_float, min_size=g * c * s, max_size=g * c * s)))
    rows = [f"{a}\t{b}\t{d}\t{_fmt(v)}"
            for (a, b, d), v in zip(((a, b, d) for a in axes[0] for b in axes[1]
                                     for d in axes[2]), values)]
    return rows, draw(layouts(len(rows)))


@st.composite
def matrix_files(draw):
    g, n = draw(st.integers(1, 4)), draw(st.integers(0, 4))
    genes, samples = draw(names(g)), draw(names(n))
    rows = ["\t".join([gene] + [_fmt(draw(any_float)) for _ in range(n)]) for gene in genes]
    return ["gene\t" + "\t".join(samples)], rows, draw(layouts(g))


@st.composite
def dataset_files(draw):
    n, d = draw(st.integers(1, 5)), draw(st.integers(0, 4))
    ids, feats = draw(names(n)), draw(names(d))
    tags = [draw(st.sampled_from(FEATURE_TAGS)) for _ in range(d)]
    rows = ["\t".join([i] + [_fmt(draw(finite_float)) for _ in range(d)]
                      + [str(draw(st.integers(0, 1)))]) for i in ids]
    header = ["sample\t" + "\t".join(feats) + "\tlabel", "#tags\t" + "\t".join(tags) + "\t-"]
    return header, rows, draw(layouts(n))


def _outcome(load, path):
    try:
        return load(path)
    except ParseError as exc:
        return exc


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _assert_tensor_agrees(path, compare_message=True):
    old, new = _outcome(load_long_loop, path), _outcome(_load_long, path)
    if isinstance(old, ParseError) or isinstance(new, ParseError):
        assert isinstance(old, ParseError) and isinstance(new, ParseError), (old, new)
        assert (new.line, str(new)) == (old.line, str(old))
        return
    assert new[:3] == old[:3]
    assert _same_bits(new[3], old[3])


def _assert_matrix_agrees(path):
    old, new = _outcome(load_matrix_loop, path), _outcome(load_matrix_tsv, path)
    if isinstance(old, ParseError) or isinstance(new, ParseError):
        assert isinstance(old, ParseError) and isinstance(new, ParseError), (old, new)
        assert (new.line, str(new)) == (old.line, str(old))
        return
    assert new[:2] == old[:2]
    assert _same_bits(new[2], old[2])


def _assert_dataset_agrees(path):
    old, new = _outcome(load_dataset_loop, path), _outcome(load_dataset, path)
    if isinstance(old, ParseError) or isinstance(new, ParseError):
        assert isinstance(old, ParseError) and isinstance(new, ParseError), (old, new)
        # the new field-count message also says how many fields the row has
        assert new.line == old.line
        assert str(new).startswith(str(old))
        return
    (od, ol), (nd, nl) = old, new
    assert (nd.names, nd.tags, nd.sample_ids) == (od.names, od.tags, od.sample_ids)
    assert _same_bits(nd.values, od.values) and np.array_equal(nl, ol)


def _write(tmp_path_factory, text, name="f.tsv"):
    path = tmp_path_factory.mktemp("io") / name
    path.write_bytes(text.encode("utf-8"))
    return path


# ---------------------------------------------------------------- well-formed

@settings(max_examples=60, deadline=None)
@given(tensor_files())
def test_long_tensor_matches_loop_reader(tmp_path_factory, spec):
    rows, layout = spec
    path = _write(tmp_path_factory, render(["gene\tcell_type\tsample\tvalue"], rows, layout))
    _assert_tensor_agrees(path)


@settings(max_examples=60, deadline=None)
@given(matrix_files())
def test_matrix_matches_loop_reader(tmp_path_factory, spec):
    header, rows, layout = spec
    _assert_matrix_agrees(_write(tmp_path_factory, render(header, rows, layout)))


@settings(max_examples=60, deadline=None)
@given(dataset_files())
def test_dataset_matches_loop_reader(tmp_path_factory, spec):
    header, rows, layout = spec
    _assert_dataset_agrees(_write(tmp_path_factory, render(header, rows, layout)))


@settings(max_examples=30, deadline=None)
@given(g=st.integers(1, 3), c=st.integers(1, 3), s=st.integers(1, 3), data=st.data())
def test_tensor_writer_matches_loop_writer(tmp_path_factory, g, c, s, data):
    genes, cell_types, samples = data.draw(names(g)), data.draw(names(c)), data.draw(names(s))
    mean = np.array(data.draw(st.lists(pooled_finite, min_size=g * c * s,
                                       max_size=g * c * s))).reshape(g, c, s)
    t = CtsTensor(genes=genes, cell_types=cell_types, samples=samples,
                  mean=mean, variance=np.abs(mean))
    root = tmp_path_factory.mktemp("io")
    save_cts_tensor(t, root / "t.tsv")
    assert (root / "t_mean.tsv").read_text() == save_long_loop(genes, cell_types, samples, mean)
    assert (root / "t_variance.tsv").read_text() == save_long_loop(
        genes, cell_types, samples, np.abs(mean))


@settings(max_examples=30, deadline=None)
@given(g=st.integers(1, 4), n=st.integers(0, 4), transposed=st.booleans(), data=st.data())
def test_matrix_writer_matches_loop_writer(tmp_path_factory, g, n, transposed, data):
    """Also for NaNs of any payload and for a transposed view of the values."""
    genes, samples = data.draw(names(g)), data.draw(names(n))
    values = np.array(data.draw(st.lists(pooled_any, min_size=g * n, max_size=g * n)))
    values = values.reshape(n, g).T if transposed else values.reshape(g, n)
    path = tmp_path_factory.mktemp("io") / "m.tsv"
    save_matrix_tsv(genes, samples, values, path)
    assert path.read_text() == save_matrix_loop(genes, samples, values)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 4), d=st.integers(0, 3), data=st.data())
def test_dataset_writer_matches_loop_writer(tmp_path_factory, n, d, data):
    values = np.array(data.draw(st.lists(pooled_finite, min_size=n * d, max_size=n * d)))
    ds = Dataset(values=values.reshape(n, d), names=tuple(data.draw(names(d))),
                 tags=("cts",) * d, sample_ids=tuple(data.draw(names(n))))
    labels = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    path = tmp_path_factory.mktemp("io") / "d.tsv"
    save_dataset(ds, labels, path)
    assert path.read_text() == save_dataset_loop(ds, labels)


@settings(max_examples=30, deadline=None)
@given(g=st.integers(0, 3), n=st.integers(0, 4), data=st.data())
def test_matrix_round_trips_with_any_number_of_samples(tmp_path_factory, g, n, data):
    genes, samples = data.draw(names(g)), data.draw(names(n))
    values = np.array(data.draw(st.lists(finite_float, min_size=g * n, max_size=g * n)))
    values = values.reshape(g, n)
    path = tmp_path_factory.mktemp("io") / "m.tsv"
    save_matrix_tsv(genes, samples, values, path)
    got_genes, got_samples, got = load_matrix_tsv(path)
    assert (got_genes, got_samples) == (genes, samples)
    assert got.shape == (g, n) and np.array_equal(got, values)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 4), d=st.integers(0, 3), data=st.data())
def test_dataset_round_trips_with_any_number_of_features(tmp_path_factory, n, d, data):
    values = np.array(data.draw(st.lists(finite_float, min_size=n * d, max_size=n * d)))
    ds = Dataset(values=values.reshape(n, d), names=tuple(data.draw(names(d))),
                 tags=("cts",) * d, sample_ids=tuple(data.draw(names(n))))
    labels = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    path = tmp_path_factory.mktemp("io") / "d.tsv"
    save_dataset(ds, labels, path)
    got, got_labels = load_dataset(path)
    assert (got.names, got.tags, got.sample_ids) == (ds.names, ds.tags, ds.sample_ids)
    assert got.values.shape == (n, d) and np.array_equal(got.values, ds.values)
    assert np.array_equal(got_labels, labels)


# ---------------------------------------------------------------- malformed

def _break(draw, rows, first_value_field):
    """One malformation of ``rows``: a ragged row, a cut-off last row, a bad
    float, a repeated row or a dropped row."""
    rows = list(rows)
    kind = draw(st.sampled_from(["ragged", "cut", "bad_float", "repeat", "drop"]))
    r = draw(st.integers(0, len(rows) - 1))
    if kind == "ragged":
        rows[r] += "\t" + draw(st.sampled_from(["1.0", "x", ""]))
    elif kind == "cut":
        rows[-1] = rows[-1][:draw(st.integers(1, len(rows[-1])))]
    elif kind == "bad_float":
        parts = rows[r].split("\t")
        if len(parts) > first_value_field:
            parts[draw(st.integers(first_value_field, len(parts) - 1))] = draw(bad_float)
        rows[r] = "\t".join(parts)
    elif kind == "repeat":
        rows.insert(draw(st.integers(0, len(rows))), rows[r])
    else:
        del rows[r]
    return rows


@settings(max_examples=120, deadline=None)
@given(tensor_files(), st.data())
def test_malformed_tensor_fails_like_loop_reader(tmp_path_factory, spec, data):
    rows, (_, blanks, end, trailing) = spec
    rows = _break(data.draw, rows, 3)
    layout = (range(len(rows)), blanks, end, trailing)
    path = _write(tmp_path_factory, render(["gene\tcell_type\tsample\tvalue"], rows, layout))
    _assert_tensor_agrees(path)


@settings(max_examples=120, deadline=None)
@given(matrix_files(), st.data())
def test_malformed_matrix_fails_like_loop_reader(tmp_path_factory, spec, data):
    header, rows, (_, blanks, end, trailing) = spec
    rows = _break(data.draw, rows, 1)
    layout = (range(len(rows)), blanks, end, trailing)
    _assert_matrix_agrees(_write(tmp_path_factory, render(header, rows, layout)))


@settings(max_examples=120, deadline=None)
@given(dataset_files(), st.data())
def test_malformed_dataset_fails_like_loop_reader(tmp_path_factory, spec, data):
    header, rows, (_, blanks, end, trailing) = spec
    rows = _break(data.draw, rows, 1)
    layout = (range(len(rows)), blanks, end, trailing)
    _assert_dataset_agrees(_write(tmp_path_factory, render(header, rows, layout)))


# ---------------------------------------------------------------- parse rules

@pytest.mark.parametrize("token, expected", [
    ("1_0", 10.0), (" 2.5 ", 2.5), ("+.5", 0.5), ("1.", 1.0), ("-0.0", -0.0),
    ("5e-324", 5e-324), ("١", 1.0)])
@pytest.mark.parametrize("width", [1, 3])
def test_values_parse_as_float_does(token, expected, width):
    """One value per row and many values per row take different bulk paths;
    both read exactly what float() reads."""
    rows = ["k\t" + "\t".join([token] * width), "j\t" + "\t".join(["1.0"] * width)]
    (keys,), values = parse_rows(rows, [2, 3], width + 1)
    assert keys == ["k", "j"]
    assert np.array_equal(values[0], np.full(width, float(token)))
    assert np.signbit(values[0, 0]) == np.signbit(expected)


@pytest.mark.parametrize("token", ["1.0\x1c", "\x1f1.0", "0x10", "1,5", "", "abc"])
@pytest.mark.parametrize("width", [1, 3])
def test_values_float_rejects_are_rejected(token, width):
    rows = ["k\t" + "\t".join(["1.0"] * width), "j\t" + "\t".join(["2.0"] * (width - 1) + [token])]
    with pytest.raises(ParseError) as err:
        parse_rows(rows, [4, 6], width + 1)
    assert err.value.line == 6


@pytest.mark.parametrize("token", ["nan", "-NaN", "inf", "-Infinity", "1e500"])
@pytest.mark.parametrize("width", [1, 3])
def test_values_that_are_not_finite_name_their_line(token, width):
    """What float() reads as nan or inf, a number beyond float range too,
    is a ParseError at the first row that holds one, on both bulk paths."""
    rows = ["k\t" + "\t".join(["1.0"] * width),
            "j\t" + "\t".join([token] + ["2.0"] * (width - 1)),
            "i\t" + "\t".join([token] * width)]
    with pytest.raises(ParseError, match="^line 6: non-finite value$") as err:
        parse_rows(rows, [4, 6, 7], width + 1)
    assert err.value.line == 6


def test_save_dataset_rejects_bad_labels(tmp_path):
    ds = Dataset(values=np.ones((3, 1)), names=("f",), tags=("cts",),
                 sample_ids=("s0", "s1", "s2"))
    with pytest.raises(ValidationError, match="2 labels for 3 samples"):
        save_dataset(ds, [1, 0], tmp_path / "d.tsv")
    with pytest.raises(ValidationError, match="labels must be 0 or 1"):
        save_dataset(ds, [1, 0, 7], tmp_path / "d.tsv")
    assert not (tmp_path / "d.tsv").exists()


@pytest.mark.parametrize("rows, n_fields, line, message", [
    (["k\t1.0\t2.0", "j\t3.0\t4.0"], 4, 2, "expected 4 fields, got 3"),  # every row short
    (["k\t1.0\t2.0", "j\t\t"], 3, 3, "could not convert"),  # empty values
    (["k\t1.0\t2.0", "j\t"], 3, 3, "expected 3 fields, got 2"),
    (["k\t1.0\t2.0", "j"], 3, 3, "expected 3 fields, got 1"),
])
def test_rows_of_many_values_keep_every_check(rows, n_fields, line, message):
    with pytest.raises(ParseError, match=message) as err:
        parse_rows(rows, [2, 3], n_fields)
    assert err.value.line == line


def _save_and_reorder(tensor, root, data):
    """Save ``tensor`` under ``root``, then lay out each file's rows anew."""
    save_cts_tensor(tensor, root / "t.tsv")
    for part in ("mean", "variance"):
        path = root / f"t_{part}.tsv"
        header, *rows = path.read_text().splitlines()
        path.write_text(render([header], rows, data.draw(layouts(len(rows)), label=part)))


@settings(max_examples=60, deadline=None)
@given(g=st.integers(1, 3), c=st.integers(1, 3), s=st.integers(1, 3), data=st.data())
def test_mean_and_variance_in_independent_orders_load_the_same(tmp_path_factory, g, c, s,
                                                               data):
    """The mean and variance files of one tensor, each shuffled on its own,
    load to the same arrays: the variance rows follow the mean file's axes."""
    axes = [data.draw(names(n)) for n in (g, c, s)]
    size = g * c * s
    mean = data.draw(st.lists(finite_float, min_size=size, max_size=size))
    var = data.draw(st.lists(st.floats(0, 1e300), min_size=size, max_size=size))
    tensor = CtsTensor(genes=axes[0], cell_types=axes[1], samples=axes[2],
                       mean=np.reshape(mean, (g, c, s)), variance=np.reshape(var, (g, c, s)))
    root = tmp_path_factory.mktemp("orders")
    _save_and_reorder(tensor, root, data)
    loaded = load_cts_tensor(root / "t.tsv")
    got = (loaded.genes, loaded.cell_types, loaded.samples)
    assert [sorted(a) for a in got] == [sorted(a) for a in axes]
    ix = np.ix_(*[[have.index(k) for k in want] for have, want in zip(got, axes)])
    assert _same_bits(loaded.mean[ix], tensor.mean)
    assert _same_bits(loaded.variance[ix], tensor.variance)


@pytest.mark.parametrize("case,line,message", [
    ("foreign_key", 3, "disagree: t_variance.tsv entry ('g1', 'c', 's1') is not in the mean"),
    ("repeated_key", 3, "duplicate tensor entry ('g0', 'c', 's0') (first on line 2)"),
    ("dropped_key", None, "missing tensor entry ('g0', 'c', 's1')"),
])
def test_variance_keys_must_match_the_mean_file(tmp_path, case, line, message):
    tensor = CtsTensor(genes=["g0"], cell_types=["c"], samples=["s0", "s1"],
                       mean=np.ones((1, 1, 2)), variance=np.ones((1, 1, 2)))
    save_cts_tensor(tensor, tmp_path / "t.tsv")
    last = {"foreign_key": "g1\tc\ts1\t1.0", "repeated_key": "g0\tc\ts0\t1.0",
            "dropped_key": ""}[case]
    (tmp_path / "t_variance.tsv").write_text(
        "gene\tcell_type\tsample\tvalue\ng0\tc\ts0\t1.0\n" + last + "\n")
    with pytest.raises(ParseError) as err:
        load_cts_tensor(tmp_path / "t.tsv")
    assert err.value.line == line
    assert message in str(err.value)


# ---------------------------------------------------------------- grid order

def _grid_tensor(shape=(2, 3, 4)):
    size = np.prod(shape)
    return CtsTensor(genes=[f"g{i}" for i in range(shape[0])],
                     cell_types=[f"c{i}" for i in range(shape[1])],
                     samples=[f"s {i}" for i in range(shape[2])],
                     mean=np.linspace(-1.5, 2.5, size).reshape(shape) / 3,
                     variance=np.linspace(0.1, 9.7, size).reshape(shape) / 7)


@pytest.mark.parametrize("shape", [(2, 3, 4), (1, 1, 1), (1, 1, 3), (3, 1, 1), (1, 2, 1),
                                   (2, 1, 3)])
def test_saved_tensor_is_read_without_the_keyed_reader(tmp_path, monkeypatch, shape):
    tensor = _grid_tensor(shape)
    save_cts_tensor(tensor, tmp_path / "t.tsv")

    def refuse(*args):
        raise AssertionError("the keyed reader ran")

    monkeypatch.setattr(io, "read_rows", refuse)
    loaded = load_cts_tensor(tmp_path / "t.tsv")
    assert (loaded.genes, loaded.cell_types, loaded.samples) == (
        tensor.genes, tensor.cell_types, tensor.samples)
    assert _same_bits(loaded.mean, tensor.mean)
    assert _same_bits(loaded.variance, tensor.variance)


def _keyed(path, axes=None):
    """``_load_long`` with the grid reader turned off: the keyed reader only."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(io, "_read_grid", lambda *args: None)
        return _load_long(path, axes)


@settings(max_examples=40, deadline=None)
@given(g=st.integers(1, 3), c=st.integers(1, 3), s=st.sampled_from([1, 2, 5]),
       data=st.data())
def test_grid_reader_gives_the_keyed_readers_bits(tmp_path_factory, g, c, s, data):
    """The samples of each (gene, cell type) are parsed as one line: with one
    sample or many, the grid reader gives the keyed reader's axes and bits,
    signed zeros and subnormals included."""
    axes = [f"g{i}" for i in range(g)], [f"c{i}" for i in range(c)], [f"s{i}" for i in range(s)]
    values = np.array(data.draw(st.lists(pooled_finite, min_size=g * c * s,
                                         max_size=g * c * s))).reshape(g, c, s)
    path = _write(tmp_path_factory, save_long_loop(*axes, values))
    for given_axes in (None, [list(a) for a in axes]):
        keyed = _keyed(path, given_axes)
        grid = _read_grid(path, given_axes)
        assert grid is not None
        assert grid[:3] == keyed[:3] == tuple(map(list, axes))
        assert _same_bits(grid[3], keyed[3])


@pytest.mark.parametrize("token", ["", "abc", "0x10", "nan nan"])
@pytest.mark.parametrize("n_samples, sample", [(1, 0), (3, 0), (3, 1), (3, 2)],
                         ids=["only", "first", "middle", "last"])
def test_bad_value_in_a_pair_goes_to_the_keyed_reader(tmp_path, token, n_samples, sample):
    """A value np.loadtxt rejects, at any sample of a (gene, cell type),
    leaves the grid reader, and the keyed reader names its line."""
    shape = (2, 2, n_samples)
    tensor = _grid_tensor(shape)
    save_cts_tensor(tensor, tmp_path / "t.tsv")
    path = tmp_path / "t_mean.tsv"
    lines = path.read_text().split("\n")
    row = 1 + np.ravel_multi_index((1, 0, sample), shape)  # gene g1, type c0
    lines[row] = lines[row].rsplit("\t", 1)[0] + "\t" + token
    path.write_text("\n".join(lines))
    assert _read_grid(path, None) is None
    with pytest.raises(ParseError) as err:
        _load_long(path)
    assert err.value.line == row + 1
    _assert_tensor_agrees(path)


def _perturb(text: str, kind: str) -> str:
    header, *rows = text.split("\n")[:-1]
    if kind == "swap":
        rows[3], rows[4] = rows[4], rows[3]
    elif kind == "repeat":
        rows[5] = rows[4]
    elif kind == "five_fields":
        rows[2] += "\t1.0"
    elif kind in ("1_0", "\x1c", "nan", "inf", "empty_value", "subnormal"):
        key, _ = rows[6].rsplit("\t", 1)
        rows[6] = key + "\t" + {"1_0": "1_0", "\x1c": "2.5\x1c", "nan": "nan", "inf": "-inf",
                                "empty_value": "", "subnormal": "5e-324"}[kind]
    elif kind in ("same_name", "u2028"):  # every row of sample "s 1" renamed
        new = {"same_name": "s 0", "u2028": "s\u20281"}[kind]
        rows = [row.replace("\ts 1\t", f"\t{new}\t") for row in rows]
    elif kind == "blank":
        rows.insert(7, "")
    elif kind == "one_line":  # tabs for line ends: one row of 96 fields
        rows = ["\t".join(rows)]
    elif kind == "shuffled":
        rows = [rows[i] for i in np.random.default_rng(5).permutation(len(rows))]
    lines = [header, *rows]
    if kind == "crlf":
        return "\r\n".join(lines) + "\r\n"
    return ("\n".join(lines) + ("" if kind == "no_final_newline" else "\n")
            + ("x" if kind == "trailing_text" else ""))


@pytest.mark.parametrize("kind", ["swap", "crlf", "blank", "no_final_newline", "repeat",
                                  "five_fields", "1_0", "\x1c", "nan", "inf", "empty_value",
                                  "subnormal", "same_name", "u2028", "trailing_text",
                                  "one_line", "shuffled"])
def test_perturbed_grid_file_reads_like_loop_reader(tmp_path, kind):
    """One change to a grid-order file: the arrays, or the ParseError line and
    message, are the loop reader's. Only "subnormal" keeps the file in grid
    order; a value that is not finite leaves it to the keyed reader, which
    names its line."""
    save_cts_tensor(_grid_tensor(), tmp_path / "t.tsv")
    path = tmp_path / "t_mean.tsv"
    path.write_bytes(_perturb(path.read_text(), kind).encode())
    assert (_read_grid(path, None) is not None) == (kind == "subnormal")
    _assert_tensor_agrees(path)


class _CountingBytes(bytes):
    """A file's bytes that count the slices taken of them."""

    def __getitem__(self, index):
        self.taken += 1
        return super().__getitem__(index)


@pytest.mark.parametrize("order", [(0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0),
                                   "shuffled"],
                         ids=["gene_sample_type", "type_gene_sample", "type_sample_gene",
                              "sample_gene_type", "sample_type_gene", "shuffled"])
def test_file_in_another_order_is_told_from_few_rows(tmp_path, monkeypatch, order):
    """A tensor file whose rows follow another axis order, or none, goes to
    the keyed reader after a few of its keys are read (each key is three
    slices of the file's bytes), not one per row and before the grid's key
    block is built, whether the axes are read from the file or given, as for
    a variance file."""
    shape = (8, 4, 10)
    tensor = _grid_tensor(shape)
    save_cts_tensor(tensor, tmp_path / "t.tsv")
    path = tmp_path / "t_mean.tsv"
    header, *rows = path.read_text().splitlines()
    n = len(rows)
    index = (np.random.default_rng(7).permutation(n) if order == "shuffled"
             else np.arange(n).reshape(shape).transpose(order).ravel())
    path.write_text("\n".join([header, *[rows[i] for i in index]]) + "\n")
    data = _CountingBytes(path.read_bytes())
    monkeypatch.setattr(io.Path, "read_bytes", lambda self: data)
    monkeypatch.setattr(io, "_grid_keys", None)
    data.taken = 0
    assert _read_grid(path, None) is None
    # three slices per key: one key per cell type and sample while the axes
    # are measured, then four for each of five probed rows
    assert data.taken <= 3 * (shape[1] + shape[2] + 4 * 5) < n
    data.taken = 0
    assert _read_grid(path, [tensor.genes, tensor.cell_types, tensor.samples]) is None
    assert data.taken <= 3 * 5
    monkeypatch.undo()
    _assert_tensor_agrees(path)


def _tensor(genes=("g",), cell_types=("t",), samples=("s",)):
    shape = (len(genes), len(cell_types), len(samples))
    return CtsTensor(genes=list(genes), cell_types=list(cell_types), samples=list(samples),
                     mean=np.ones(shape), variance=np.ones(shape))


@pytest.mark.parametrize("write, name", [
    (lambda d: save_cts_tensor(_tensor(genes=("a\tb", "c")), d / "t.tsv"), "gene 'a\\tb'"),
    (lambda d: save_cts_tensor(_tensor(cell_types=("t\n",)), d / "t.tsv"), "cell_type 't\\n'"),
    (lambda d: save_cts_tensor(_tensor(samples=("s\u2028",)), d / "t.tsv"),
     "sample 's\\u2028'"),
    (lambda d: save_bulk_matrix(BulkMatrix(genes=["a\nb"], samples=["s"],
                                           values=np.ones((1, 1))), d / "b.tsv"),
     "gene 'a\\nb'"),
    (lambda d: save_bulk_matrix(BulkMatrix(genes=["x\r"], samples=["s"],
                                           values=np.ones((1, 1))), d / "b.tsv"),
     "gene 'x\\r'"),
    (lambda d: save_bulk_matrix(BulkMatrix(genes=["g"], samples=["s\tt"],
                                           values=np.ones((1, 1))), d / "b.tsv"),
     "header field 's\\tt'"),
    (lambda d: save_dataset(Dataset(values=np.ones((1, 1)), names=("f\x0b",), tags=("cts",),
                                    sample_ids=("s",)), [1], d / "d.tsv"),
     "header field 'f\\x0b'"),
    (lambda d: save_dataset(Dataset(values=np.ones((1, 1)), names=("f",), tags=("cts",),
                                    sample_ids=("s\t1",)), [1], d / "d.tsv"),
     "sample 's\\t1'"),
    (lambda d: save_eqtl_table({"g\x85": (0.1, 0.2, 0.3)}, d / "e.tsv"), "gene 'g\\x85'"),
    (lambda d: write_rows(d / "w.tsv", [(["sample"], ["a", "b\x1e"], [])], ["s"],
                          np.ones((1, 2))), "header field 'b\\x1e'"),
], ids=["tensor_gene_tab", "tensor_type_newline", "tensor_sample_u2028", "bulk_gene_newline",
        "bulk_gene_cr", "bulk_sample_tab", "dataset_feature_vt", "dataset_sample_tab",
        "eqtl_gene_nel", "write_rows_header_rs"])
def test_writers_refuse_names_that_break_rows(tmp_path, write, name):
    """A name with a tab or a line break would write a file that its own
    reader rejects or misreads; the writer names it and creates no file."""
    with pytest.raises(ValidationError) as err:
        write(tmp_path)
    assert str(err.value) == f"{name} holds a tab or a line break"
    assert list(tmp_path.iterdir()) == []
