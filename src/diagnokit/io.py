"""File I/O for matrices, tensors, metadata, and selections.

Formats:
  * matrix TSV: header ``gene<TAB>sample1...``, one gene per row
  * tensor TSV (long): header ``gene<TAB>cell_type<TAB>sample<TAB>value``,
    one file each for mean and variance
  * sample metadata JSON: list of ``{sample_id, proportions, bulk_cov, cts_cov}``,
    a string ID and numbers that pass ``_is_number``, the one number test of
    every JSON input, read as one ``SampleMetas`` record: every record names
    the same cell types; sidecar labels are joined to the reference cells by
    ID (``types._positions``); in every JSON input a repeated key is an error

Floats are rendered with ``repr`` (shortest round-tripping form, at most 17
significant digits) so load(save(x)) is bit-exact for 64-bit floats. No name
(gene, sample, cell type, feature, header field) may hold a tab or a line
break, and no value may be other than finite: the writers raise
``ValidationError`` before creating any file, as the readers would refuse it.

Every TSV format (these and the classifier dataset) goes through one
reader, ``read_rows`` + ``parse_rows``, and one writer, ``write_rows``; the
eQTL table in ``tests/oracles.py`` is a test fixture that no command reads.
The writer checks every name and value first, then formats and writes the
rows a block at a time (``TSV_BLOCK_ROWS`` rows, or the rows of one slab of
the first key axis, such as a few genes of a tensor), so its memory is
bounded by a block, not by the file; it calls ``repr`` once per run of equal
values down a column (a prior written for every sample, a constant
feature), else once per value. The reader works on the whole file at once:
it parses the values of all rows with one ``np.loadtxt`` when rows hold many
values, and otherwise with one tab count per row, one split of the whole
body and one float parse. Readers accept any line end and skip empty
lines; a malformed row, or a row with a value that is not finite, raises
``ParseError`` with its line number, and a repeated ID (a matrix's gene row
or column name, a tensor entry, a dataset's sample or feature name) with
its line and the first one's, from ``types._check_unique``.

A tensor file in grid order, the row order ``save_cts_tensor`` writes and
so what ``simulate`` and ``deconvolve`` write, is read from its bytes
without a string per row (``_read_grid``), a block of genes at a time, its
values parsed as one line of samples per (gene, cell type): beyond the
file's bytes and the arrays read, its memory is bounded by a block. Any
other order, line end or byte goes to the keyed reader, which gives the
same arrays and is the only one that raises. ``save_cts_tensor`` checks the
mean and the variance before it creates either file.

JSON files are written by ``save_json``: indented, keys sorted except
where their order is the record's layout.
"""
from __future__ import annotations

import io
import json
import math
import os
import tempfile
import warnings
from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from itertools import chain, repeat
from pathlib import Path
from typing import NoReturn

import numpy as np

from .errors import ParseError, ValidationError
from .reference import ReferenceDataset
from .types import BulkMatrix, CtsTensor, SampleMetas, _check_unique, _positions


def atomic_write_text(path: str | Path, text: str | Iterable[str]) -> None:
    """Write ``text``, or its chunks one after another, via a temp file in the
    same directory, then rename; a chunk that raises leaves no file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# rows formatted and written, or scanned and parsed, at a time: a block of a
# file's text stays small however long the file is
TSV_BLOCK_ROWS = 8192
# np.loadtxt reads these as whitespace; float() rejects them
_LOADTXT_SPACE = "\x1c\x1d\x1e\x1f"
# every character at which str.splitlines ends a line
_LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\u2028\u2029"
_FIELD_BREAKS = "\t" + _LINE_BREAKS


def _check_fields(fields: Sequence[str], what: str) -> None:
    """Raise ``ValidationError`` naming the first of ``fields`` that holds a
    tab or a line break: written, it would shift the fields of its row or
    split its line. One scan covers all fields."""
    def bad(field: str) -> bool:
        return any(map(field.__contains__, _FIELD_BREAKS))

    if bad("".join(fields)):
        raise ValidationError(f"{what} {next(filter(bad, fields))!r} holds a tab or a line break")


def _format_values(values: np.ndarray) -> list[str]:
    """``repr`` of every value of the 2-D ``values``, in row-major order.

    A value whose bits equal those of the value above it in its column takes
    that value's string: each run of equal bits down a column (a constant
    feature, a prior written for every sample) is formatted once. Bits, not
    values, so ``-0.0`` stays apart from ``0.0``.
    """
    bits = values.view(np.int64)
    repeat = bits[1:] == bits[:-1]
    if not repeat.any():
        return list(map(repr, values.ravel().tolist()))
    fresh = np.ones(values.shape, dtype=bool)
    fresh[1:] = ~repeat
    cells = np.array(list(map(repr, values[fresh].tolist())), dtype=object)
    # a fresh value's index among the fresh ones rises down its column, so
    # the running maximum carries it down the run it starts
    index = np.where(fresh, np.cumsum(fresh).reshape(values.shape) - 1, 0)
    return cells[np.maximum.accumulate(index, axis=0).ravel()].tolist()


def _row_chunks(header, axes, values, tails=None) -> Iterator[str]:
    """The text of a TSV file, checked now and made in chunks as it is read:
    ``header``, then one ``key<TAB>v1<TAB>...<TAB>vk`` line per row of the
    2-D ``values``, each value as ``repr``; ``tails[i]``, when given, ends
    row i after one more tab.

    The rows are keyed by the grid of ``axes``, one list of names per key
    field, in ``_grid_keys`` order. ``header`` holds one ``(key names, value
    names, tail names)`` triple per line, laid out like the rows; no value
    names, like no values, add no field. A name that holds a tab or a line
    break raises ``ValidationError``, and so does a value that is not finite,
    naming its row's key. A chunk holds the rows of as many names of the
    first axis as fill ``TSV_BLOCK_ROWS`` rows (one name at least), so no
    string of all rows or of all keys is built.
    """
    values = np.asarray(values, dtype=np.float64)
    for line in header:
        _check_fields([name for group in line for name in group], "header field")
    key_names = header[0][0]
    for name, axis in zip(key_names, axes):
        _check_fields(axis, name)
    # NaN carries through min and max: no array the size of ``values`` unless one is bad
    if values.size and not np.isfinite([values.min(), values.max()]).all():
        bad = ~np.isfinite(values).all(axis=1)
        first = np.unravel_index(int(np.argmax(bad)), [len(axis) for axis in axes])
        key = "\t".join(axis[i] for axis, i in zip(axes, first))
        raise ValidationError(f"non-finite value in the row of {'/'.join(key_names)} {key!r}")
    lead, *rest = axes
    per_lead = math.prod(map(len, rest))
    slab = max(1, TSV_BLOCK_ROWS // max(per_lead, 1))
    k = values.shape[1]

    def block(start: int) -> str:
        rows = slice(start * per_lead, (start + slab) * per_lead)
        keys = _grid_keys([lead[start:start + slab], *rest], "\n").split("\n")[:-1]
        cells = _format_values(values[rows])
        if k != 1:
            cells = ["\t".join(cells[i * k:(i + 1) * k]) for i in range(len(keys))]
        fields = []
        for column in (keys, cells if k else None, None if tails is None else tails[rows]):
            if column is not None:
                fields += [column, repeat("\t")]
        fields[-1] = repeat("\n")
        # no string per row: the chunk is joined from the fields and separators
        return "".join(chain.from_iterable(zip(*fields)))

    head = "".join("\t".join([*names, *value_names, *tail_names]) + "\n"
                   for names, value_names, tail_names in header)
    return chain([head], map(block, range(0, len(lead), slab)))


def write_rows(path: str | Path, header, axes, values, tails=None) -> None:
    """Write the rows of ``_row_chunks`` to ``path``, a block at a time; any
    name or value it refuses raises before the file is created."""
    atomic_write_text(path, _row_chunks(header, axes, values, tails))


def read_rows(path: str | Path, n_header: int) -> tuple[list[str], list[str], Sequence[int]]:
    """The first ``n_header`` lines of ``path``, then its other non-empty
    lines and their 1-based line numbers.

    Lines are split with ``str.splitlines``, so any line end is accepted.
    """
    path = Path(path)
    if not path.exists():
        raise ParseError(f"file not found: {path}")
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    body = lines[n_header:]
    if "" not in body:
        return lines[:n_header], body, range(n_header + 1, n_header + 1 + len(body))
    linenos = [i for i, line in enumerate(body, start=n_header + 1) if line]
    return lines[:n_header], [lines[i - 1] for i in linenos], linenos


def parse_rows(rows: list[str], linenos: Sequence[int], n_fields: int,
               n_keys: int = 1) -> tuple[list[list[str]], np.ndarray]:
    """Split tab-separated ``rows`` of ``n_fields`` fields each into their
    first ``n_keys`` columns (as strings) and the rest as a float block of
    shape (len(rows), n_fields - n_keys).

    Values parse as ``float()`` parses them. The rows are split and parsed in
    bulk; a malformed row raises ``ParseError`` naming the first bad line, as
    a row-by-row parse would. Once every row parses, the first row with a
    value that is not finite (nan, inf, or a number beyond float range)
    raises ``ParseError`` at its line: one ``isfinite`` pass over the block.
    """
    if not rows:
        return [[] for _ in range(n_keys)], np.empty((0, n_fields - n_keys))
    body = "\t".join(rows)
    shape = (len(rows), n_fields - n_keys)
    if shape[1] > 1 and not any(map(body.__contains__, _LOADTXT_SPACE)):
        # many values per row: np.loadtxt tokenizes them in C, without a str
        # per value. It rejects rows whose value counts differ and skips
        # empty ones, so the right shape means every row has n_fields
        # fields; what it rejects or reads unlike float() ('1_0') goes the
        # exact way below
        parts = [row.split("\t", n_keys) for row in rows]
        try:
            with warnings.catch_warnings():
                # rows whose value parts are all empty: the exact path below
                # names the first bad line, so numpy's notice is noise
                warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                        UserWarning)
                values = np.loadtxt([p[-1] for p in parts], delimiter="\t",
                                    comments=None, ndmin=2)
        except ValueError:
            values = None
        if values is not None and values.shape == shape:
            return [[p[k] for p in parts] for k in range(n_keys)], _finite(values, linenos)
    counts = list(map(str.count, rows, repeat("\t")))
    if counts.count(n_fields - 1) != len(rows):
        _raise_first_bad(rows, linenos, n_fields, n_keys)
    fields = body.split("\t")
    keys = [fields[k::n_fields] for k in range(n_keys)]
    for width in range(n_fields, n_fields - n_keys, -1):
        del fields[::width]  # drop the leading key column of rows this wide
    try:
        values = np.array(fields, dtype=np.float64)
    except ValueError:
        _raise_first_bad(rows, linenos, n_fields, n_keys)
    return keys, _finite(values.reshape(shape), linenos)


def _finite(values: np.ndarray, linenos: Sequence[int]) -> np.ndarray:
    """``values``, or a ``ParseError`` at the line of its first row holding a
    value that is not finite."""
    bad = ~np.isfinite(values).all(axis=1)
    if bad.any():
        raise ParseError("non-finite value", line=linenos[int(np.argmax(bad))])
    return values


def _raise_first_bad(rows, linenos, n_fields: int, n_keys: int) -> NoReturn:
    """Raise for the first row with the wrong field count or a non-float value."""
    for lineno, row in zip(linenos, rows):
        parts = row.split("\t")
        if len(parts) != n_fields:
            raise ParseError(f"expected {n_fields} fields, got {len(parts)}", line=lineno)
        try:
            [float(p) for p in parts[n_keys:]]
        except ValueError as exc:
            raise ParseError(str(exc), line=lineno) from None
    raise AssertionError("no malformed row found")


def save_matrix_tsv(genes: list[str], samples: list[str], values: np.ndarray,
                    path: str | Path) -> None:
    write_rows(path, [(["gene"], samples, [])], [genes], values)


def load_matrix_tsv(path: str | Path) -> tuple[list[str], list[str], np.ndarray]:
    header, rows, linenos = read_rows(path, 1)
    if not header:
        raise ParseError("empty matrix file", line=1)
    names = header[0].split("\t")
    if names[0] != "gene":
        raise ParseError(f"expected header starting with 'gene', got {names[0]!r}", line=1)
    _check_unique(names[1:], "column", [1] * len(names))
    (genes,), values = parse_rows(rows, linenos, len(names))
    _check_unique(genes, "gene ID", linenos)
    return genes, names[1:], values


def save_bulk_matrix(bulk: BulkMatrix, path: str | Path) -> None:
    save_matrix_tsv(bulk.genes, bulk.samples, bulk.values, path)


def load_bulk_matrix(path: str | Path) -> BulkMatrix:
    genes, samples, values = load_matrix_tsv(path)
    return BulkMatrix(genes=genes, samples=samples, values=values)


def _tensor_paths(path: str | Path) -> tuple[Path, Path]:
    """Mean/variance file pair derived from a base path (suffix stripped)."""
    base = Path(path)
    stem = base.with_suffix("") if base.suffix == ".tsv" else base
    return Path(str(stem) + "_mean.tsv"), Path(str(stem) + "_variance.tsv")


LONG_FIELDS = ("gene", "cell_type", "sample", "value")
LONG_HEADER = "\t".join(LONG_FIELDS)


def _grid_keys(axes: Sequence[Sequence[str]], end: str) -> str:
    """Every key of the grid of ``axes``, its names joined by tabs and each
    key followed by ``end``, in grid order: the first axis outermost, the
    last innermost. For a tensor file, gene-major, then cell type, then
    sample: the one row order ``save_cts_tensor`` writes and ``_read_grid``
    reads."""
    *outer, inner = axes
    if not inner:
        return ""
    prefixes = [""]
    for axis in outer:
        prefixes = [p + name + "\t" for p in prefixes for name in axis]
    return "".join([p + (end + p).join(inner) + end for p in prefixes])


_GRID_HEAD = (LONG_HEADER + "\n").encode()
_SCAN_BYTES = 1 << 18  # bytes of a tensor file scanned for tabs and line ends at a time
_ROW_SEPS = np.array([9, 9, 9, 10], dtype=np.uint8)  # a row's three tabs, then "\n"


def _read_grid(path: str | Path, axes: list[list[str]] | None
               ) -> tuple[list[str], list[str], list[str], np.ndarray] | None:
    """Axes and values of a long tensor file whose rows are exactly the grid
    of its axes, read from the file's bytes; None for any other file.

    The axes are ``axes`` when given, else read from the file, and each must
    be unique. The file must be the exact header line, then rows
    ``gene<TAB>cell_type<TAB>sample<TAB>value`` of printable ASCII, each
    ended by ``\\n``, keyed in ``_grid_keys`` order. Then it holds each entry
    once, in array order, and reads as the keyed reader reads it. The file's
    bytes are kept; the rest of the work is done a block of genes (about
    ``TSV_BLOCK_ROWS`` rows) at a time: one scan finds the block's tabs and
    line ends, one comparison checks its keys, and one ``np.loadtxt`` parses
    its values, given the samples of each (gene, cell type) as one
    tab-separated line, so that it pays per pair, not per row. Any other
    file (another order, line end or byte, a blank line, a value
    ``np.loadtxt`` rejects, an empty one included, or a value that is not
    finite) is left to the keyed reader, which also names the line of any
    error; a file in another order is told from a few of its rows, before a
    key per row is built.
    """
    try:
        data = Path(path).read_bytes()
    except OSError:
        return None
    if not data.startswith(_GRID_HEAD) or len(data) == len(_GRID_HEAD):
        return None
    off = len(_GRID_HEAD)
    body = np.frombuffer(data, dtype=np.uint8)
    # no byte outside printable ASCII but the tabs and line ends checked per
    # block: no "\r", no other line break, nothing np.loadtxt reads unlike float()
    if body[off:].max() > 0x7E:
        return None
    windows = range(off, len(data), _SCAN_BYTES)
    n = sum(int(np.count_nonzero(body[i:i + _SCAN_BYTES] == 10)) for i in windows)
    if not n:
        return None
    seps = np.empty(0, dtype=np.intp)  # tabs and line ends from the block's start on
    scanned = start = off

    def key(i: int) -> tuple[bytes | None, ...]:
        """Row i of the block's key fields, scanning on as far as it needs."""
        nonlocal seps, scanned
        while seps.size < 4 * i + 4 and scanned < len(data):
            window = body[scanned:scanned + _SCAN_BYTES]
            seps = np.concatenate([seps, np.flatnonzero(window < 0x20) + scanned])
            scanned += _SCAN_BYTES
        if seps.size < 4 * i + 4:
            return None, None, None
        t0, t1, t2 = seps[4 * i:4 * i + 3].tolist()
        begin = int(seps[4 * i - 1]) + 1 if i else start
        return data[begin:t0], data[t0 + 1:t1], data[t1 + 1:t2]

    if axes is None:
        g0, c0, s0 = key(0)
        n_samples = next((i for i in range(1, n) if key(i)[:2] != (g0, c0)), n)
        # row j * n_samples of the first gene is keyed (g0, c_j, s0): with unique
        # keys, this finds at most one row per cell type before it stops
        n_types = next((j for j in range(1, n // n_samples)
                        if key(j * n_samples)[::2] != (g0, s0)), n // n_samples)
        shape = (n // (n_types * n_samples), n_types, n_samples)

        def name(field: int, j: int) -> bytes:  # the grid's j-th name of an axis
            return key(j * (n_types * n_samples, n_samples, 1)[field])[field]
    else:
        shape = tuple(map(len, axes))

        def name(field: int, j: int) -> bytes:
            return axes[field][j].encode()
    n_types, n_samples = shape[1:]
    per_gene = n_types * n_samples
    slab = max(1, TSV_BLOCK_ROWS // per_gene)
    first = min(slab * per_gene, n)
    # five rows of the first block against the grid's keys: a file in
    # another order is turned away here, before a key per row is built
    if math.prod(shape) != n or any(
            key(i) != tuple(map(name, range(3), np.unravel_index(i, shape)))
            for i in (0, 1, n_samples, per_gene, first - 1) if i < first):
        return None
    if axes is None:
        # a repeated name shortens its axis, and so the key block of its grid
        axes = [None] + [list(dict.fromkeys(name(field, j).decode()
                                            for j in range(shape[field])))
                         for field in (1, 2)]
    out = np.empty((shape[0] * n_types, n_samples))
    genes: list[str] = []
    for g in range(0, shape[0], slab):
        size = min(slab, shape[0] - g) * per_gene
        if key(size - 1)[0] is None:
            return None
        rows = seps[:4 * size].reshape(-1, 4)
        if (body[rows] != _ROW_SEPS).any():
            return None
        block_genes = (list(dict.fromkeys(key(j * per_gene)[0].decode()
                                          for j in range(size // per_gene)))
                       if axes[0] is None else axes[0][g:g + slab])
        # each row's key runs to its third tab, its value on to its line end
        rel = rows - start
        in_key = np.repeat(np.tile([True, False], size),
                           np.diff(rel[:, 2:].ravel() + 1, prepend=0))
        text = body[start:start + in_key.size]
        if text[in_key].tobytes() != _grid_keys([block_genes, *axes[1:]], "\t").encode():
            return None
        values_text = text[~in_key]  # one "value\n" per row
        # the samples of each (gene, cell type) as one line: every line end but
        # each N-th becomes a tab, so np.loadtxt pays per pair, not per value
        ends = np.cumsum(rel[:, 3] - rel[:, 2]) - 1
        values_text[ends.reshape(-1, n_samples)[:, :-1]] = 9
        try:
            with warnings.catch_warnings():
                # one sample per pair and every value empty: the keyed reader
                # names the first bad line
                warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                        UserWarning)
                values = np.loadtxt(io.BytesIO(values_text.tobytes()), delimiter="\t",
                                    comments=None, ndmin=2)
        except ValueError:
            return None
        if values.shape != (size // n_samples, n_samples) or not np.isfinite(values).all():
            return None
        out[g * n_types:g * n_types + len(values)] = values
        genes += block_genes
        seps, start = seps[4 * size:], start + in_key.size
    if start != len(data) or len(set(genes)) != shape[0]:
        return None
    return genes, axes[1], axes[2], out.reshape(shape)


def _load_long(path: str | Path, axes: list[list[str]] | None = None
               ) -> tuple[list[str], list[str], list[str], np.ndarray]:
    """Axes and values of a long-format tensor file; rows may come in any
    order, but each entry exactly once.

    The axes are each gene, cell type and sample in order of first
    appearance, or ``axes`` when given: then a row keyed outside them raises
    with its line number. A file in grid order is read by ``_read_grid``;
    any other goes through the keyed reader below.
    """
    grid = _read_grid(path, axes)
    if grid is not None:
        return grid
    header, rows, linenos = read_rows(path, 1)
    if header != [LONG_HEADER]:
        raise ParseError("bad long-format tensor header", line=1)
    keys, values = parse_rows(rows, linenos, 4, n_keys=3)
    if axes is None:
        axes = [list(dict.fromkeys(col)) for col in keys]
    index = []
    for col, axis in zip(keys, axes):
        ids = {k: i for i, k in enumerate(axis)}
        try:
            index.append(np.fromiter(map(ids.__getitem__, col), dtype=np.intp,
                                     count=len(col)))
        except KeyError:
            r = next(r for r, k in enumerate(col) if k not in ids)
            key = tuple(c[r] for c in keys)
            raise ParseError(f"mean and variance tensor files disagree: {Path(path).name} "
                             f"entry {key} is not in the mean file", line=linenos[r]) from None
    shape = tuple(map(len, axes))
    flat = np.ravel_multi_index(index, shape)
    counts = np.bincount(flat, minlength=math.prod(shape))
    if counts.max(initial=0) > 1:  # some key repeats; name it only now, off the bulk path
        _check_unique(list(zip(*keys)), "tensor entry", linenos)
    if len(rows) < counts.size:  # no entry repeats, so one is missing
        first = np.unravel_index(int(np.argmin(counts)), shape)
        missing = tuple(axis[i] for axis, i in zip(axes, first))
        raise ParseError(f"missing tensor entry {missing}")
    out = np.empty(counts.size)
    out[flat] = values[:, 0]
    return axes[0], axes[1], axes[2], out.reshape(shape)


def save_cts_tensor(tensor: CtsTensor, path: str | Path) -> None:
    """Write mean and variance long-format TSVs, a block of genes at a time;
    refuses invalid tensors, checking both before either file is created."""
    if not isinstance(tensor, CtsTensor):
        raise ValidationError("save_cts_tensor expects a CtsTensor")
    axes = [tensor.genes, tensor.cell_types, tensor.samples]
    header = [(LONG_FIELDS[:3], LONG_FIELDS[3:], [])]
    files = [(p, _row_chunks(header, axes, v.reshape(-1, 1)))
             for p, v in zip(_tensor_paths(path), (tensor.mean, tensor.variance))]
    for p, chunks in files:
        atomic_write_text(p, chunks)


def load_cts_tensor(path: str | Path) -> CtsTensor:
    """Mean and variance tensors; the variance rows are indexed by the mean
    file's axes, so the two files may list their rows in different orders
    but must hold the same (gene, cell type, sample) keys."""
    mean_path, var_path = _tensor_paths(path)
    genes, cell_types, samples, mean = _load_long(mean_path)
    *_, var = _load_long(var_path, [genes, cell_types, samples])
    return CtsTensor(genes=genes, cell_types=cell_types, samples=samples,
                     mean=mean, variance=var)


def save_sample_meta(metas: SampleMetas, path: str | Path) -> None:
    records = [{"sample_id": sid, "proportions": dict(zip(metas.cell_types, w)),
                "bulk_cov": c1, "cts_cov": c2}
               for sid, w, c1, c2 in zip(metas.sample_ids, metas.proportions.tolist(),
                                         metas.bulk_cov.tolist(), metas.cts_cov.tolist())]
    save_json(records, path, sort_keys=False)


def load_sample_meta(path: str | Path) -> SampleMetas:
    """Every record names the cell types of the first, in any order, and
    holds as many covariates of each kind."""
    records = load_json(path)
    if not (isinstance(records, list) and records):
        raise ParseError("sample metadata must be a non-empty JSON list of records")
    ids, columns = [], {"proportions": [], "bulk_cov": [], "cts_cov": []}
    for k, rec in enumerate(records):
        if not (isinstance(rec, dict) and isinstance(rec.get("sample_id"), str)):
            raise ParseError(f"sample metadata record {k} lacks a string 'sample_id'")
        sid = rec["sample_id"]
        props = rec.get("proportions")
        if not isinstance(props, dict):
            raise ParseError(f"sample {sid!r} needs a 'proportions' object")
        cell_types = cell_types if k else list(props)
        if props.keys() != set(cell_types):
            raise ParseError(f"sample {sid!r} names the cell types {sorted(props)}, "
                             f"sample {ids[0]!r} {sorted(cell_types)}")
        values = {"proportions": [props[c] for c in cell_types],
                  "bulk_cov": rec.get("bulk_cov", []), "cts_cov": rec.get("cts_cov", [])}
        for name, v in values.items():
            if not (isinstance(v, list) and all(map(_is_number, v))):
                raise ParseError(f"sample {sid!r}: {name} must be finite JSON numbers, "
                                 f"got {json.dumps(v)}")
            if k and len(v) != len(columns[name][0]):
                raise ParseError(f"sample {sid!r}: {name} holds {len(v)} numbers, "
                                 f"sample {ids[0]!r} {len(columns[name][0])}")
            columns[name].append(v)
        ids.append(sid)
    return SampleMetas(sample_ids=ids, cell_types=cell_types,
                       **{name: np.array(v, dtype=np.float64) for name, v in columns.items()})


def save_reference(ref, path: str | Path, labels_path: str | Path) -> None:
    """Reference matrix TSV (genes x cells) plus a {cell_id: cell_type} sidecar."""
    save_matrix_tsv(ref.genes, ref.cells, ref.values, path)
    save_json(dict(zip(ref.cells, ref.cell_type_labels)), labels_path)


def load_reference(path: str | Path, labels_path: str | Path) -> ReferenceDataset:
    genes, cells, values = load_matrix_tsv(path)
    labels = load_json(labels_path)
    if not (isinstance(labels, dict) and all(isinstance(v, str) for v in labels.values())):
        raise ParseError(f"label sidecar {Path(labels_path).name} must be a JSON object "
                         "mapping cell IDs to cell-type names")
    _positions(labels, cells, f"label sidecar {Path(labels_path).name}")
    return ReferenceDataset(genes=genes, cells=cells,
                            cell_type_labels=[labels[c] for c in cells], values=values)


def save_json(obj, path: str | Path, sort_keys: bool = True) -> None:
    """``obj`` as indented JSON; records whose key order is their layout
    (a checkpoint, a selection, sample metadata) keep it with ``sort_keys``
    False."""
    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=sort_keys) + "\n")


def _is_number(value) -> bool:
    """The one number test of every JSON input: an int or a float, not a bool
    (nor a string of digits), and finite as a float64, so neither NaN,
    Infinity nor an integer too large for a float."""
    if type(value) not in (int, float):  # a bool is an int subclass
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def load_json(path: str | Path):
    def unique(pairs):  # json.load keeps the last value of a repeated key
        obj = dict(pairs)
        if len(obj) < len(pairs):
            key = next(k for k, n in Counter(k for k, _ in pairs).items() if n > 1)
            raise ParseError(f"duplicate key {key!r} in {Path(path).name}")
        return obj

    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=unique)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in {Path(path).name}: {exc.msg}",
                         line=exc.lineno) from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
