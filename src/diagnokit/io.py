"""File I/O for matrices, tensors, metadata, and selections.

Formats:
  * matrix TSV: header ``gene<TAB>sample1...``, one gene per row
  * tensor TSV (long): header ``gene<TAB>cell_type<TAB>sample<TAB>value``,
    one file each for mean and variance
  * sample metadata JSON: list of ``{sample_id, proportions, bulk_cov, cts_cov}``

Floats are rendered with ``repr`` (shortest round-tripping form, at most 17
significant digits) so load(save(x)) is bit-exact for 64-bit floats.

Every TSV format (these, the classifier dataset and the eQTL table) goes
through one reader, ``read_rows`` + ``parse_rows``, and one writer,
``write_rows``. Both work on the whole file at once: the reader parses the
values of all rows with one ``np.loadtxt`` when rows hold many values, and
otherwise with one tab count per row, one split of the whole body and one
float parse; the writer formats all values in one ``repr`` pass. Readers
accept any line end and skip empty lines; a malformed row raises
``ParseError`` with its line number.
"""
from __future__ import annotations

import json
import math
import os
import tempfile
import warnings
from collections.abc import Sequence
from itertools import repeat
from pathlib import Path
from typing import NoReturn

import numpy as np

from .errors import ParseError, ValidationError
from .types import BulkMatrix, CtsTensor, SampleMeta


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write via a temp file in the same directory, then rename."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# np.loadtxt reads these as whitespace; float() rejects them
_LOADTXT_SPACE = "\x1c\x1d\x1e\x1f"


def write_rows(path: str | Path, header: str, keys, values, tails=None) -> None:
    """Write ``header``, then one ``key<TAB>v1<TAB>...<TAB>vk`` line per row of
    the 2-D ``values``, each value as ``repr``; ``tails[i]``, when given, ends
    row i after one more tab.

    Values are formatted in one pass over the whole block, not one call per
    value.
    """
    values = np.asarray(values, dtype=np.float64)
    n, k = values.shape
    cells = list(map(repr, values.ravel().tolist()))
    if k != 1:
        cells = ["\t".join(cells[i * k:(i + 1) * k]) for i in range(n)]
    columns = (keys, cells) if tails is None else (keys, cells, tails)
    atomic_write_text(path, "\n".join([header, *map("\t".join, zip(*columns))]) + "\n")


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
    a row-by-row parse would.
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
            return [[p[k] for p in parts] for k in range(n_keys)], values
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
    return keys, values.reshape(shape)


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
    write_rows(path, "gene\t" + "\t".join(samples), genes, values)


def load_matrix_tsv(path: str | Path) -> tuple[list[str], list[str], np.ndarray]:
    header, rows, linenos = read_rows(path, 1)
    if not header:
        raise ParseError("empty matrix file", line=1)
    names = header[0].split("\t")
    if names[0] != "gene":
        raise ParseError(f"expected header starting with 'gene', got {names[0]!r}", line=1)
    (genes,), values = parse_rows(rows, linenos, len(names))
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


LONG_HEADER = "gene\tcell_type\tsample\tvalue"


def _load_long(path: str | Path, axes: list[list[str]] | None = None
               ) -> tuple[list[str], list[str], list[str], np.ndarray]:
    """Axes and values of a long-format tensor file; rows may come in any
    order, but each entry exactly once.

    The axes are each gene, cell type and sample in order of first
    appearance, or ``axes`` when given: then a row keyed outside them raises
    with its line number.
    """
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
    if counts.max(initial=0) > 1:
        # some key repeats; find its line only now, off the bulk path
        seen = set()
        for r, k in enumerate(flat.tolist()):
            if k in seen:
                key = tuple(col[r] for col in keys)
                raise ParseError(f"duplicate tensor entry {key}", line=linenos[r])
            seen.add(k)
    if len(rows) < counts.size:  # no entry repeats, so one is missing
        first = np.unravel_index(int(np.argmin(counts)), shape)
        missing = tuple(axis[i] for axis, i in zip(axes, first))
        raise ParseError(f"missing tensor entry {missing}")
    out = np.empty(counts.size)
    out[flat] = values[:, 0]
    return axes[0], axes[1], axes[2], out.reshape(shape)


def save_cts_tensor(tensor: CtsTensor, path: str | Path) -> None:
    """Write mean and variance long-format TSVs; refuses invalid tensors."""
    if not isinstance(tensor, CtsTensor):
        raise ValidationError("save_cts_tensor expects a CtsTensor")
    mean_path, var_path = _tensor_paths(path)
    prefixes = [f"{g}\t{c}\t" for g in tensor.genes for c in tensor.cell_types]
    keys = [p + s for p in prefixes for s in tensor.samples]
    write_rows(mean_path, LONG_HEADER, keys, tensor.mean.reshape(-1, 1))
    write_rows(var_path, LONG_HEADER, keys, tensor.variance.reshape(-1, 1))


def load_cts_tensor(path: str | Path) -> CtsTensor:
    """Mean and variance tensors; the variance rows are indexed by the mean
    file's axes, so the two files may list their rows in different orders
    but must hold the same (gene, cell type, sample) keys."""
    mean_path, var_path = _tensor_paths(path)
    genes, cell_types, samples, mean = _load_long(mean_path)
    *_, var = _load_long(var_path, [genes, cell_types, samples])
    return CtsTensor(genes=genes, cell_types=cell_types, samples=samples,
                     mean=mean, variance=var)


def save_sample_meta(metas: list[SampleMeta], cell_types: list[str], path: str | Path) -> None:
    records = []
    for m in metas:
        records.append({
            "sample_id": m.sample_id,
            "proportions": {c: m.proportions[i] for i, c in enumerate(cell_types)},
            "bulk_cov": list(m.bulk_cov),
            "cts_cov": list(m.cts_cov),
        })
    atomic_write_text(path, json.dumps(records, indent=2) + "\n")


def load_sample_meta(path: str | Path, cell_types: list[str]) -> list[SampleMeta]:
    records = load_json(path)
    if not isinstance(records, list):
        raise ParseError("sample metadata must be a JSON list of records")
    metas = []
    for k, rec in enumerate(records):
        if not isinstance(rec, dict) or "sample_id" not in rec:
            raise ParseError(f"sample metadata record {k} is not an object with a 'sample_id'")
        sid = rec["sample_id"]
        props = rec.get("proportions")
        if not isinstance(props, dict):
            raise ParseError(f"sample {sid!r} needs a 'proportions' object")
        missing = [c for c in cell_types if c not in props]
        if missing:
            raise ValidationError(f"sample {sid!r} missing proportions for {missing}")
        try:
            proportions = np.array([props[c] for c in cell_types], dtype=np.float64)
            bulk_cov = np.array(rec.get("bulk_cov", []), dtype=np.float64)
            cts_cov = np.array(rec.get("cts_cov", []), dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise ParseError(f"sample {sid!r}: non-numeric value ({exc})") from exc
        metas.append(SampleMeta(sample_id=sid, proportions=proportions,
                                bulk_cov=bulk_cov, cts_cov=cts_cov))
    return metas


def save_reference(ref, path: str | Path, labels_path: str | Path) -> None:
    """Reference matrix TSV (genes x cells) plus a {cell_id: cell_type} sidecar."""
    save_matrix_tsv(ref.genes, ref.cells, ref.values, path)
    save_json(dict(zip(ref.cells, ref.cell_type_labels)), labels_path)


def load_reference(path: str | Path, labels_path: str | Path):
    from .reference import ReferenceDataset

    genes, cells, values = load_matrix_tsv(path)
    labels = load_json(labels_path)
    if not (isinstance(labels, dict) and all(isinstance(v, str) for v in labels.values())):
        raise ParseError(f"label sidecar {Path(labels_path).name} must be a JSON object "
                         "mapping cell IDs to cell-type names")
    missing = [c for c in cells if c not in labels]
    if missing:
        raise ValidationError(f"label sidecar missing cells: {missing[:5]}")
    return ReferenceDataset(genes=genes, cells=cells,
                            cell_type_labels=[labels[c] for c in cells], values=values)


def save_json(obj, path: str | Path) -> None:
    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def load_json(path: str | Path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in {Path(path).name}: {exc.msg}",
                         line=exc.lineno) from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
