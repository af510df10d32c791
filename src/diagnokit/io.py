"""File I/O for matrices, tensors, metadata, and selections.

Formats:
  * matrix TSV: header ``gene<TAB>sample1...``, one gene per row
  * tensor TSV (long): header ``gene<TAB>cell_type<TAB>sample<TAB>value``,
    one file each for mean and variance
  * sample metadata JSON: list of ``{sample_id, proportions, bulk_cov, cts_cov}``

Floats are rendered with ``repr`` (shortest round-tripping form, at most 17
significant digits) so load(save(x)) is bit-exact for 64-bit floats.
"""
from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

import numpy as np

from .errors import ParseError, ValidationError
from .types import BulkMatrix, CtsTensor, SampleMeta


def _fmt(x: float) -> str:
    return repr(float(x))


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


def save_matrix_tsv(genes: list[str], samples: list[str], values: np.ndarray,
                    path: str | Path) -> None:
    lines = ["gene\t" + "\t".join(samples)]
    for g, row in zip(genes, np.asarray(values)):
        lines.append(g + "\t" + "\t".join(_fmt(v) for v in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_matrix_tsv(path: str | Path) -> tuple[list[str], list[str], np.ndarray]:
    path = Path(path)
    if not path.exists():
        raise ParseError(f"file not found: {path}")
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ParseError("empty matrix file", line=1)
    header = lines[0].split("\t")
    if header[0] != "gene":
        raise ParseError(f"expected header starting with 'gene', got {header[0]!r}", line=1)
    samples = header[1:]
    genes: list[str] = []
    rows: list[list[float]] = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != len(samples) + 1:
            raise ParseError(
                f"expected {len(samples) + 1} fields, got {len(parts)}", line=lineno)
        genes.append(parts[0])
        try:
            rows.append([float(p) for p in parts[1:]])
        except ValueError as exc:
            raise ParseError(str(exc), line=lineno) from exc
    return genes, samples, np.array(rows, dtype=np.float64).reshape(len(genes), len(samples))


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


def _save_long(genes, cell_types, samples, values, path) -> None:
    lines = ["gene\tcell_type\tsample\tvalue"]
    for gi, g in enumerate(genes):
        for ci, c in enumerate(cell_types):
            for si, s in enumerate(samples):
                lines.append(f"{g}\t{c}\t{s}\t{_fmt(values[gi, ci, si])}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def _load_long(path: str | Path) -> tuple[list[str], list[str], list[str], np.ndarray]:
    path = Path(path)
    if not path.exists():
        raise ParseError(f"file not found: {path}")
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != "gene\tcell_type\tsample\tvalue":
        raise ParseError("bad long-format tensor header", line=1)
    # dicts double as order-preserving sets
    genes: dict[str, None] = {}
    cell_types: dict[str, None] = {}
    samples: dict[str, None] = {}
    entries: dict[tuple[str, str, str], float] = {}
    blank = 0
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
    if len(entries) < len(lines) - 1 - blank:
        # some key repeats; find its line only now, off the per-row path
        seen = set()
        for lineno, line in enumerate(lines[1:], start=2):
            key = tuple(line.split("\t")[:3])
            if line and key in seen:
                raise ParseError(f"duplicate tensor entry {key}", line=lineno)
            seen.add(key)
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


def save_cts_tensor(tensor: CtsTensor, path: str | Path) -> None:
    """Write mean and variance long-format TSVs; refuses invalid tensors."""
    if not isinstance(tensor, CtsTensor):
        raise ValidationError("save_cts_tensor expects a CtsTensor")
    mean_path, var_path = _tensor_paths(path)
    _save_long(tensor.genes, tensor.cell_types, tensor.samples, tensor.mean, mean_path)
    _save_long(tensor.genes, tensor.cell_types, tensor.samples, tensor.variance, var_path)


def load_cts_tensor(path: str | Path) -> CtsTensor:
    mean_path, var_path = _tensor_paths(path)
    genes, cell_types, samples, mean = _load_long(mean_path)
    genes2, cell_types2, samples2, var = _load_long(var_path)
    if (genes, cell_types, samples) != (genes2, cell_types2, samples2):
        raise ParseError("mean and variance tensor files disagree on axes")
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
