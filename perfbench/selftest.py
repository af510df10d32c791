"""Fast self-test of the benchmark: toy-size runs plus corrupted outputs.

Usage (from the repository root): ``python3 perfbench/selftest.py``

Each workload runs at toy size through the same code as a real run, once
untraced and once traced, and must pass every check and report every
end-to-end and per-layer metric listed in BENCHMARK.json. Then each check is
shown rejecting a deliberately corrupted copy of the outputs, so a check that
can never fail is caught, and the tracer is shown reporting a missing kernel
hook as missing.
Exits 0 when every step behaves, 1 otherwise.
"""
from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402
from worker import _digests  # noqa: E402


def _edit_json(path: Path, edit) -> None:
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))


def _edit_lines(path: Path, edit) -> None:
    lines = path.read_text().split("\n")
    edit(lines)
    path.write_text("\n".join(lines))


def _write_tensor(path: Path, genes, cts, samples, values) -> None:
    lines = ["gene\tcell_type\tsample\tvalue"]
    for gi, g in enumerate(genes):
        for ci, c in enumerate(cts):
            for si, s in enumerate(samples):
                lines.append(f"{g}\t{c}\t{s}\t{float(values[gi, ci, si])!r}")
    path.write_text("\n".join(lines) + "\n")


def _unselected_row(out: Path) -> int:
    selected = checks.read_selection(out / "sel")
    lines = (out / "dec" / "cts_mean.tsv").read_text().split("\n")
    for i, ln in enumerate(lines[1:], start=1):
        g, c = ln.split("\t")[:2]
        if (g, c) not in selected:
            return i
    raise AssertionError("toy inputs left no unselected pair to corrupt")


def _set_value(lines: list[str], row: int, text: str) -> None:
    parts = lines[row].split("\t")
    parts[-1] = text
    lines[row] = "\t".join(parts)


def _roll_samples(out: Path) -> None:
    path = out / "dec" / "cts_mean.tsv"
    genes, cts, samples, mean = checks.read_tensor(path)
    _write_tensor(path, genes, cts, samples, mean[:, :, ::-1])


def _complete_rows(inputs: Path, out: Path) -> None:
    """Shift each probe attribution row so that IG completeness holds exactly."""
    samples, names, _, x, _ = checks.read_dataset(inputs / "probe" / "dataset.tsv")
    mlp = checks.Mlp(inputs / "probe" / "model" / "model.json")
    gap = mlp.logit(x) - mlp.logit(mlp.baseline(x))
    attr = checks.read_matrix(out / "attr" / "attributions.tsv")[2]
    attr[:, ~mlp.kept] = 0.0
    attr[:, 0] += gap - attr.sum(axis=1)
    lines = ["sample\t" + "\t".join(names)]
    lines += [s + "\t" + "\t".join(repr(float(v)) for v in row)
              for s, row in zip(samples, attr)]
    (out / "attr" / "attributions.tsv").write_text("\n".join(lines) + "\n")


def _bump_attribution(out: Path) -> None:
    def edit(lines):
        parts = lines[1].split("\t")
        parts[1] = repr(float(parts[1]) + 0.1)
        lines[1] = "\t".join(parts)
    _edit_lines(out / "attr" / "attributions.tsv", edit)


def deconv_cases(sim: Path):
    """(check name, check, corruption) for the deconvolution workloads."""
    def first_record(data):
        data.pop(0)

    def bump_unselected(out):
        row = _unselected_row(out)
        _edit_lines(out / "dec" / "cts_mean.tsv",
                    lambda ls: _set_value(ls, row, repr(float(ls[row].split("\t")[-1]) + 1e-6)))

    def lengthen_digits(lines):
        v = lines[1].split("\t")[-1]
        _set_value(lines, 1, v + "0" if "." in v and "e" not in v else v.replace("e", "0e"))

    return [
        ("selection", lambda o: checks.check_selection(sim, o / "sel"),
         lambda o: _edit_json(o / "sel" / "selection.json", first_record)),
        ("unselected_means", lambda o: checks.check_unselected_means(sim, o / "sel", o / "dec"),
         bump_unselected),
        ("variances", lambda o: checks.check_variances(o / "sel", o / "dec"),
         lambda o: _edit_lines(o / "dec" / "cts_variance.tsv",
                               lambda ls: _set_value(ls, 1, "-0.001"))),
        ("tensor_roundtrip", lambda o: checks.check_tensor_roundtrip(o / "dec"),
         lambda o: _edit_lines(o / "dec" / "cts_mean.tsv", lengthen_digits)),
        ("recovery", lambda o: checks.check_recovery(sim, o / "sel", o / "dec"),
         _roll_samples),
        ("eval", lambda o: checks.check_eval(sim, o / "dec", o / "eval"),
         lambda o: _edit_json(o / "eval" / "recovery.json",
                              lambda d: d.update(median_per_gene_overall=0.123))),
    ]


def classify_cases(inputs: Path):
    def flip_decision(d):
        d["decision"] = "nonAD" if d["decision"] == "AD" else "AD"

    def patient(o):
        return next(p for p in o.iterdir() if p.name.endswith("_patient"))

    def flip_prediction(data):
        row = data[0]["case_table"][0]
        row["mlp_pred"] = 1 - row["mlp_pred"]

    def count(o):
        incomplete, _, problems = checks.attribution_completeness(inputs, o)
        return problems or ([] if incomplete == 0 else [f"{incomplete} incomplete"])

    return [
        ("training", lambda o: checks.check_training(inputs, o),
         lambda o: _edit_json(o / "model" / "train_log.json", lambda d: d["log"].pop())),
        ("reports", lambda o: checks.check_reports(inputs, o),
         lambda o: _edit_json(o / "report_s000_clinician" / "report.json",
                              lambda d: d.update(source_probability=d["source_probability"] / 2))),
        ("reports", lambda o: checks.check_reports(inputs, o),
         lambda o: _edit_json(o / "report_s001_clinician" / "report.json", flip_decision)),
        ("patient_language", lambda o: checks.check_patient_language(o),
         lambda o: _edit_json(patient(o) / "report.json",
                              lambda d: d.update(rationale=d["rationale"] + " eQTL"))),
        ("divergence", lambda o: checks.check_divergence(inputs, o),
         lambda o: _edit_json(o / "div" / "divergence.json", flip_prediction)),
        ("divergence", lambda o: checks.check_divergence(inputs, o),
         lambda o: _edit_json(o / "div" / "divergence.json",
                              lambda d: d[0]["case_table"].pop())),
        ("attributions", lambda o: checks.attribution_completeness(inputs, o)[2],
         lambda o: _edit_lines(o / "attr" / "attributions.tsv", lambda ls: ls.pop(1))),
        ("completeness", count, _bump_attribution),
    ]


def main() -> int:
    root = Path.cwd()
    if not (root / "src" / "diagnokit" / "__init__.py").is_file():
        print("run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    listed = json.loads((root / "BENCHMARK.json").read_text())
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    for workload in workloads.WORKLOADS:
        args = argparse.Namespace(workload=workload, seed=7, seconds=0, trace=0)
        run = bench.Run(root, args, toy=True)
        try:
            metrics = bench.measure(run)["metrics"]
        finally:
            shutil.rmtree(run.dir, ignore_errors=True)
        bad = [m["name"] for m in listed["end_to_end"]
               if not metrics.get(m["name"], {}).get("value", 0) > 0
               or metrics[m["name"]]["unit"] != m["unit"]]
        expect(not bad, f"{workload}: untraced run reports every end-to-end metric "
                        f"above 0 with its unit {bad or ''}")

        args = argparse.Namespace(workload=workload, seed=7, seconds=0, trace=1)
        run = bench.Run(root, args, toy=True)
        try:
            record = bench.measure(run)
            expect(record["correct"], f"{workload}: toy run passes every check "
                                      f"{record['problems'] or ''}")
            absent = [m["name"] for m in listed["per_layer"]
                      if m["name"] not in record["metrics"]]
            expect(not absent, f"{workload}: trace reports every per-layer metric {absent or ''}")
            inputs, out = run.dir / "inputs", Path(record["pipeline"]["last_out"])
            if workload == "classify-explain":
                rounds = len(record["pipeline"]["rounds"])
                probe = workloads.TOY_SIZES[workload]["probe_samples"]
                cmds = len(record["pipeline"]["rounds"][0]["exit_codes"])
                expect(record["attempted"] == rounds * (cmds - 1 + probe)
                       and record["failed"] == rounds * record["ig_incomplete"],
                       f"{workload}: each probe attribution is one operation, failed "
                       f"when it misses completeness ({record['failed']} of "
                       f"{record['attempted']})")
                cases = classify_cases(inputs)
                clean = run.dir / "clean"
                shutil.copytree(out, clean)
                _complete_rows(inputs, clean)
                expect(not cases[-1][1](clean),
                       f"{workload}: completeness accepts attributions that sum to the gap")
                out = clean
            else:
                cases = deconv_cases(inputs / "sim")
            for name, check, corrupt in cases:
                copy = run.dir / "corrupt"
                shutil.copytree(out, copy)
                corrupt(copy)
                problems = check(copy)
                expect(bool(problems), f"{workload}: {name} rejects a corrupted output "
                                       f"({problems[0] if problems else 'accepted it'})")
                shutil.rmtree(copy)
            copy = run.dir / "other_round"
            shutil.copytree(out, copy)
            first = next(p for p in sorted(copy.rglob("*")) if p.is_file()
                         and p.name != "manifest.json")
            first.write_bytes(first.read_bytes() + b"\n")
            expect(_digests(copy) != _digests(out),
                   f"{workload}: rounds_identical tells changed outputs apart")
        finally:
            shutil.rmtree(run.dir, ignore_errors=True)
    import diagnokit.engine as engine
    import tracer

    hook = engine.resolve_backend
    del engine.resolve_backend
    try:
        probe = tracer.Tracer()
        tracer.install(probe)
        kernel_metrics = [k for k in probe.metrics() if k.startswith("kernels.")]
        expect(tracer.KERNEL_HOOK in probe.missing and not kernel_metrics,
               "a missing kernel hook is reported as missing, its metrics left out")
    finally:
        engine.resolve_backend = hook
    print(f"{len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
