"""Child process of one benchmark run: whole rounds of the workload.

Usage: ``python3 perfbench/worker.py SPEC.json``. The spec names the
workload, whether to trace, and the directories. The worker imports
``diagnokit`` from ``src/`` of the current directory, then serves one
operation per JSON line on standard input and answers each with one JSON line
on standard output:

- ``ready``: answer once the imports are done;
- ``round``: run the workload's commands once through ``diagnokit.cli.main``;
- ``finish``: report peak memory and, for a traced worker, its spans.

Anything the program prints goes to standard error, so it cannot corrupt the
answers.
"""
from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402


def _digests(out: Path) -> dict[str, str]:
    """SHA-256 of every data file of a round; manifests carry timestamps."""
    return {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file() and p.name != "manifest.json"}


class Pipeline:
    """Runs whole rounds of the workload, traced or not."""

    def __init__(self, spec: dict):
        import diagnokit.cli

        self.spec = spec
        self.main = diagnokit.cli.main
        self.tracer = None
        if spec["trace"]:
            import tracer as tracing

            self.tracer = tracing.Tracer()
            tracing.install(self.tracer)
            self.main = self.tracer.wrap("cli.main", self.main)
        self.rounds = 0
        self.first_digests = None
        self.identical = True
        self.spans = None

    def ready(self) -> dict:
        return {}

    def out(self, k: int) -> Path:
        return Path(self.spec["run_dir"]) / f"round_{k}"

    def round(self) -> dict:
        spec, out = self.spec, self.out(self.rounds)
        cmds = workloads.commands(spec["workload"], Path(spec["inputs"]), out,
                                  spec["threads"])
        start = time.perf_counter()
        codes = [self.main(argv) for argv in cmds]
        result = {"pipeline_s": time.perf_counter() - start, "exit_codes": codes}
        digests = _digests(out)
        if self.first_digests is None:
            self.first_digests = digests
        self.identical &= digests == self.first_digests
        if self.tracer is not None:
            result["layers"] = self.tracer.metrics()
            if self.spans is None:
                self.spans = [list(s) for s in self.tracer.spans]
            self.tracer.reset()
        if self.rounds:
            shutil.rmtree(self.out(self.rounds - 1))
        self.rounds += 1
        return result

    def finish(self) -> dict:
        result = {
            "last_out": str(self.out(self.rounds - 1)),
            "rounds_identical": self.identical,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        if self.tracer is not None:
            result["missing"] = self.tracer.missing
            result["spans"] = self.spans
        return result


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    answers = os.fdopen(os.dup(1), "w", buffering=1)
    os.dup2(2, 1)
    import diagnokit

    src = Path(spec["src"]).resolve()
    if src not in Path(diagnokit.__file__).resolve().parents:
        print(f"diagnokit imported from {diagnokit.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    server = Pipeline(spec)
    for line in sys.stdin:
        op = json.loads(line)["op"]
        answers.write(json.dumps(getattr(server, op)()) + "\n")
        if op == "finish":
            break
    return 0


if __name__ == "__main__":
    sys.exit(main())
