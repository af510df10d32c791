"""Diagnostic report generation: prompts, offline rendering, and an LLM client.

Three prompting strategies (direct, step-by-step, step-by-step with domain
knowledge) all end with a machine-parseable ``DECISION: <AD|nonAD>`` stanza.
A deterministic offline renderer produces audience-specific reports without
network access; the HTTP client path parses completions, retries once on a
malformed reply, and falls back to the offline renderer rather than raising.
"""
from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ValidationError

AUDIENCES = ("clinician", "patient")
STRATEGIES = ("direct", "step", "step-domain")
LABELS = ("AD", "nonAD")
DECISION_THRESHOLD = 0.5  # probability >= threshold reads as AD

ENV_URL = "DIAGNO_LLM_URL"
ENV_KEY = "DIAGNO_LLM_KEY"
DEFAULT_MODEL = "gpt-4o-mini"
DEFAULT_TIMEOUT = 30.0

# Technical terms that must not leak into patient-audience narratives.
# Matched case-sensitively on word boundaries: these are jargon tokens, and
# case-folding would misfire inside ordinary words and clinical proper nouns.
PATIENT_BLOCKLIST = (
    "eQTL", "logit", "BETA", "PVAL", "p-value", "attribution",
    "LDL", "homocysteine", "posterior", "covariate", "biomarker",
    "standard error", "effect size",
)

# Plain-language glosses for feature-name prefixes used by build_features.
_PATIENT_PREFIX_GLOSS = {
    "cts:": "the activity level of gene",
    "beta:": "the genetic signal strength for gene",
    "se:": "how uncertain the genetic signal is for gene",
    "pval:": "how surprising the genetic signal is for gene",
    "cov:": "your recorded detail",
}


@dataclass(frozen=True)
class FeatureReading:
    """One attributed feature shown to the report generator."""

    name: str
    value: float
    attribution: float
    reference_range: tuple[float, float, str] | None = None  # (low, high, unit)

    def __post_init__(self):
        if not self.name:
            raise ValidationError("feature name must be non-empty")
        if self.reference_range is not None:
            low, high, _unit = self.reference_range
            if not low < high:
                raise ValidationError(
                    f"reference range for {self.name!r} must satisfy low < high")


@dataclass(frozen=True)
class PromptInput:
    """Everything the prompt builder and renderers consume."""

    predicted_label: str
    probability: float
    top_features: tuple[FeatureReading, ...]
    audience: str
    strategy: str = "direct"
    domain_knowledge: dict[str, str] = field(default_factory=dict)
    population_stats: dict[str, tuple[float, float, float]] | None = None
    # per feature name: (mean in AD group, mean in non-AD group, sd)

    def __post_init__(self):
        if self.predicted_label not in LABELS:
            raise ValidationError(f"predicted_label must be one of {LABELS}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValidationError("probability must lie in [0, 1]")
        if not self.top_features:
            raise ValidationError("top_features must be non-empty")
        object.__setattr__(self, "top_features", tuple(self.top_features))
        if self.audience not in AUDIENCES:
            raise ValidationError(f"audience must be one of {AUDIENCES}")
        if self.strategy not in STRATEGIES:
            raise ValidationError(f"strategy must be one of {STRATEGIES}")


@dataclass(frozen=True)
class DiagnosticReport:
    """Structured output: decision, grounded rationale, next steps."""

    decision: str
    rationale: str
    recommendations: tuple[str, ...]
    audience: str
    source_probability: float
    generator: str  # "llm" or "offline"
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        if self.decision not in LABELS:
            raise ValidationError(f"decision must be one of {LABELS}")
        if not self.recommendations:
            raise ValidationError("recommendations must be non-empty")
        object.__setattr__(self, "recommendations", tuple(self.recommendations))
        object.__setattr__(self, "warnings", tuple(self.warnings))
        if self.audience not in AUDIENCES:
            raise ValidationError(f"audience must be one of {AUDIENCES}")
        if not 0.0 <= self.source_probability <= 1.0:
            raise ValidationError("source_probability must lie in [0, 1]")
        if self.generator not in ("llm", "offline"):
            raise ValidationError("generator must be 'llm' or 'offline'")


def _feature_line(f: FeatureReading) -> str:
    line = f"- {f.name}: value {f.value:.5g}, attribution {f.attribution:+.5g}"
    if f.reference_range is not None:
        low, high, unit = f.reference_range
        line += f" (reference {low:g}-{high:g} {unit})".rstrip()
    return line


def _population_section(inp: PromptInput) -> str:
    lines = ["Section 1 - population context:"]
    for f in inp.top_features:
        stats = inp.population_stats.get(f.name)
        if stats is None:
            raise ValidationError(f"population_stats missing feature {f.name!r}")
        mean_ad, mean_non, sd = stats
        lines.append(f"- {f.name}: AD group mean {mean_ad:.5g}, "
                     f"non-AD group mean {mean_non:.5g}, sd {sd:.5g}")
    return "\n".join(lines)


def build_prompt(inp: PromptInput) -> str:
    """Byte-deterministic prompt text for the selected strategy."""
    header = [
        "You are assisting with an Alzheimer's disease (AD) risk assessment.",
        f"Model predicted label: {inp.predicted_label} "
        f"(probability of AD: {inp.probability:.4f}).",
        f"Audience for the final report: {inp.audience}.",
        "",
        "Case features (most influential first):",
    ]
    feature_lines = [_feature_line(f) for f in inp.top_features]
    parts = ["\n".join(header + feature_lines)]

    if inp.strategy in ("step", "step-domain"):
        if inp.population_stats is None:
            raise ValidationError("step strategies require population_stats")
        parts.append(_population_section(inp))
        compare = ["Section 2 - case comparison:",
                   "Compare each case feature against the group means above and "
                   "state which group the value is closer to."]
        parts.append("\n".join(compare))
        if inp.strategy == "step-domain":
            if not inp.domain_knowledge:
                raise ValidationError("step-domain strategy requires domain_knowledge")
            dk = ["Domain knowledge:"]
            for key in sorted(inp.domain_knowledge):
                dk.append(f"- {key}: {inp.domain_knowledge[key]}")
            parts.append("\n".join(dk))
        parts.append("Section 3 - decision request:")

    footer = [
        "Write a short rationale that references the features by name, then a",
        "list of next-step recommendations, and finish with exactly one line of",
        "the form:",
        "DECISION: <AD|nonAD>",
    ]
    parts.append("\n".join(footer))
    return "\n\n".join(parts)


def _direction(attribution: float) -> str:
    return "pushed the assessment toward AD" if attribution >= 0 else \
        "pushed the assessment away from AD"


def _patient_gloss(name: str) -> tuple[str, bool]:
    """Plain-language phrase for a feature name; flag when unmapped."""
    for prefix, gloss in _PATIENT_PREFIX_GLOSS.items():
        if name.startswith(prefix):
            rest = name[len(prefix):].split("|")[0]
            return f"{gloss} {rest}", True
    return name, False


def _is_lipid(f: FeatureReading) -> bool:
    lowered = f.name.lower()
    return any(tok in lowered for tok in ("apoe", "lipid", "ldl", "cholesterol"))


def _recommendations(inp: PromptInput, decision: str) -> list[str]:
    recs: list[str] = []
    if decision == "AD":
        if any(_is_lipid(f) for f in inp.top_features):
            recs.append("Discuss lipid management with the care team.")
        recs.append("Schedule a follow-up visit to confirm the assessment "
                    "with clinical testing.")
    else:
        recs.append("Continue routine monitoring and repeat the assessment "
                    "at the next scheduled visit.")
        recs.append("Report any new memory or thinking concerns promptly.")
    return recs


def render_offline(inp: PromptInput) -> DiagnosticReport:
    """Deterministic audience-specific report; decision is AD iff p >= 0.5."""
    decision = "AD" if inp.probability >= DECISION_THRESHOLD else "nonAD"
    warnings: list[str] = []

    if inp.audience == "clinician":
        lines = [f"Model probability of AD: {inp.probability:.4f}; "
                 f"decision {decision}.",
                 "Differential-risk drivers by attribution magnitude:"]
        for f in inp.top_features:
            lines.append(f"- {f.name} (value {f.value:.5g}) {_direction(f.attribution)} "
                         f"(attribution {f.attribution:+.5g}).")
        rationale = "\n".join(lines)
    else:
        chance = "likely" if decision == "AD" else "unlikely"
        lines = [f"Based on this assessment, Alzheimer's disease is {chance} "
                 f"(score {inp.probability:.2f} out of 1).",
                 "The main reasons, in plain terms:"]
        for f in inp.top_features:
            gloss, mapped = _patient_gloss(f.name)
            if not mapped:
                warnings.append(f"no plain-language mapping for feature {f.name!r}")
            direction = ("made Alzheimer's look more likely"
                         if f.attribution >= 0 else
                         "made Alzheimer's look less likely")
            lines.append(f"- {gloss} ({f.name}) {direction}.")
        rationale = "\n".join(lines)

    return DiagnosticReport(decision=decision, rationale=rationale,
                            recommendations=tuple(_recommendations(inp, decision)),
                            audience=inp.audience,
                            source_probability=inp.probability,
                            generator="offline", warnings=tuple(warnings))


_DECISION_RE = re.compile(r"^\s*DECISION:\s*(\S+)\s*$", re.MULTILINE)


def parse_llm_decision(completion: str) -> str | None:
    """Last DECISION: stanza wins; token match is case-insensitive."""
    matches = _DECISION_RE.findall(completion)
    if not matches:
        return None
    token = matches[-1].lower()
    if token == "ad":
        return "AD"
    if token == "nonad":
        return "nonAD"
    return None


class _Response:
    def __init__(self, body: bytes):
        self._body = body

    def raise_for_status(self) -> None:
        """Nothing to check: ``urlopen`` raises ``HTTPError`` on a 4xx/5xx reply."""

    def json(self):
        return json.loads(self._body)


def _encode_json(obj) -> bytes:
    # ``post`` keeps requests' ``json=`` keyword, which shadows the module there
    return json.dumps(obj).encode("utf-8")


class _UrllibSession:
    """The one ``requests``-style call LlmClient makes, on ``urllib.request``."""

    def post(self, url: str, json=None, headers=None, timeout=None) -> _Response:
        import urllib.request  # with http.client, email and ssl: only LLM calls pay for it
        req = urllib.request.Request(url, data=_encode_json(json), headers=headers or {},
                                     method="POST")
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return _Response(resp.read())


class LlmClient:
    """Minimal chat-completion client. Stateless; safe for concurrent use."""

    def __init__(self, url: str, api_key: str, model: str = DEFAULT_MODEL,
                 timeout: float = DEFAULT_TIMEOUT, session=None):
        if not url:
            raise ValidationError("LLM client requires a URL")
        self.url = url
        self.api_key = api_key
        self.model = model
        self.timeout = timeout
        self._session = session or _UrllibSession()

    @classmethod
    def from_env(cls, model: str = DEFAULT_MODEL) -> "LlmClient":
        url = os.environ.get(ENV_URL, "")
        if not url:
            raise ValidationError(f"{ENV_URL} is not set")
        return cls(url=url, api_key=os.environ.get(ENV_KEY, ""), model=model)

    def complete(self, prompt: str) -> str:
        payload = {"model": self.model,
                   "messages": [{"role": "user", "content": prompt}],
                   "temperature": 0}
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        resp = self._session.post(self.url, json=payload, headers=headers,
                                  timeout=self.timeout)
        resp.raise_for_status()
        body = resp.json()
        try:
            return body["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise ValidationError(f"malformed completion payload: {exc}") from exc


_RETRY_REMINDER = (
    "\n\nYour previous reply could not be parsed. Respond again and finish "
    "with exactly one line of the form 'DECISION: AD' or 'DECISION: nonAD'.")


def _report_from_completion(inp: PromptInput, completion: str) -> DiagnosticReport | None:
    decision = parse_llm_decision(completion)
    if decision is None:
        return None
    body = _DECISION_RE.sub("", completion).strip()
    recs = [line.lstrip("-* ").strip() for line in body.splitlines()
            if line.lstrip().startswith(("-", "*"))]
    names = [f.name for f in inp.top_features]
    if not any(name in body for name in names):
        return None
    if not recs:
        return None
    return DiagnosticReport(decision=decision, rationale=body,
                            recommendations=tuple(recs), audience=inp.audience,
                            source_probability=inp.probability, generator="llm")


def generate_report(inp: PromptInput, client: LlmClient | None = None) -> DiagnosticReport:
    """LLM-backed report with retry-once-then-offline fallback; never raises
    on transport or parse failures."""
    if client is None:
        return render_offline(inp)
    prompt = build_prompt(inp)
    warnings: list[str] = []
    for attempt, text in enumerate((prompt, prompt + _RETRY_REMINDER)):
        try:
            completion = client.complete(text)
        except Exception as exc:  # transport errors included by contract
            warnings.append(f"attempt {attempt + 1}: transport failure: {exc}")
            continue
        report = _report_from_completion(inp, completion)
        if report is not None:
            return report
        warnings.append(f"attempt {attempt + 1}: unparseable completion")
    offline = render_offline(inp)
    return DiagnosticReport(decision=offline.decision, rationale=offline.rationale,
                            recommendations=offline.recommendations,
                            audience=offline.audience,
                            source_probability=offline.source_probability,
                            generator="offline",
                            warnings=offline.warnings + tuple(warnings))


def report_to_json(report: DiagnosticReport) -> dict:
    return {"decision": report.decision, "rationale": report.rationale,
            "recommendations": list(report.recommendations),
            "audience": report.audience,
            "source_probability": report.source_probability,
            "generator": report.generator, "warnings": list(report.warnings)}


def report_from_json(payload: dict) -> DiagnosticReport:
    return DiagnosticReport(decision=payload["decision"],
                            rationale=payload["rationale"],
                            recommendations=tuple(payload["recommendations"]),
                            audience=payload["audience"],
                            source_probability=float(payload["source_probability"]),
                            generator=payload["generator"],
                            warnings=tuple(payload.get("warnings", ())))


def render_markdown(report: DiagnosticReport) -> str:
    lines = [f"# Diagnostic report ({report.audience})",
             "",
             f"**Decision:** {report.decision}  ",
             f"**Probability of AD:** {report.source_probability:.4f}  ",
             f"**Generated by:** {report.generator}",
             "",
             "## Rationale", "", report.rationale, "",
             "## Recommendations", ""]
    lines += [f"- {r}" for r in report.recommendations]
    if report.warnings:
        lines += ["", "## Warnings", ""] + [f"- {w}" for w in report.warnings]
    return "\n".join(lines) + "\n"


def load_knowledge(path: str | Path) -> dict[str, str]:
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict) or not all(isinstance(v, str) for v in raw.values()):
        raise ValidationError("knowledge file must be a JSON object of key -> snippet")
    return raw
