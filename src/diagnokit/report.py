"""Diagnostic report generation: prompts, offline rendering, and an LLM client.

``prompt_input`` builds every prompt's input from one model row. Three
prompting strategies (direct, step-by-step, step-by-step with domain
knowledge) all end with a machine-parseable ``DECISION: <AD|nonAD>`` stanza;
``PromptInput`` refuses an input its strategy cannot be built from, on the
offline path too. A deterministic offline renderer produces audience-specific
reports without network access; the HTTP client path parses completions,
retries once on a malformed reply, and falls back to the offline renderer
rather than raising. No patient report holds a ``PATIENT_BLOCKLIST`` term:
the patient prompt and the renderer show a feature whose name holds one by
a plain description instead, and a completion holding one is malformed. A
completion must refer to a feature as its prompt showed it.
"""
from __future__ import annotations

import json
import os
import re
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .classifier import MlpModel, forward, integrated_gradients, top_k_features
from .errors import ValidationError
from .io import load_json

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
_BLOCKED = re.compile("|".join(rf"(?<!\w){re.escape(t)}(?!\w)" for t in PATIENT_BLOCKLIST))

# Plain-language glosses for feature-name prefixes used by build_features.
_PATIENT_PREFIX_GLOSS = {
    "cts:": "the activity level of gene",
    "beta:": "the genetic signal strength for gene",
    "se:": "how uncertain the genetic signal is for gene",
    "pval:": "how surprising the genetic signal is for gene",
    "cov:": "your recorded detail",
}
# how a patient prompt and report show a feature whose name holds a blocked term
_UNNAMED = "a measurement with a technical name"


@dataclass(frozen=True)
class FeatureReading:
    """One attributed feature shown to the report generator."""

    name: str
    value: float
    attribution: float

    def __post_init__(self):
        if not self.name:
            raise ValidationError("feature name must be non-empty")


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
        if self.strategy != "direct":
            if self.population_stats is None:
                raise ValidationError("step strategies require population_stats")
            missing = [f.name for f in self.top_features if f.name not in self.population_stats]
            if missing:
                raise ValidationError(f"population_stats missing feature {missing[0]!r}")
        if self.strategy == "step-domain" and not self.domain_knowledge:
            raise ValidationError("step-domain strategy requires domain_knowledge")


def prompt_input(model: MlpModel, x: np.ndarray, names, audience: str,
                 strategy: str = "direct", k: int = 5,
                 domain_knowledge: dict[str, str] | None = None,
                 population_stats: dict[str, tuple[float, float, float]] | None = None
                 ) -> PromptInput:
    """The prompt input for one raw sample row: the model's probability,
    labelled at ``DECISION_THRESHOLD``, and the row's top ``k`` features by
    Integrated Gradients attribution (``k`` clipped to the feature count)."""
    prob = forward(model, x)
    top = top_k_features(integrated_gradients(model, x), names, x, k=min(k, len(names)))
    return PromptInput(
        predicted_label="AD" if prob >= DECISION_THRESHOLD else "nonAD", probability=prob,
        top_features=tuple(FeatureReading(name=n, value=v, attribution=a) for n, v, a in top),
        audience=audience, strategy=strategy, domain_knowledge=domain_knowledge or {},
        population_stats=population_stats)


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


def _shown(inp: PromptInput, f: FeatureReading) -> str:
    """A feature as the prompt shows it: by name, but in a patient prompt by
    ``_UNNAMED`` when its name holds a ``PATIENT_BLOCKLIST`` term."""
    return _UNNAMED if inp.audience == "patient" and _BLOCKED.search(f.name) else f.name


def _population_section(inp: PromptInput) -> str:
    lines = ["Section 1 - population context:"]
    for f in inp.top_features:
        mean_ad, mean_non, sd = inp.population_stats[f.name]
        lines.append(f"- {_shown(inp, f)}: AD group mean {mean_ad:.5g}, "
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
    feature_lines = [f"- {_shown(inp, f)}: value {f.value:.5g}, "
                     f"attribution {f.attribution:+.5g}" for f in inp.top_features]
    parts = ["\n".join(header + feature_lines)]

    if inp.strategy in ("step", "step-domain"):
        parts.append(_population_section(inp))
        compare = ["Section 2 - case comparison:",
                   "Compare each case feature against the group means above and "
                   "state which group the value is closer to."]
        parts.append("\n".join(compare))
        if inp.strategy == "step-domain":
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
            shown = f"{gloss} ({f.name})"
            if _BLOCKED.search(f.name):  # jargon in the name: describe it unnamed
                shown = _UNNAMED
            elif not mapped:
                warnings.append(f"no plain-language mapping for feature {f.name!r}")
            direction = ("made Alzheimer's look more likely"
                         if f.attribution >= 0 else
                         "made Alzheimer's look less likely")
            lines.append(f"- {shown} {direction}.")
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


def _post_json(url: str, payload: dict, headers: dict, timeout: float) -> dict:
    """POST ``payload`` as JSON, return the decoded reply; HTTPError on 4xx/5xx."""
    import urllib.request  # with http.client, email and ssl: only LLM calls pay for it
    req = urllib.request.Request(url, data=json.dumps(payload).encode("utf-8"),
                                 headers=headers, method="POST")
    with urllib.request.urlopen(req, timeout=timeout) as resp:
        return json.loads(resp.read())


class LlmClient:
    """Minimal chat-completion client. Stateless; safe for concurrent use."""

    def __init__(self, url: str, api_key: str, model: str = DEFAULT_MODEL,
                 timeout: float = DEFAULT_TIMEOUT, post=_post_json):
        if not url:
            raise ValidationError("LLM client requires a URL")
        self.url = url
        self.api_key = api_key
        self.model = model
        self.timeout = timeout
        self._post = post

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
        body = self._post(self.url, payload, headers, self.timeout)
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
    if not any(_shown(inp, f) in body for f in inp.top_features):
        return None
    if not recs or (inp.audience == "patient" and _BLOCKED.search(body)):
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
    return replace(offline, warnings=offline.warnings + tuple(warnings))


def report_to_json(report: DiagnosticReport) -> dict:
    return asdict(report)


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
    raw = load_json(path)
    if not isinstance(raw, dict) or not all(isinstance(v, str) for v in raw.values()):
        raise ValidationError("knowledge file must be a JSON object of key -> snippet")
    return raw
