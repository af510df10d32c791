"""Prompt construction invariants, offline rendering, and LLM fallback paths."""
from __future__ import annotations

import json
import re
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diagnokit.classifier import (HIDDEN1, HIDDEN2, MlpModel, forward, integrated_gradients,
                                  top_k_features)
from diagnokit.errors import ValidationError
from diagnokit.report import (AUDIENCES, PATIENT_BLOCKLIST, STRATEGIES,
                              DiagnosticReport, FeatureReading, LlmClient,
                              PromptInput, build_prompt, generate_report,
                              load_knowledge, parse_llm_decision, prompt_input,
                              render_markdown, render_offline, report_to_json)

from oracles import report_from_json

SAFE_NAMES = ("cts:GENE1|typeA", "beta:GENE1", "se:GENE1", "pval:GENE1",
              "cov:age", "cov:smoking", "cts:GENE2|typeB", "beta:GENE2")


def _reading(name="cts:GENE1|typeA", value=1.0, attribution=0.5):
    return FeatureReading(name=name, value=value, attribution=attribution)


def _input(probability=0.7, audience="clinician", strategy="direct",
           features=None, stats=None, knowledge=None):
    feats = features or (_reading(),)
    return PromptInput(
        predicted_label="AD" if probability >= 0.5 else "nonAD",
        probability=probability, top_features=tuple(feats), audience=audience,
        strategy=strategy, domain_knowledge=knowledge or {},
        population_stats=stats)


def _stats(feats):
    return {f.name: (1.0, 0.0, 0.5) for f in feats}


def _client(completions):
    """A client whose transport records requests and replays scripted
    completions in order."""
    completions = list(completions)
    requests = []

    def post(url, payload, headers, timeout):
        requests.append({"url": url, "json": payload, "headers": headers})
        if isinstance(completions[0], Exception):
            raise completions.pop(0)
        return {"choices": [{"message": {"content": completions.pop(0)}}]}

    return LlmClient(url="http://example.test/v1", api_key="k", post=post), requests


@st.composite
def prompt_inputs(draw):
    """A complete prompt input: population stats for every top feature and a
    knowledge snippet, whatever the strategy."""
    features = draw(st.lists(
        st.builds(_reading,
                  name=st.sampled_from(SAFE_NAMES),
                  value=st.floats(-10, 10, allow_nan=False),
                  attribution=st.floats(-5, 5, allow_nan=False)),
        min_size=1, max_size=5, unique_by=lambda f: f.name).map(tuple))
    return _input(probability=draw(st.floats(min_value=0.0, max_value=1.0)),
                  audience=draw(st.sampled_from(AUDIENCES)),
                  strategy=draw(st.sampled_from(STRATEGIES)), features=features,
                  stats=_stats(features), knowledge={"k": "snippet"})


def _blocklisted(text):
    """The terms of ``PATIENT_BLOCKLIST`` in ``text``, each matched case-sensitively
    between non-word characters."""
    return [t for t in PATIENT_BLOCKLIST
            if re.search(r"(?<!\w)" + re.escape(t) + r"(?!\w)", text)]


@settings(max_examples=500, deadline=None)
@given(inp=prompt_inputs())
def test_prompt_and_offline_invariants(inp):
    prompt = build_prompt(inp)
    # every feature named; decision stanza present exactly once at the end
    for f in inp.top_features:
        assert f.name in prompt
    assert prompt.rstrip().endswith("DECISION: <AD|nonAD>")
    assert f"{inp.probability:.4f}" in prompt

    report = render_offline(inp)
    assert report.decision == ("AD" if inp.probability >= 0.5 else "nonAD")
    assert report.generator == "offline"
    assert report.recommendations
    assert report.source_probability == inp.probability
    if inp.audience == "patient":
        for term in PATIENT_BLOCKLIST:
            assert not re.search(rf"\b{re.escape(term)}\b", report.rationale), term


class TestBuildPrompt:
    def test_direct_has_no_population_section(self):
        feats = tuple(_reading(name=n) for n in SAFE_NAMES[:3])
        prompt = build_prompt(_input(features=feats))
        assert prompt.count("- ") >= 3
        assert "population context" not in prompt

    # an input that build_prompt could not complete is refused when it is built
    def test_step_requires_population_stats(self):
        with pytest.raises(ValidationError, match="step strategies require population_stats"):
            _input(strategy="step")

    def test_step_domain_requires_knowledge(self):
        feats = (_reading(),)
        with pytest.raises(ValidationError, match="step-domain strategy requires domain_knowledge"):
            _input(strategy="step-domain", features=feats, stats=_stats(feats))

    def test_step_domain_contains_snippet_and_population(self):
        feats = (_reading(),)
        snippet = "APOE e4 carriers show elevated lipid-pathway involvement."
        step = build_prompt(_input(strategy="step", features=feats,
                                   stats=_stats(feats)))
        domain = build_prompt(_input(strategy="step-domain", features=feats,
                                     stats=_stats(feats),
                                     knowledge={"apoe": snippet}))
        assert snippet in domain
        assert "Section 1 - population context:" in step
        assert "Section 1 - population context:" in domain
        assert len(domain) > len(step)

    def test_byte_deterministic(self):
        feats = tuple(_reading(name=n, value=i * 0.1, attribution=-i * 0.2)
                      for i, n in enumerate(SAFE_NAMES[:4]))
        inp = _input(strategy="step-domain", features=feats, stats=_stats(feats),
                     knowledge={"b": "two", "a": "one"})
        assert build_prompt(inp) == build_prompt(inp)


class TestPromptInputValidation:
    def test_bad_probability(self):
        with pytest.raises(ValidationError):
            _input(probability=1.5)

    def test_empty_features(self):
        with pytest.raises(ValidationError, match="top_features"):
            PromptInput(predicted_label="AD", probability=0.5, top_features=(),
                        audience="clinician")

    def test_bad_audience_and_strategy(self):
        with pytest.raises(ValidationError):
            _input(audience="lawyer")
        with pytest.raises(ValidationError):
            _input(strategy="zero-shot-cot")

    def test_step_domain_requires_population_stats(self):
        with pytest.raises(ValidationError, match="step strategies require population_stats"):
            _input(strategy="step-domain", knowledge={"k": "snippet"})

    def test_step_requires_stats_of_every_top_feature(self):
        feats = (_reading(), _reading(name="cov:age"))
        with pytest.raises(ValidationError, match="population_stats missing feature 'cov:age'"):
            _input(strategy="step", features=feats, stats=_stats(feats[:1]))


class TestDecisionParsing:
    def test_simple(self):
        assert parse_llm_decision("rationale\nDECISION: AD\n") == "AD"
        assert parse_llm_decision("DECISION: nonAD") == "nonAD"

    def test_last_stanza_wins_case_insensitive(self):
        text = "DECISION: AD\nmore text\n  DECISION: nonad  \n"
        assert parse_llm_decision(text) == "nonAD"

    def test_garbage_returns_none(self):
        assert parse_llm_decision("no stanza here") is None
        assert parse_llm_decision("DECISION: maybe") is None
        assert parse_llm_decision("DECISION: AD because reasons") is None


class TestDecisionThreshold:
    def test_flips_exactly_at_half(self):
        import numpy as np
        at = render_offline(_input(probability=0.5))
        below = render_offline(_input(probability=float(np.nextafter(0.5, 0.0))))
        assert at.decision == "AD"
        assert below.decision == "nonAD"


class TestPromptInputFromModel:
    """prompt_input: one model row to the prompt input shared by report and diverge."""

    NAMES = ("cts:GENE1|typeA", "beta:GENE1", "se:GENE1", "cov:age")

    def _model(self, seed=None):
        shapes = {"w1": (HIDDEN1, 4), "b1": (HIDDEN1,), "w2": (HIDDEN2, HIDDEN1),
                  "b2": (HIDDEN2,), "w3": (1, HIDDEN2), "b3": (1,)}
        rng = None if seed is None else np.random.default_rng(seed)
        weights = {k: np.zeros(s) if rng is None else rng.standard_normal(s)
                   for k, s in shapes.items()}
        return MlpModel(**weights, mean=np.zeros(4), sd=np.ones(4),
                        kept=np.ones(4, dtype=bool), feature_names=self.NAMES,
                        feature_tags=("cts", "eqtl_beta", "eqtl_se", "covariate"))

    def test_zero_model_sits_on_the_threshold_and_reads_ad(self):
        inp = prompt_input(self._model(), np.array([1.0, -0.5, 0.1, 70.0]), self.NAMES,
                           "patient")
        assert inp.probability == 0.5
        assert inp.predicted_label == "AD"
        assert (inp.audience, inp.strategy, inp.domain_knowledge) == ("patient", "direct", {})

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("k", [1, 3, 4, 9])
    def test_top_features_are_the_integrated_gradients_top_k(self, seed, k):
        model = self._model(seed)
        x = np.random.default_rng(100 + seed).normal(0.0, 2.0, 4)
        inp = prompt_input(model, x, self.NAMES, "clinician", k=k)
        want = top_k_features(integrated_gradients(model, x), self.NAMES, x, k=min(k, 4))
        assert len(inp.top_features) == min(k, 4)  # k above the feature count is clipped
        assert [(f.name, f.value, f.attribution) for f in inp.top_features] == want
        assert inp.probability == forward(model, x)
        assert inp.predicted_label == ("AD" if inp.probability >= 0.5 else "nonAD")


class TestPatientFixtures:
    def test_patient_a_high_probability_lipid_feature(self):
        # p = 0.83 with an APOE lipid-pathway driver: AD decision and an
        # explicit lipid-management recommendation
        feats = (_reading(name="cts:APOE|microglia", value=2.1, attribution=1.3),
                 _reading(name="cov:age", value=74.0, attribution=0.2))
        report = render_offline(_input(probability=0.83, audience="patient",
                                       features=feats))
        assert report.decision == "AD"
        assert any("lipid management" in r for r in report.recommendations)
        assert "likely" in report.rationale
        assert "(cts:APOE|microglia)" in report.rationale  # name kept verbatim
        assert report.warnings == ()

    def test_patient_b_low_probability_monitoring(self):
        feats = (_reading(name="beta:CLU", value=0.02, attribution=-0.4),)
        report = render_offline(_input(probability=0.10, audience="patient",
                                       features=feats))
        assert report.decision == "nonAD"
        assert any("monitoring" in r for r in report.recommendations)
        assert "unlikely" in report.rationale

    @pytest.mark.parametrize("i,term", list(enumerate(PATIENT_BLOCKLIST)))
    def test_feature_named_with_a_blocklisted_term_is_described_unnamed(self, i, term):
        # each prefix in turn, and no prefix, so that unmapped names are covered
        prefix = ("cts:", "beta:", "se:", "pval:", "cov:", "")[i % 6]
        name = prefix + term + ("|neuron" if prefix == "cts:" else "")
        feats = (_reading(name=name, attribution=0.8), _reading(name="cov:age"))
        report = render_offline(_input(probability=0.9, audience="patient",
                                       features=feats))
        text = "\n".join([report.rationale, *report.warnings, render_markdown(report)])
        assert _blocklisted(text) == []
        assert "- a measurement with a technical name made Alzheimer's look more likely." \
            in report.rationale
        assert "(cov:age)" in report.rationale

    def test_unmapped_feature_warns(self):
        feats = (_reading(name="cov:age", value=70.0, attribution=0.1),
                 _reading(name="mystery_feature", value=1.0, attribution=0.9))
        report = render_offline(_input(probability=0.9, audience="patient",
                                       features=feats))
        assert any("mystery_feature" in w for w in report.warnings)


class TestGenerateReport:
    def _good_completion(self, name="cts:GENE1|typeA"):
        return (f"The feature {name} drove the call.\n"
                "- Order confirmatory imaging.\n"
                "- Review medications.\n"
                "DECISION: AD\n")

    def test_no_client_uses_offline(self):
        inp = _input()
        assert generate_report(inp) == render_offline(inp)

    def test_well_formed_completion_accepted(self):
        client, requests = _client([self._good_completion()])
        report = generate_report(_input(), client)
        assert report.generator == "llm"
        assert report.decision == "AD"
        assert report.recommendations == ("Order confirmatory imaging.",
                                          "Review medications.")
        assert len(requests) == 1
        assert requests[0]["json"]["temperature"] == 0
        assert requests[0]["headers"]["Authorization"] == "Bearer k"

    def test_missing_feature_name_triggers_retry(self):
        bad = "- Do a thing.\nDECISION: AD\n"  # no feature mentioned
        client, requests = _client([bad, self._good_completion()])
        report = generate_report(_input(), client)
        assert report.generator == "llm"
        assert len(requests) == 2
        assert "could not be parsed" in requests[1]["json"][
            "messages"][0]["content"]

    def test_patient_completion_with_a_blocklisted_term_triggers_retry(self):
        jargon = self._good_completion().replace("drove the call", "raised the logit")
        client, requests = _client([jargon, self._good_completion()])
        report = generate_report(_input(audience="patient"), client)
        assert len(requests) == 2
        assert report.generator == "llm"
        assert _blocklisted(report.rationale) == []
        # a clinician may read the term
        client, requests = _client([jargon])
        assert generate_report(_input(), client).rationale == jargon[:jargon.index("\nDECISION")]

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_patient_reply_in_the_prompts_wording_is_accepted(self, strategy):
        # the one top feature's name holds a blocked term: the patient prompt
        # shows it as the offline report does, and a reply may refer to it so
        feats = (_reading(name="cov:LDL"),)
        inp = _input(audience="patient", strategy=strategy, features=feats,
                     stats=_stats(feats), knowledge={"lipids": "snippet"})
        prompt = build_prompt(inp)
        assert "LDL" not in prompt
        assert "- a measurement with a technical name: value 1," in prompt
        reply = ("The result leaned on a measurement with a technical name.\n"
                 "- Talk with your care team.\n"
                 "DECISION: AD\n")
        client, requests = _client([reply])
        report = generate_report(inp, client)
        assert (report.generator, len(requests)) == ("llm", 1)
        assert _blocklisted(report.rationale) == []
        # the name itself is a blocked term, so a reply that uses it is refused
        client, requests = _client([reply.replace("a measurement with a technical name",
                                                  "your cov:LDL reading")] * 2)
        assert generate_report(inp, client).generator == "offline"

    def test_garbage_twice_falls_back_offline(self):
        client, _ = _client(["nonsense", "still nonsense"])
        inp = _input()
        report = generate_report(inp, client)
        assert report.generator == "offline"
        assert report.decision == render_offline(inp).decision
        assert sum("unparseable" in w for w in report.warnings) == 2

    def test_named_features_without_a_bullet_fall_back_offline(self):
        # the rationale names the feature, but no line is a recommendation
        prose = "The feature cts:GENE1|typeA drove the call.\nDECISION: AD\n"
        client, requests = _client([prose, prose])
        inp = _input()
        report = generate_report(inp, client)
        assert len(requests) == 2
        assert report.generator == "offline"
        assert report.recommendations == render_offline(inp).recommendations
        assert sum("unparseable" in w for w in report.warnings) == 2

    def test_transport_failure_never_raises(self):
        client, _ = _client([RuntimeError("boom"), ConnectionError("down")])
        report = generate_report(_input(), client)
        assert report.generator == "offline"
        assert sum("transport failure" in w for w in report.warnings) == 2


class TestSerialization:
    def test_report_roundtrip(self):
        report = render_offline(_input(probability=0.9, audience="patient"))
        assert report_from_json(report_to_json(report)) == report

    def test_markdown_contains_sections(self):
        report = render_offline(_input())
        md = render_markdown(report)
        assert "## Rationale" in md and "## Recommendations" in md
        assert f"**Decision:** {report.decision}" in md

    def test_markdown_warnings_section(self):
        report = DiagnosticReport(decision="AD", rationale="r",
                                  recommendations=("a",), audience="clinician",
                                  source_probability=0.6, generator="offline",
                                  warnings=("something",))
        assert "## Warnings" in render_markdown(report)


def test_load_knowledge(tmp_path):
    path = tmp_path / "k.json"
    path.write_text('{"apoe": "snippet"}')
    assert load_knowledge(path) == {"apoe": "snippet"}
    path.write_text('{"apoe": 3}')
    with pytest.raises(ValidationError):
        load_knowledge(path)



@pytest.mark.parametrize("body", [{}, {"choices": []}, {"choices": [{"text": "DECISION: AD"}]},
                                  ["DECISION: AD"]])
def test_complete_rejects_a_reply_without_choices(body):
    client = LlmClient(url="http://example.test", api_key="",
                       post=lambda url, payload, headers, timeout: body)
    with pytest.raises(ValidationError, match="malformed completion payload"):
        client.complete("prompt")


class _ChatHandler(BaseHTTPRequestHandler):
    """Answers POSTs with a fixed completion, or 500 for path /fail."""

    seen: list = []

    def do_POST(self):
        body = self.rfile.read(int(self.headers["Content-Length"]))
        self.seen.append((self.path, dict(self.headers), json.loads(body)))
        if self.path == "/fail":
            self.send_error(500)
            return
        reply = json.dumps({"choices": [{"message": {"content": "hello"}}]}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(reply)))
        self.end_headers()
        self.wfile.write(reply)

    def log_message(self, *args):
        pass


@pytest.fixture
def chat_server():
    server = HTTPServer(("127.0.0.1", 0), _ChatHandler)
    _ChatHandler.seen = []
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


def test_default_session_posts_json(chat_server):
    client = LlmClient(url=chat_server + "/v1", api_key="k", timeout=5)
    assert client.complete("prompt text") == "hello"
    path, headers, body = _ChatHandler.seen[0]
    assert path == "/v1"
    assert headers["Authorization"] == "Bearer k"
    assert headers["Content-Type"] == "application/json"
    assert body["messages"][0]["content"] == "prompt text"


def test_default_session_http_error_falls_back_offline(chat_server):
    client = LlmClient(url=chat_server + "/fail", api_key="", timeout=5)
    report = generate_report(_input(), client)
    assert report.generator == "offline"
    assert len(report.warnings) == 2 and "HTTP Error 500" in report.warnings[0]
    assert len(_ChatHandler.seen) == 2  # first try and the retry
