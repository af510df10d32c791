"""Prompt construction invariants, offline rendering, and LLM fallback paths."""
from __future__ import annotations

import json
import re
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diagnokit.errors import ValidationError
from diagnokit.report import (AUDIENCES, PATIENT_BLOCKLIST, STRATEGIES,
                              DiagnosticReport, FeatureReading, LlmClient,
                              PromptInput, build_prompt, generate_report,
                              load_knowledge, parse_llm_decision, render_markdown,
                              render_offline, report_from_json, report_to_json)

SAFE_NAMES = ("cts:GENE1|typeA", "beta:GENE1", "se:GENE1", "pval:GENE1",
              "cov:age", "cov:smoking", "cts:GENE2|typeB", "beta:GENE2")


def _reading(name="cts:GENE1|typeA", value=1.0, attribution=0.5, rng=None):
    return FeatureReading(name=name, value=value, attribution=attribution,
                          reference_range=rng)


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


class _FakeResponse:
    def __init__(self, content):
        self._content = content

    def raise_for_status(self):
        pass

    def json(self):
        return {"choices": [{"message": {"content": self._content}}]}


class _FakeSession:
    """Records requests; replays scripted completions in order."""

    def __init__(self, completions):
        self.completions = list(completions)
        self.requests = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.requests.append({"url": url, "json": json, "headers": headers})
        if isinstance(self.completions[0], Exception):
            raise self.completions.pop(0)
        return _FakeResponse(self.completions.pop(0))


def _client(completions):
    session = _FakeSession(completions)
    return LlmClient(url="http://example.test/v1", api_key="k",
                     session=session), session


prompt_inputs = st.builds(
    _input,
    probability=st.floats(min_value=0.0, max_value=1.0),
    audience=st.sampled_from(AUDIENCES),
    strategy=st.sampled_from(STRATEGIES),
    features=st.lists(
        st.builds(_reading,
                  name=st.sampled_from(SAFE_NAMES),
                  value=st.floats(-10, 10, allow_nan=False),
                  attribution=st.floats(-5, 5, allow_nan=False)),
        min_size=1, max_size=5, unique_by=lambda f: f.name).map(tuple),
).map(lambda inp: _input(probability=inp.probability, audience=inp.audience,
                         strategy=inp.strategy, features=inp.top_features,
                         stats=_stats(inp.top_features),
                         knowledge={"k": "snippet"}))


@settings(max_examples=500, deadline=None)
@given(inp=prompt_inputs)
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

    def test_step_requires_population_stats(self):
        with pytest.raises(ValidationError, match="population_stats"):
            build_prompt(_input(strategy="step"))

    def test_step_domain_requires_knowledge(self):
        feats = (_reading(),)
        with pytest.raises(ValidationError, match="domain_knowledge"):
            build_prompt(_input(strategy="step-domain", features=feats,
                                stats=_stats(feats)))

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

    def test_reference_range_rendered(self):
        f = _reading(rng=(0.0, 2.0, "mmol/L"))
        assert "reference 0-2 mmol/L" in build_prompt(_input(features=(f,)))


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

    def test_bad_reference_range(self):
        with pytest.raises(ValidationError, match="low < high"):
            _reading(rng=(2.0, 1.0, "x"))


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
        client, session = _client([self._good_completion()])
        report = generate_report(_input(), client)
        assert report.generator == "llm"
        assert report.decision == "AD"
        assert report.recommendations == ("Order confirmatory imaging.",
                                          "Review medications.")
        assert len(session.requests) == 1
        assert session.requests[0]["json"]["temperature"] == 0
        assert session.requests[0]["headers"]["Authorization"] == "Bearer k"

    def test_missing_feature_name_triggers_retry(self):
        bad = "- Do a thing.\nDECISION: AD\n"  # no feature mentioned
        client, session = _client([bad, self._good_completion()])
        report = generate_report(_input(), client)
        assert report.generator == "llm"
        assert len(session.requests) == 2
        assert "could not be parsed" in session.requests[1]["json"][
            "messages"][0]["content"]

    def test_garbage_twice_falls_back_offline(self):
        client, _ = _client(["nonsense", "still nonsense"])
        inp = _input()
        report = generate_report(inp, client)
        assert report.generator == "offline"
        assert report.decision == render_offline(inp).decision
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


def test_client_from_env(monkeypatch):
    monkeypatch.delenv("DIAGNO_LLM_URL", raising=False)
    with pytest.raises(ValidationError, match="DIAGNO_LLM_URL"):
        LlmClient.from_env()
    monkeypatch.setenv("DIAGNO_LLM_URL", "http://example.test")
    monkeypatch.setenv("DIAGNO_LLM_KEY", "secret")
    client = LlmClient.from_env()
    assert client.url == "http://example.test"
    assert client.api_key == "secret"


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
