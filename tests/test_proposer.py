"""Prompt construction, the offline miner, and remote-backend error handling."""

import json

import numpy as np
import pytest
import requests

import synthetic
from rulekbc import proposer
from rulekbc.grounding import ground
from rulekbc.kb import Triple
from rulekbc.proposer import (
    OFFLINE,
    REMOTE,
    ProposerBackend,
    ProposerError,
    build_rule_prompt,
    candidate_lines,
    mine_rules_text,
    propose,
    save_proposals,
)
from rulekbc.rules import (
    UNCLASSIFIED,
    TrigramSimilarity,
    classify_case,
    filter_stage1,
    format_rule,
    map_relations,
    parse_rule,
)
from rulekbc.subgraph import ExtractorConfig, Subgraph, extract_subgraph


def family_subgraph(kb):
    target = Triple(
        kb.entities.id("Anna"), kb.relations.id("grandparent"), kb.entities.id("Charlie")
    )
    triples = [
        Triple(kb.entities.id("Anna"), kb.relations.id("parent"), kb.entities.id("Bob")),
        Triple(kb.entities.id("Bob"), kb.relations.id("parent"), kb.entities.id("Charlie")),
    ]
    return Subgraph(target=target, triples=triples, hop_of={t: i + 1 for i, t in enumerate(triples)})


EXPECTED_RULE_PROMPT = """A knowledge subgraph describes relationships between entities using a set of triplets. Each triplet is written in the form of triplet (SUBJ, REL, OBJ), which states that entity SUBJ is of relation REL to entity OBJ.

A logic rule can be applied to known triplets to deduce new ones. Each rule is written in the form of a logical implication, which states that if the conditions on the right-hand side are satisfied, then the statement on the left-hand side holds true. Here are some example rules where A, B, C are entities:

IF (A, parent, B) AND  NOT (A, father, B) THEN (A, mother, B)

IF (A, father, B) OR (A, mother, B) THEN (A, parent, B)

IF (A, mother, B) AND (A, sibling, C) THEN (C, mother, B)

Now we have the following triplets:
(Anna, parent, Bob)
(Bob, parent, Charlie)

Please generate as many of the most important logical rules based on the above knowledge subgraph to deduce triplet (Anna, grandparent, Charlie). The rules provide general logic implications instead of using specific entities. Return the rules only without any explanations."""

class TestPrompts:
    def test_rule_prompt_snapshot(self):
        kb = synthetic.family_kb()
        sg = family_subgraph(kb)
        assert build_rule_prompt(sg, sg.target, kb) == EXPECTED_RULE_PROMPT

class TestCandidateLines:
    def test_list_markers_and_quotes_stripped(self):
        raw = "\n".join(
            [
                "1. IF (A, p, B) THEN (A, h, B)",
                "- IF (B, p, A) THEN (A, h, B)",
                "* 2) \"IF (A, q, B) THEN (A, h, B)\"",
                "",
                "   ",
                "plain text",
            ]
        )
        lines = candidate_lines(raw)
        assert lines == [
            "IF (A, p, B) THEN (A, h, B)",
            "IF (B, p, A) THEN (A, h, B)",
            "IF (A, q, B) THEN (A, h, B)",
            "plain text",
        ]


class TestMiner:
    def test_finds_bridge_rule(self):
        kb = synthetic.family_kb()
        sg = family_subgraph(kb)
        mined = mine_rules_text(kb, sg, sg.target)
        assert synthetic.PLANTED_RULE_TEXT in mined.splitlines()

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        kb = synthetic.random_kb(rng, n_entities=12, n_relations=3, n_triples=60)
        cfg = ExtractorConfig()
        for target in kb.train[:10]:
            sg = extract_subgraph(kb, target, cfg)
            assert mine_rules_text(kb, sg, target) == mine_rules_text(kb, sg, target)

    def test_loop_target_yields_nothing(self):
        kb = synthetic.build_kb(["a", "b"], ["r"], [("a", "r", "b")])
        sg = Subgraph(target=Triple(0, 0, 0), triples=list(kb.train), hop_of={kb.train[0]: 1})
        assert mine_rules_text(kb, sg, sg.target) == ""

    def test_mined_rules_have_body_support_at_target(self):
        # every emitted rule is witnessed by a real path, so its body count
        # at the target pair must be positive once grounded
        rng = np.random.default_rng(17)
        provider = TrigramSimilarity()
        cfg = ExtractorConfig()
        checked = 0
        for seed in range(6):
            kb = synthetic.random_kb(rng, n_entities=14, n_relations=3, n_triples=70)
            for target in kb.train[:6]:
                sg = extract_subgraph(kb, target, cfg)
                mined = mine_rules_text(kb, sg, target)
                for line in mined.splitlines():
                    rule = parse_rule(line)
                    assert filter_stage1(rule, kb.relation_name(target.relation)) is None
                    rule = classify_case(map_relations(rule, kb, provider))
                    assert rule.case != UNCLASSIFIED
                    g = ground(kb, rule)
                    assert g.body_count.get(target.head, target.tail) >= 1
                    checked += 1
        assert checked > 30

    def test_mined_names_map_to_themselves_when_normalised_names_collide(self):
        # the three names normalise alike; the miner writes exact names, so
        # each atom must be filed under the relation it was mined from
        names = ["part_of", "part of", "Part Of"]
        kb = synthetic.build_kb(
            ["a", "b", "c"], names, [("a", "part_of", "b"), ("b", "part of", "c"), ("a", "Part Of", "c")]
        )
        sg = Subgraph(target=kb.train[2], triples=kb.train[:2], hop_of={t: 1 for t in kb.train[:2]})
        (record,) = propose(ProposerBackend(kind=OFFLINE), kb, [sg])
        assert [format_rule(r) for r in record.parsed_rules] == [
            "IF (A, part_of, B) AND (B, part of, C) THEN (A, Part Of, C)"
        ]
        provider = TrigramSimilarity()
        for rule in record.parsed_rules:
            mapped = map_relations(rule, kb, provider)
            assert [a.relation for a in mapped.body + (mapped.head,)] == [0, 1, 2]
            assert format_rule(mapped, kb) == format_rule(rule)

    def test_no_duplicate_lines(self):
        rng = np.random.default_rng(23)
        kb = synthetic.random_kb(rng, n_entities=10, n_relations=2, n_triples=50)
        cfg = ExtractorConfig()
        for target in kb.train[:10]:
            sg = extract_subgraph(kb, target, cfg)
            lines = mine_rules_text(kb, sg, target).splitlines()
            assert len(lines) == len(set(lines))


class TestProposeOffline:
    def test_records_account_for_every_line(self):
        kb = synthetic.family_kb()
        sg = family_subgraph(kb)
        records = propose(ProposerBackend(kind=OFFLINE), kb, [sg])
        assert len(records) == 1
        rec = records[0]
        assert rec.error is None
        n_lines = len(candidate_lines(rec.raw_response))
        assert n_lines == len(rec.parsed_rules) + len(rec.rejected)
        assert rec.parsed_rules
        assert all(r.provenance == ("offline-miner/1:0",) for r in rec.parsed_rules)

    def test_target_free_subgraph_rejected(self):
        kb = synthetic.family_kb()
        sg = Subgraph(target=None)
        with pytest.raises(ProposerError, match="target"):
            propose(ProposerBackend(kind=OFFLINE), kb, [sg])

    def test_save_round_trip(self, tmp_path):
        kb = synthetic.family_kb()
        sg = family_subgraph(kb)
        records = propose(ProposerBackend(kind=OFFLINE), kb, [sg])
        path = tmp_path / "records.jsonl"
        save_proposals(str(path), records, kb)
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        rec = json.loads(lines[0])
        assert rec["relation"] == "grandparent"
        assert rec["target"] == list(sg.target)
        assert rec["parsed"]
        save_proposals(str(tmp_path / "again.jsonl"), records, kb)
        assert (tmp_path / "again.jsonl").read_bytes() == path.read_bytes()


class FakeResponse:
    def __init__(self, payload=None, status=200, text_body=None):
        self._payload = payload
        self.status_code = status
        self._text = text_body

    def raise_for_status(self):
        if self.status_code >= 400:
            raise requests.HTTPError("status %d" % self.status_code)

    def json(self):
        if self._payload is None:
            raise ValueError("no json")
        return self._payload


def chat_payload(content):
    return {"choices": [{"message": {"content": content}}]}


def remote_backend(**kw):
    kw.setdefault("kind", REMOTE)
    kw.setdefault("endpoint", "http://fake.test/v1/chat")
    kw.setdefault("retry_backoff", 0.0)
    return ProposerBackend(**kw)


class TestRemoteBackend:
    def test_success_payload_and_auth_header(self, monkeypatch):
        calls = {}

        def fake_post(url, json=None, headers=None, timeout=None):
            calls.update(url=url, json=json, headers=headers, timeout=timeout)
            return FakeResponse(chat_payload("IF (A, parent, B) THEN (A, grandparent, B)"))

        monkeypatch.setattr(requests, "post", fake_post)
        monkeypatch.setenv("RULEKBC_API_KEY", "sekrit")
        kb = synthetic.family_kb()
        sg = family_subgraph(kb)
        records = propose(remote_backend(model_name="test-model"), kb, [sg])
        assert records[0].parsed_rules
        assert calls["headers"]["Authorization"] == "Bearer sekrit"
        assert calls["json"]["model"] == "test-model"
        assert calls["json"]["messages"][0]["content"] == records[0].prompt
        assert calls["url"] == "http://fake.test/v1/chat"

    def test_retries_then_fails(self, monkeypatch):
        attempts = []

        def fake_post(*a, **kw):
            attempts.append(1)
            raise requests.ConnectionError("refused")

        monkeypatch.setattr(requests, "post", fake_post)
        backend = remote_backend(max_retries=2)
        with pytest.raises(ProposerError, match="after 3 attempts"):
            proposer._complete(backend, "prompt")
        assert len(attempts) == 3

    def test_retry_backoff_schedule(self, monkeypatch):
        sleeps = []
        monkeypatch.setattr(proposer.time, "sleep", sleeps.append)
        monkeypatch.setattr(
            requests, "post", lambda *a, **kw: FakeResponse(status=500)
        )
        backend = remote_backend(max_retries=2, retry_backoff=0.3)
        with pytest.raises(ProposerError):
            proposer._complete(backend, "prompt")
        assert sleeps == pytest.approx([0.3, 0.6])

    def test_malformed_payload_fails_without_retry(self, monkeypatch):
        attempts = []

        def fake_post(*a, **kw):
            attempts.append(1)
            return FakeResponse({"unexpected": True})

        monkeypatch.setattr(requests, "post", fake_post)
        with pytest.raises(ProposerError, match="malformed"):
            proposer._complete(remote_backend(max_retries=3), "prompt")
        assert len(attempts) == 1

    def test_propose_absorbs_backend_failure(self, monkeypatch):
        def fake_post(*a, **kw):
            raise requests.ConnectionError("down")

        monkeypatch.setattr(requests, "post", fake_post)
        kb = synthetic.family_kb()
        sg = family_subgraph(kb)
        records = propose(remote_backend(), kb, [sg])
        assert records[0].error is not None
        assert records[0].parsed_rules == []

    def test_arbitrary_response_text_never_raises(self, monkeypatch):
        rng = np.random.default_rng(31)
        kb = synthetic.family_kb()
        sg = family_subgraph(kb)
        pool = "IF THEN AND OR NOT (A, p, B) ( ) , é 中 42 . - *\n\t"
        for _ in range(40):
            junk = "".join(
                rng.choice(list(pool), size=int(rng.integers(0, 120)))
            )
            monkeypatch.setattr(
                requests, "post", lambda *a, junk=junk, **kw: FakeResponse(chat_payload(junk))
            )
            records = propose(remote_backend(), kb, [sg])
            rec = records[0]
            assert rec.error is None
            assert len(candidate_lines(junk)) == len(rec.parsed_rules) + len(rec.rejected)
