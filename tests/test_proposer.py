"""Prompt construction, the offline miner, and remote-backend error handling."""

import json
import socket

import numpy as np
import pytest

import synthetic
from loopback import PATH, Reply, completion
from rulekbc import proposer
from rulekbc.grounding import ground
from rulekbc.kb import Triple
from rulekbc.proposer import (
    OFFLINE,
    REMOTE,
    ProposerConfig,
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
        (record,) = propose(ProposerConfig(backend=OFFLINE), kb, [sg])
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
        records = propose(ProposerConfig(backend=OFFLINE), kb, [sg])
        assert len(records) == 1
        rec = records[0]
        assert rec.error is None
        n_lines = len(candidate_lines(rec.raw_response))
        assert n_lines == len(rec.parsed_rules) + len(rec.rejected)
        assert rec.parsed_rules
        assert all(r.provenance == ("offline-miner/1:0",) for r in rec.parsed_rules)

    def test_save_round_trip(self, tmp_path):
        kb = synthetic.family_kb()
        sg = family_subgraph(kb)
        records = propose(ProposerConfig(backend=OFFLINE), kb, [sg])
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


def remote_backend(url, retry_backoff=0.0, **kw):
    return ProposerConfig(backend=REMOTE, endpoint=url, retry_backoff=retry_backoff, **kw)


CANNED = completion("IF (A, parent, B) THEN (A, grandparent, B)")
# the replies that are retried, with what the final error quotes of them
RETRIED = {
    "status 500": (Reply(status=500, body=b"{}"), "HTTP Error 500"),
    "not JSON": (Reply(body=b"<html>busy</html>"), "Expecting value"),
    "slower than request_timeout": (Reply(delay=5.0, body=CANNED.body), "timed out"),
}
MALFORMED = {
    "no choices": Reply(body=json.dumps({"unexpected": True}).encode()),
    "content null": completion(None),
    "content a number": completion(42),
}


class TestRemoteBackend:
    def test_success_payload_and_auth_header(self, chat_server, monkeypatch):
        monkeypatch.setenv("RULEKBC_API_KEY", "sekrit")
        server = chat_server(CANNED)
        kb = synthetic.family_kb()
        sg = family_subgraph(kb)
        backend = remote_backend(server.url, model="test-model", temperature=0.25)
        (record,) = propose(backend, kb, [sg])
        assert record.error is None
        assert [format_rule(r) for r in record.parsed_rules] == ["IF (A, parent, B) THEN (A, grandparent, B)"]
        (request,) = server.received
        assert request.path == PATH  # and a POST, the one method it answers
        assert request.headers["Content-Type"] == "application/json"
        assert request.headers["Authorization"] == "Bearer sekrit"
        assert json.loads(request.body) == {
            "model": "test-model",
            "messages": [{"role": "user", "content": record.prompt}],
            "temperature": 0.25,
        }

    def test_no_authorization_header_without_a_key(self, chat_server, monkeypatch):
        monkeypatch.delenv("RULEKBC_API_KEY", raising=False)
        server = chat_server(completion("done"))
        assert proposer._complete(remote_backend(server.url), "prompt") == "done"
        assert "Authorization" not in server.received[0].headers

    def test_retry_backoff_schedule(self, chat_server, monkeypatch):
        # each retried reply once, then a completion
        sleeps = []
        monkeypatch.setattr(proposer.time, "sleep", sleeps.append)
        server = chat_server(*[reply for reply, _ in RETRIED.values()], completion("done"))
        backend = remote_backend(server.url, max_retries=3, retry_backoff=0.3, request_timeout=0.2)
        assert proposer._complete(backend, "prompt") == "done"
        assert len(server.received) == 4
        assert sleeps == pytest.approx([0.3, 0.6, 0.9])

    def test_retries_then_fails(self, chat_server, monkeypatch):
        for reply, message in RETRIED.values():
            sleeps = []
            monkeypatch.setattr(proposer.time, "sleep", sleeps.append)
            server = chat_server(reply)
            backend = remote_backend(server.url, max_retries=2, retry_backoff=0.3, request_timeout=0.2)
            with pytest.raises(ProposerError, match="after 3 attempts: .*" + message):
                proposer._complete(backend, "prompt")
            assert len(server.received) == 3, message
            assert sleeps == pytest.approx([0.3, 0.6])

    def test_malformed_payload_fails_without_retry(self, chat_server):
        # the server answers each call with the next malformed payload
        server = chat_server(*MALFORMED.values())
        for _ in MALFORMED:
            with pytest.raises(ProposerError, match="malformed completion payload"):
                proposer._complete(remote_backend(server.url, max_retries=3), "prompt")
        assert len(server.received) == len(MALFORMED)

    def test_propose_absorbs_backend_failure(self, chat_server):
        server = chat_server(completion(None), RETRIED["status 500"][0])
        kb = synthetic.family_kb()
        sg = family_subgraph(kb)
        records = propose(remote_backend(server.url, max_retries=0), kb, [sg, sg])
        assert [rec.error.split(":")[0] for rec in records] == [
            "malformed completion payload",
            "backend failed after 1 attempts",
        ]
        assert all(rec.parsed_rules == [] and rec.rejected == [] for rec in records)

    @pytest.mark.usefixtures("without_proxies")
    def test_refused_connection_is_recorded(self):
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))  # bound, never listening: connections are refused
            url = "http://127.0.0.1:%d%s" % (sock.getsockname()[1], PATH)
            kb = synthetic.family_kb()
            (record,) = propose(remote_backend(url, max_retries=1), kb, [family_subgraph(kb)])
        assert record.error.startswith("backend failed after 2 attempts")

    def test_arbitrary_response_text_never_raises(self, chat_server):
        rng = np.random.default_rng(31)
        pool = "IF THEN AND OR NOT (A, p, B) ( ) , é 中 42 . - *\n\t"
        junk = ["".join(rng.choice(list(pool), size=int(rng.integers(0, 120)))) for _ in range(40)]
        server = chat_server(*map(completion, junk))
        kb = synthetic.family_kb()
        records = propose(remote_backend(server.url), kb, [family_subgraph(kb)] * len(junk))
        assert len(server.received) == len(junk)
        for text, rec in zip(junk, records):
            assert rec.error is None
            assert rec.raw_response == text
            assert len(candidate_lines(text)) == len(rec.parsed_rules) + len(rec.rejected)
