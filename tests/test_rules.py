"""Rule grammar, filtering, relation mapping and shape classification."""

import json
import math
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import synthetic
from rulekbc.kb import KBError
from rulekbc.rules import (
    CASE_FLAGS,
    UNCLASSIFIED,
    Rule,
    RuleAtom,
    RuleParseError,
    TrigramSimilarity,
    classify_case,
    dedup,
    filter_stage1,
    format_rule,
    load_rules,
    map_relations,
    parse_rule,
    rule_key,
    save_rules,
)


class TestParsing:
    def test_simple_rule(self):
        r = parse_rule("IF (A, parent, B) THEN (A, ancestor, B)")
        assert r.body == (RuleAtom("A", "parent", "B"),)
        assert r.head == RuleAtom("A", "ancestor", "B")
        assert r.case == UNCLASSIFIED

    def test_three_atom_body(self):
        r = parse_rule(
            "IF (A, r0, B) AND (B, r1, C) AND (C, r2, D) THEN (A, rh, D)"
        )
        assert len(r.body) == 3

    def test_whitespace_and_case_of_keywords(self):
        r = parse_rule("if (A, p, B)  and  (B, q, C) then (A, h, C)")
        assert len(r.body) == 2

    def test_four_atom_body_rejected(self):
        text = (
            "IF (A, r, B) AND (B, r, C) AND (C, r, D) AND (D, r, E) THEN (A, h, E)"
        )
        with pytest.raises(RuleParseError, match="at most 3"):
            parse_rule(text)

    def test_disjunction_rejected(self):
        with pytest.raises(RuleParseError, match="OR"):
            parse_rule("IF (A, p, B) OR (A, q, B) THEN (A, h, B)")

    def test_negation_rejected(self):
        with pytest.raises(RuleParseError, match="NOT"):
            parse_rule("IF (A, p, B) AND NOT (B, q, C) THEN (A, h, C)")

    def test_negation_detection_is_word_bounded(self):
        # NOT inside a relation name is data, not an operator
        r = parse_rule("IF (A, does_not_border, B) THEN (A, h, B)")
        assert r.body[0].relation == "does_not_border"

    def test_missing_then_rejected(self):
        with pytest.raises(RuleParseError, match="THEN"):
            parse_rule("IF (A, p, B) AND (B, q, C)")

    def test_wrong_arity_rejected(self):
        with pytest.raises(RuleParseError, match="3 arguments"):
            parse_rule("IF (A, B) THEN (A, h, B)")
        with pytest.raises(RuleParseError, match="3 arguments"):
            parse_rule("IF (A, p, B, C) THEN (A, h, B)")

    def test_empty_argument_rejected(self):
        with pytest.raises(RuleParseError, match="empty"):
            parse_rule("IF (A, , B) THEN (A, h, B)")

    def test_reflexive_atom_rejected(self):
        with pytest.raises(RuleParseError, match="repeats"):
            parse_rule("IF (A, p, A) THEN (A, h, B)")

    def test_prose_rejected(self):
        with pytest.raises(RuleParseError):
            parse_rule("Here are some rules you could consider:")
        with pytest.raises(RuleParseError):
            parse_rule("")

    def test_head_only_rejected(self):
        with pytest.raises(RuleParseError):
            parse_rule("THEN (A, h, B)")

    def test_format_parse_round_trip(self):
        texts = [
            "IF (A, parent, B) THEN (A, ancestor, B)",
            "IF (B, part of, A) AND (B, near, C) THEN (A, contains, C)",
            "IF (A, r0, B) AND (C, r1, B) AND (C, r2, D) THEN (A, rh, D)",
        ]
        for text in texts:
            rule = parse_rule(text)
            assert format_rule(rule) == text
            assert parse_rule(format_rule(rule)) == rule

    def test_format_renders_ids_via_kb(self):
        kb = synthetic.family_kb()
        rule = Rule(body=(RuleAtom("A", 0, "B"),), head=RuleAtom("A", 1, "B"))
        assert format_rule(rule, kb) == "IF (A, parent, B) THEN (A, grandparent, B)"
        assert format_rule(rule) == "IF (A, #0, B) THEN (A, #1, B)"


class TestStage1Filter:
    def test_accepts_matching_head(self):
        r = parse_rule("IF (A, parent, B) AND (B, parent, C) THEN (A, grandparent, C)")
        assert filter_stage1(r, "grandparent") is None

    def test_head_match_ignores_case_and_spacing(self):
        r = parse_rule("IF (A, p, B) THEN (A, EXPORTS_TO, B)")
        assert filter_stage1(r, "exports_to") is None
        r2 = parse_rule("IF (A, p, B) THEN (A,  Shares   Border , B)")
        assert filter_stage1(r2, "shares border") is None

    def test_wrong_head_rejected(self):
        r = parse_rule("IF (A, parent, B) THEN (A, parent, B)")
        assert "does not match" in filter_stage1(r, "grandparent")

    def test_constant_argument_rejected(self):
        r = parse_rule("IF (Anna, parent, B) THEN (Anna, grandparent, B)")
        assert "not a variable" in filter_stage1(r, "grandparent")

    def test_lowercase_variable_rejected(self):
        r = parse_rule("IF (a, parent, B) THEN (a, grandparent, B)")
        assert "not a variable" in filter_stage1(r, "grandparent")

    def test_unbound_head_variable_rejected(self):
        r = parse_rule("IF (A, parent, B) THEN (A, grandparent, C)")
        assert "does not appear" in filter_stage1(r, "grandparent")

    def test_mapped_rule_rejected(self):
        rule = Rule(body=(RuleAtom("A", 0, "B"),), head=RuleAtom("A", 1, "B"))
        with pytest.raises(KBError, match="before relation mapping"):
            filter_stage1(rule, "grandparent")


def reference_trigram_score(a, b):
    """TrigramSimilarity.score recomputed from scratch for every pair."""

    def normalize(s):
        return " ".join(s.lower().replace("_", " ").split())

    def grams(s):
        padded = " %s " % s
        return Counter(padded[i : i + 3] for i in range(len(padded) - 2))

    na, nb = normalize(a), normalize(b)
    if na == nb:
        return 1.0
    ga, gb = grams(na), grams(nb)
    if not ga or not gb:
        return 0.0
    dot = sum(c * gb[g] for g, c in ga.items())
    norm = math.sqrt(sum(c * c for c in ga.values())) * math.sqrt(sum(c * c for c in gb.values()))
    return dot / norm if norm else 0.0


class TestTrigramSimilarity:
    provider = TrigramSimilarity()

    def test_identical_and_normalized_identical(self):
        assert self.provider.score("parent", "parent") == 1.0
        assert self.provider.score("Shares_Border", "shares border") == 1.0
        assert self.provider.score("  a  b ", "A_B") == 1.0

    def test_range_and_symmetry(self):
        rng = np.random.default_rng(0)
        alphabet = list("abcdefg_ ")
        for _ in range(200):
            a = "".join(rng.choice(alphabet, size=int(rng.integers(1, 12))))
            b = "".join(rng.choice(alphabet, size=int(rng.integers(1, 12))))
            s = self.provider.score(a, b)
            assert 0.0 <= s <= 1.0
            assert s == pytest.approx(self.provider.score(b, a))

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.text(alphabet="abcAB_ -", max_size=10), min_size=1, max_size=6))
    def test_warmed_scores_are_bit_equal_to_fresh(self, names):
        warmed = TrigramSimilarity()
        for a in names:
            for b in names:
                warmed.score(a, b)
        for a in names:
            for b in names:
                got = warmed.score(a, b)
                assert got.hex() == TrigramSimilarity().score(a, b).hex()
                assert got.hex() == reference_trigram_score(a, b).hex()
                assert got.hex() == warmed.score(b, a).hex()
                assert 0.0 <= got <= 1.0

    def test_near_match_beats_unrelated(self):
        near = self.provider.score("shares border", "shares border with")
        far = self.provider.score("shares border", "exports oil")
        assert 0.5 < near < 1.0
        assert far < near

    def test_known_value_hand_computed(self):
        # " ab " has trigrams {" ab", "ab "}; " abc " has {" ab","abc","bc "}
        # overlap " ab": dot=1, norms sqrt(2)*sqrt(3)
        got = self.provider.score("ab", "abc")
        assert got == pytest.approx(1.0 / np.sqrt(6.0), abs=1e-12)


class TestMapRelations:
    def test_maps_onto_best_vocabulary_relation(self):
        kb = synthetic.build_kb(
            ["x", "y"],
            ["shares border with", "exports to", "capital of"],
            [("x", "shares border with", "y")],
        )
        rule = parse_rule("IF (A, shares border, B) THEN (A, exports to, B)")
        mapped = map_relations(rule, kb, TrigramSimilarity())
        assert mapped.body[0].relation == 0
        assert mapped.head.relation == 1
        assert mapped.similarity[-1] == 1.0
        assert 0.0 < mapped.similarity[0] < 1.0

    def test_argmax_oracle_with_tie_to_lower_id(self):
        provider = TrigramSimilarity()
        rng = np.random.default_rng(21)
        vocab_pool = [
            "works at",
            "works_at",
            "born in",
            "lives in",
            "ceo of",
            "part of",
            "borders",
            "exports to",
        ]
        for _ in range(60):
            names = list(rng.permutation(vocab_pool))[: int(rng.integers(2, 7))]
            kb = synthetic.build_kb(["x", "y"], names, [("x", names[0], "y")])
            raw = str(rng.choice(vocab_pool + ["work", "head of", "zzz"]))
            rule = parse_rule("IF (A, %s, B) THEN (A, %s, B)" % (raw, names[0]))
            mapped = map_relations(rule, kb, provider)
            scores = [provider.score(raw, n) for n in names]
            best = int(np.argmax(scores))  # argmax returns the first (lowest id) max
            assert mapped.body[0].relation == best
            assert mapped.similarity[0] == pytest.approx(scores[best])

    def test_empty_vocabulary_rejected(self):
        kb = synthetic.family_kb()
        kb.relations.names = []
        kb.relations.index = {}
        rule = parse_rule("IF (A, p, B) THEN (A, h, B)")
        with pytest.raises(KBError, match="empty vocabulary"):
            map_relations(rule, kb, TrigramSimilarity())


def make_case_rule(case, rels=("r0", "r1", "r2"), rh="rh"):
    flags = CASE_FLAGS[case]
    text = synthetic.case_rule_text(
        case, rels[0], rels[1] if len(flags) > 1 else "", rels[2] if len(flags) > 2 else "", rh
    )
    return parse_rule(text)


class TestClassification:
    def test_all_fourteen_canonical_patterns(self):
        for case in CASE_FLAGS:
            rule = make_case_rule(case)
            got = classify_case(rule)
            assert got.case == case, "pattern for %s classified as %s" % (case, got.case)
            # canonical form round-trips to itself
            assert format_rule(got) == format_rule(rule)

    def test_renaming_and_reordering_invariance(self):
        rng = np.random.default_rng(33)
        fresh = list("KLMNPQRSTUVWXYZ")
        for case in CASE_FLAGS:
            canonical = classify_case(make_case_rule(case))
            for _ in range(6):
                letters = list(rng.choice(fresh, size=4, replace=False))
                rename = dict(zip("ABCD", letters))
                atoms = [
                    RuleAtom(rename[a.subject], a.relation, rename[a.object])
                    for a in canonical.body
                ]
                head = RuleAtom(
                    rename[canonical.head.subject],
                    canonical.head.relation,
                    rename[canonical.head.object],
                )
                order = rng.permutation(len(atoms))
                scrambled = Rule(body=tuple(atoms[i] for i in order), head=head)
                back = classify_case(scrambled)
                assert back.case == case
                assert format_rule(back) == format_rule(canonical)

    def test_reordered_reversed_chain_recovered(self):
        # both atoms reversed and written out of path order
        rule = parse_rule("IF (C, r1, B) AND (B, r0, A) THEN (A, rh, C)")
        got = classify_case(rule)
        assert got.case == "1-4"
        assert format_rule(got) == "IF (B, r0, A) AND (C, r1, B) THEN (A, rh, C)"

    def test_reversed_single_atom(self):
        got = classify_case(parse_rule("IF (A, r, B) THEN (B, rh, A)"))
        assert got.case == "0-2"
        assert format_rule(got) == "IF (B, r, A) THEN (A, rh, B)"

    def test_disconnected_body_unclassified(self):
        rule = parse_rule("IF (A, r0, B) AND (C, r1, D) THEN (A, rh, B)")
        assert classify_case(rule).case == UNCLASSIFIED

    def test_triangle_body_unclassified(self):
        rule = parse_rule("IF (A, r0, B) AND (B, r1, C) AND (A, r2, C) THEN (A, rh, C)")
        assert classify_case(rule).case == UNCLASSIFIED

    def test_star_body_unclassified(self):
        rule = parse_rule("IF (A, r0, B) AND (A, r1, C) AND (A, r2, D) THEN (A, rh, D)")
        assert classify_case(rule).case == UNCLASSIFIED

    def test_head_variable_repeated_in_path_unclassified(self):
        # body chain revisits the head subject, so no simple path shape fits
        rule = parse_rule("IF (A, r0, B) AND (B, r1, A) THEN (A, rh, B)")
        assert classify_case(rule).case == UNCLASSIFIED

    def test_fixed_tiebreak_order_is_deterministic(self):
        rule = parse_rule("IF (A, r, B) AND (B, r, C) THEN (A, rh, C)")
        assert classify_case(rule).case == "1-1"
        assert classify_case(rule).case == classify_case(rule).case


class TestDedup:
    def test_structural_duplicates_merge_provenance(self):
        kb = synthetic.family_kb()
        provider = TrigramSimilarity()

        def prep(text, prov):
            rule = classify_case(map_relations(parse_rule(text), kb, provider))
            return Rule(
                body=rule.body,
                head=rule.head,
                case=rule.case,
                provenance=(prov,),
                similarity=rule.similarity,
            )

        a = prep("IF (A, parent, B) AND (B, parent, C) THEN (A, grandparent, C)", "sg1")
        b = prep("IF (Y, parent, Z) AND (X, parent, Y) THEN (X, grandparent, Z)", "sg2")
        c = prep("IF (A, parent, B) THEN (A, grandparent, B)", "sg3")
        out = dedup([a, b, c])
        assert len(out) == 2
        assert out[0].provenance == ("sg1", "sg2")
        assert out[1].provenance == ("sg3",)

    def test_pairwise_key_oracle(self):
        rng = np.random.default_rng(44)
        kb = synthetic.random_kb(rng, n_entities=6, n_relations=3, n_triples=20)
        provider = TrigramSimilarity()
        pool = []
        cases = list(CASE_FLAGS)
        for i in range(40):
            case = cases[int(rng.integers(len(cases)))]
            rels = [kb.relation_name(int(rng.integers(kb.num_relations))) for _ in range(3)]
            rh = kb.relation_name(int(rng.integers(kb.num_relations)))
            rule = parse_rule(synthetic.case_rule_text(case, *rels, rh=rh))
            rule = classify_case(map_relations(rule, kb, provider))
            pool.append(Rule(rule.body, rule.head, rule.case, ("p%d" % i,), rule.similarity))
        out = dedup(pool)
        keys = [rule_key(r) for r in out]
        assert len(keys) == len(set(keys))
        assert {rule_key(r) for r in pool} == set(keys)
        # order preserved: first occurrence of each key wins
        first_seen = []
        seen = set()
        for r in pool:
            k = rule_key(r)
            if k not in seen:
                seen.add(k)
                first_seen.append(r.provenance[0])
        assert [r.provenance[0] for r in out] == first_seen

    def test_unclassified_dedup_by_canonical_pattern(self):
        a = classify_case(parse_rule("IF (A, r0, B) AND (C, r1, D) THEN (A, rh, B)"))
        b = classify_case(parse_rule("IF (X, r0, Y) AND (P, r1, Q) THEN (X, rh, Y)"))
        a = Rule(a.body, a.head, a.case, ("one",))
        b = Rule(b.body, b.head, b.case, ("two",))
        out = dedup([a, b])
        assert len(out) == 1
        assert out[0].provenance == ("one", "two")


class TestPersistence:
    def test_round_trip(self, tmp_path):
        kb = synthetic.family_kb()
        provider = TrigramSimilarity()
        rules = [
            classify_case(map_relations(parse_rule(t), kb, provider))
            for t in (
                "IF (A, parent, B) AND (B, parent, C) THEN (A, grandparent, C)",
                "IF (A, parent, B) THEN (A, grandparent, B)",
            )
        ]
        path = str(tmp_path / "rules.jsonl")
        save_rules(path, rules, kb)
        loaded = load_rules(path, kb)
        assert len(loaded) == len(rules)
        for orig, back in zip(rules, loaded):
            assert rule_key(back) == rule_key(orig)
            assert back.case == orig.case
            assert back.similarity == pytest.approx(orig.similarity)
        # byte-stable on re-save
        save_rules(str(tmp_path / "again.jsonl"), loaded, kb)
        assert (tmp_path / "rules.jsonl").read_bytes() == (tmp_path / "again.jsonl").read_bytes()

    def test_unmapped_rule_rejected(self, tmp_path):
        kb = synthetic.family_kb()
        with pytest.raises(KBError, match="mapped"):
            save_rules(str(tmp_path / "r.jsonl"), [parse_rule("IF (A, p, B) THEN (A, h, B)")], kb)

    def test_bad_json_line_raises(self, tmp_path):
        kb = synthetic.family_kb()
        p = tmp_path / "rules.jsonl"
        p.write_text("{not json\n")
        with pytest.raises(KBError, match="bad rule record"):
            load_rules(str(p), kb)

    GOOD_RECORD = {"text": "IF (A, r, B) THEN (A, r, B)", "relations": [0, 0], "case": "0-1"}

    @pytest.mark.parametrize(
        "record, reason",
        [
            (dict(GOOD_RECORD, relations=[5, 0]), r"relation id 5 outside \[0, 1\)"),
            (dict(GOOD_RECORD, relations=[0, -1]), r"relation id -1 outside \[0, 1\)"),
            ({k: v for k, v in GOOD_RECORD.items() if k != "text"}, "missing key 'text'"),
            ({k: v for k, v in GOOD_RECORD.items() if k != "case"}, "missing key 'case'"),
            (list(GOOD_RECORD.items()), "expected a JSON object, got list"),
            (dict(GOOD_RECORD, case="9-9"), "unknown case '9-9'"),
            (dict(GOOD_RECORD, case="1-1"), "case 1-1 does not fit a 1-atom body"),
        ],
        ids=["id-past-end", "negative-id", "no-text", "no-case", "list", "unknown-case", "case-length"],
    )
    def test_malformed_record_names_file_and_line(self, tmp_path, record, reason):
        kb = synthetic.build_kb(["a", "b"], ["r"], [("a", "r", "b")])
        p = tmp_path / "rules.jsonl"
        p.write_text(json.dumps(self.GOOD_RECORD) + "\n\n" + json.dumps(record) + "\n")
        with pytest.raises(KBError, match=re.escape("%s:3: bad rule record: " % p) + reason):
            load_rules(str(p), kb)
