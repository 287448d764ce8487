"""Grounding against an independent binding-enumeration oracle."""

import itertools
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rulekbc.kb
import synthetic
from rulekbc.grounding import (
    GroundingError,
    _cache_key,
    ground,
    ground_all,
    score,
    score_row,
    support_row,
    witness_paths,
)
from rulekbc.kb import Triple
from rulekbc.rules import (
    CASE_FLAGS,
    TrigramSimilarity,
    classify_case,
    map_relations,
    parse_rule,
)


def oracle_ground(kb, rule):
    """Count satisfying variable assignments directly from the rule text.

    Reads atom direction off the written subject/object positions, with no
    reference to case labels or matrix chains: for every head pair (a, b) it
    enumerates all assignments of the remaining variables and counts those
    whose body atoms are all train edges.
    """
    n = kb.num_entities
    train = {tuple(t) for t in kb.train}
    hs, ho = rule.head.subject, rule.head.object
    others = []
    for a in rule.body:
        for v in (a.subject, a.object):
            if v not in (hs, ho) and v not in others:
                others.append(v)
    c = np.zeros((n, n), dtype=np.int64)
    for a_val in range(n):
        for b_val in range(n):
            hits = 0
            for combo in itertools.product(range(n), repeat=len(others)):
                env = {hs: a_val, ho: b_val}
                env.update(zip(others, combo))
                if all(
                    (env[atom.subject], atom.relation, env[atom.object]) in train
                    for atom in rule.body
                ):
                    hits += 1
            c[a_val, b_val] = hits
    head_adj = kb.matrices[rule.head.relation].to_dense()
    return c, c * head_adj


def classified(kb, text):
    rule = map_relations(parse_rule(text), kb, TrigramSimilarity())
    return classify_case(rule)


class TestFamilyToy:
    def test_bridged_pair_with_direct_edge(self):
        kb = synthetic.family_kb(with_head=True)
        rule = classified(kb, synthetic.PLANTED_RULE_TEXT)
        g = ground(kb, rule)
        anna, charlie = kb.entities.id("Anna"), kb.entities.id("Charlie")
        assert g.joint_count.get(anna, charlie) == 1
        assert g.body_count.get(anna, charlie) == 1
        assert score(g, anna, charlie) == 1

    def test_bridged_pair_without_direct_edge_scores_negative(self):
        kb = synthetic.family_kb(with_head=False)
        rule = classified(kb, synthetic.PLANTED_RULE_TEXT)
        g = ground(kb, rule)
        anna, charlie = kb.entities.id("Anna"), kb.entities.id("Charlie")
        assert g.joint_count.get(anna, charlie) == 0
        assert g.body_count.get(anna, charlie) == 1
        assert score(g, anna, charlie) == -1

    def test_unsupported_pair_scores_zero(self):
        kb = synthetic.family_kb(with_head=True)
        rule = classified(kb, synthetic.PLANTED_RULE_TEXT)
        g = ground(kb, rule)
        assert score(g, kb.entities.id("Bob"), kb.entities.id("Anna")) == 0


class TestOracleFuzz:
    def test_all_cases_match_enumeration_oracle(self):
        rng = np.random.default_rng(99)
        instances = 0
        for case in CASE_FLAGS:
            for trial in range(15):
                kb = synthetic.random_kb(
                    rng,
                    n_entities=int(rng.integers(6, 10)),
                    n_relations=3,
                    n_triples=int(rng.integers(15, 35)),
                )
                rels = [kb.relation_name(int(rng.integers(3))) for _ in range(3)]
                rh = kb.relation_name(int(rng.integers(3)))
                rule = classified(kb, synthetic.case_rule_text(case, *rels, rh=rh))
                assert rule.case == case
                g = ground(kb, rule)
                c_exp, a_exp = oracle_ground(kb, rule)
                np.testing.assert_array_equal(g.body_count.to_dense(), c_exp)
                np.testing.assert_array_equal(g.joint_count.to_dense(), a_exp)
                instances += 1
        assert instances == 14 * 15

    def test_joint_invariants(self):
        rng = np.random.default_rng(7)
        cases = list(CASE_FLAGS)
        for _ in range(30):
            kb = synthetic.random_kb(rng, n_entities=12, n_relations=3, n_triples=50)
            case = cases[int(rng.integers(len(cases)))]
            rels = [kb.relation_name(int(rng.integers(3))) for _ in range(3)]
            rule = classified(kb, synthetic.case_rule_text(case, *rels, rh=rels[0]))
            g = ground(kb, rule)
            a = g.joint_count.to_dense()
            c = g.body_count.to_dense()
            head = kb.matrices[rule.head.relation].to_dense()
            assert (a <= c).all()
            assert (a[head == 0] == 0).all()
            np.testing.assert_array_equal(a, c * head)


class TestScoreAccess:
    def setup_method(self):
        rng = np.random.default_rng(13)
        self.kb = synthetic.random_kb(rng, n_entities=15, n_relations=3, n_triples=70)
        self.rule = classified(
            self.kb, synthetic.case_rule_text("1-1", "r0", "r1", rh="r2")
        )
        self.g = ground(self.kb, self.rule)

    def test_score_row_agrees_with_pointwise_score(self):
        for h in range(self.kb.num_entities):
            row = score_row(self.g, h)
            for t in range(self.kb.num_entities):
                assert row.get(t, 0) == score(self.g, h, t)

    def test_support_row_is_body_count(self):
        c = self.g.body_count.to_dense()
        for h in range(self.kb.num_entities):
            row = support_row(self.g, h)
            for t in range(self.kb.num_entities):
                assert row.get(t, 0) == c[h, t]
            assert all(v > 0 for v in row.values())

    def test_signed_branches(self):
        a = self.g.joint_count.to_dense()
        c = self.g.body_count.to_dense()
        for h in range(self.kb.num_entities):
            for t in range(self.kb.num_entities):
                s = score(self.g, h, t)
                if a[h, t] > 0:
                    assert s == a[h, t]
                elif c[h, t] > 0:
                    assert s == -c[h, t]
                else:
                    assert s == 0


class TestGroundAll:
    def test_unclassified_rules_skipped(self):
        kb = synthetic.family_kb()
        good = classified(kb, synthetic.PLANTED_RULE_TEXT)
        bad = classified(kb, "IF (A, parent, B) AND (C, parent, D) THEN (A, grandparent, B)")
        out = ground_all(kb, [good, bad])
        rel = kb.relations.id("grandparent")
        assert len(out[rel]) == 1

    def test_grouped_by_head_relation(self):
        kb = synthetic.family_kb()
        g1 = classified(kb, "IF (A, parent, B) THEN (A, grandparent, B)")
        g2 = classified(kb, "IF (A, grandparent, B) THEN (A, parent, B)")
        out = ground_all(kb, [g1, g2])
        assert {r for r in out} == {0, 1}

    def test_unmapped_rule_raises(self):
        kb = synthetic.family_kb()
        with pytest.raises(GroundingError):
            ground(kb, parse_rule("IF (A, parent, B) THEN (A, grandparent, B)"))

    def test_unclassified_single_rule_raises(self):
        kb = synthetic.family_kb()
        rule = classified(kb, "IF (A, parent, B) AND (C, parent, D) THEN (A, grandparent, B)")
        with pytest.raises(GroundingError):
            ground(kb, rule)


class TestWitnesses:
    def check_path(self, kb, rule, head, tail, path):
        assert len(path) == len(rule.body)
        env = {rule.head.subject: head, rule.head.object: tail}
        for atom, triple in zip(rule.body, path):
            assert kb.in_train(triple)
            assert triple.relation == atom.relation
            for var, val in ((atom.subject, triple.head), (atom.object, triple.tail)):
                assert env.setdefault(var, val) == val

    def test_paths_satisfy_rule_atoms(self):
        rng = np.random.default_rng(5)
        cases = list(CASE_FLAGS)
        checked = 0
        for _ in range(25):
            kb = synthetic.random_kb(rng, n_entities=10, n_relations=3, n_triples=45)
            case = cases[int(rng.integers(len(cases)))]
            rels = [kb.relation_name(int(rng.integers(3))) for _ in range(3)]
            rule = classified(kb, synthetic.case_rule_text(case, *rels, rh=rels[0]))
            g = ground(kb, rule)
            rows, cols, _ = g.body_count.coords()
            for h, t in list(zip(rows, cols))[:5]:
                paths = witness_paths(kb, rule, int(h), int(t), limit=3)
                assert 1 <= len(paths) <= 3
                for p in paths:
                    self.check_path(kb, rule, int(h), int(t), p)
                checked += 1
        assert checked > 20

    def test_no_support_means_no_paths(self):
        kb = synthetic.family_kb()
        rule = classified(kb, synthetic.PLANTED_RULE_TEXT)
        assert witness_paths(kb, rule, kb.entities.id("Charlie"), kb.entities.id("Anna")) == []

    def test_limit_respected_and_count_matches_support(self):
        # two bridge entities -> exactly two distinct paths
        kb = synthetic.build_kb(
            ["a", "b1", "b2", "c"],
            ["step", "jump"],
            [
                ("a", "step", "b1"),
                ("a", "step", "b2"),
                ("b1", "step", "c"),
                ("b2", "step", "c"),
                ("a", "jump", "c"),
            ],
        )
        rule = classified(kb, "IF (A, step, B) AND (B, step, C) THEN (A, jump, C)")
        g = ground(kb, rule)
        assert g.body_count.get(0, 3) == 2
        paths = witness_paths(kb, rule, 0, 3, limit=10)
        assert len(paths) == 2
        assert witness_paths(kb, rule, 0, 3, limit=1) == paths[:1]

    @settings(max_examples=60, deadline=None)
    @given(
        n_entities=st.integers(2, 6),
        edges=st.sets(st.tuples(st.integers(0, 5), st.integers(0, 2), st.integers(0, 5)), max_size=30),
        rel_picks=st.lists(st.integers(0, 2), min_size=4, max_size=4),
    )
    def test_paths_enumerate_every_body_binding(self, n_entities, edges, rel_picks):
        names = ["e%d" % i for i in range(n_entities)]
        rels = ["r%d" % i for i in range(3)]
        train = [(names[h], rels[r], names[t]) for h, r, t in edges if max(h, t) < n_entities]
        kb = synthetic.build_kb(names, rels, train)
        body_rels = [rels[i] for i in rel_picks[:3]]
        for case, flags in CASE_FLAGS.items():
            text = synthetic.case_rule_text(case, *body_rels, rh=rels[rel_picks[3]])
            rule = classified(kb, text)
            assert rule.case == case
            g = ground(kb, rule)
            for h in range(n_entities):
                for t in range(n_entities):
                    paths = witness_paths(kb, rule, h, t, limit=10**6)
                    assert len(paths) == g.body_count.get(h, t)
                    assert len(set(map(tuple, paths))) == len(paths)
                    for path in paths:  # a chain of train triples from h to t
                        assert len(path) == len(rule.body)
                        node = h
                        for triple, atom, rev in zip(path, rule.body, flags):
                            assert kb.in_train(triple) and triple.relation == atom.relation
                            src, dst = (triple.tail, triple.head) if rev else (triple.head, triple.tail)
                            assert src == node
                            node = dst
                        assert node == t

    def test_reversed_atoms_reuse_one_transpose(self):
        kb = synthetic.family_kb()
        rule = classified(kb, "IF (B, parent, A) THEN (A, grandparent, B)")
        assert kb.transposed(rule.body[0].relation) is kb.transposed(rule.body[0].relation)
        g = ground(kb, rule)
        np.testing.assert_array_equal(
            g.body_count.to_dense(), kb.matrices[rule.body[0].relation].to_dense().T
        )


class TestCache:
    def test_cache_round_trip(self, tmp_path):
        kb = synthetic.family_kb()
        rule = classified(kb, synthetic.PLANTED_RULE_TEXT)
        cache = str(tmp_path)
        first = ground(kb, rule, cache_dir=cache)
        files = os.listdir(cache)
        assert len(files) == 1
        second = ground(kb, rule, cache_dir=cache)
        assert first.body_count.equals(second.body_count)
        assert first.joint_count.equals(second.joint_count)

    def test_distinct_rules_get_distinct_entries(self, tmp_path):
        kb = synthetic.family_kb()
        r1 = classified(kb, synthetic.PLANTED_RULE_TEXT)
        r2 = classified(kb, "IF (A, parent, B) THEN (A, grandparent, B)")
        ground(kb, r1, cache_dir=str(tmp_path))
        ground(kb, r2, cache_dir=str(tmp_path))
        assert len(os.listdir(str(tmp_path))) == 2

    def test_unreadable_cache_entry_tolerated(self, tmp_path):
        kb = synthetic.family_kb()
        rule = classified(kb, synthetic.PLANTED_RULE_TEXT)
        ground(kb, rule, cache_dir=str(tmp_path))
        entry = os.path.join(str(tmp_path), os.listdir(str(tmp_path))[0])
        with open(entry, "wb") as fh:
            fh.write(b"garbage")
        g = ground(kb, rule, cache_dir=str(tmp_path))
        anna, charlie = kb.entities.id("Anna"), kb.entities.id("Charlie")
        assert g.joint_count.get(anna, charlie) == 1

    def test_ground_all_hashes_the_kb_once(self, tmp_path, monkeypatch):
        calls = []
        real = rulekbc.kb.kb_fingerprint
        monkeypatch.setattr(rulekbc.kb, "kb_fingerprint", lambda kb: calls.append(1) or real(kb))
        kb = synthetic.family_kb()
        rules = [
            classified(kb, synthetic.PLANTED_RULE_TEXT),
            classified(kb, "IF (A, parent, B) THEN (A, grandparent, B)"),
            classified(kb, "IF (B, parent, A) THEN (A, grandparent, B)"),
        ]
        cache = str(tmp_path)
        ground_all(kb, rules, cache_dir=cache)  # misses: load and store per rule
        ground_all(kb, rules, cache_dir=cache)  # hits
        assert len(os.listdir(cache)) == 3
        assert len(calls) == 1

    def test_kbs_with_different_train_never_share_entries(self, tmp_path):
        kb_a = synthetic.family_kb(with_head=True)
        kb_b = synthetic.family_kb(with_head=False)
        assert kb_a.num_entities == kb_b.num_entities
        cache = str(tmp_path)
        for kb in (kb_a, kb_b, kb_a, kb_b):
            rule = classified(kb, synthetic.PLANTED_RULE_TEXT)
            got = ground(kb, rule, cache_dir=cache)
            want = ground(kb, rule)
            assert got.body_count.equals(want.body_count)
            assert got.joint_count.equals(want.joint_count)
        assert len(os.listdir(cache)) == 2

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda n, e: dict(e, dim=n + 1),  # shape of another KB, indices in range
            lambda n, e: dict(
                e,
                a_rows=np.append(e["a_rows"], n),
                a_cols=np.append(e["a_cols"], 0),
                a_vals=np.append(e["a_vals"], 1),
            ),
            lambda n, e: dict(e, c_cols=np.concatenate([[-1], e["c_cols"][1:]])),
        ],
        ids=["dim", "row-past-end", "negative-col"],
    )
    def test_invalid_entry_is_regrounded_and_overwritten(self, tmp_path, caplog, corrupt):
        kb = synthetic.family_kb()
        rule = classified(kb, synthetic.PLANTED_RULE_TEXT)
        cache = str(tmp_path)
        ground(kb, rule, cache_dir=cache)
        path = os.path.join(cache, _cache_key(kb, rule) + ".npz")
        with np.load(path) as z:
            entry = {k: z[k] for k in z.files}
        np.savez(path, **corrupt(kb.num_entities, entry))
        got = ground(kb, rule, cache_dir=cache)
        want = ground(kb, rule)
        assert got.body_count.equals(want.body_count)
        assert got.joint_count.equals(want.joint_count)
        assert "discarding invalid cache entry" in caplog.text
        with np.load(path) as z:
            assert {k: z[k].tolist() for k in z.files} == {k: v.tolist() for k, v in entry.items()}
