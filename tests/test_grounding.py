"""Grounding against an independent binding-enumeration oracle."""

import io
import itertools
import os
import shutil
import tempfile
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rulekbc.kb
import synthetic
from dense_oracle import dense_evidence
from rulekbc import grounding
from rulekbc.grounding import (
    GroundingError,
    _cache_key,
    _entry_counts,
    ground,
    ground_all,
    score,
    witness_paths,
)
from rulekbc.kb import SATURATION_CAP, KBError, KnowledgeBase
from rulekbc.rules import CASE_FLAGS, UNCLASSIFIED, format_rule, parse_rule
from rulekbc.trainer import _evidence, _RelationData


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


# a small random KB over three relations, and four relation picks
RANDOM_KB = dict(
    n_entities=st.integers(2, 6),
    edges=st.sets(st.tuples(st.integers(0, 5), st.integers(0, 2), st.integers(0, 5)), max_size=30),
    rel_picks=st.lists(st.integers(0, 2), min_size=4, max_size=4),
)


def kb_and_case_rules(n_entities, edges, rel_picks):
    """The KB drawn from `RANDOM_KB` and one classified rule per case: the
    first three picks are the body relations, the last the head's."""
    names = ["e%d" % i for i in range(n_entities)]
    rels = ["r%d" % i for i in range(3)]
    train = [(names[h], rels[r], names[t]) for h, r, t in edges if max(h, t) < n_entities]
    kb = synthetic.build_kb(names, rels, train)
    body_rels = [rels[i] for i in rel_picks[:3]]
    texts = [synthetic.case_rule_text(case, *body_rels, rh=rels[rel_picks[3]]) for case in CASE_FLAGS]
    return kb, [synthetic.classified_rule(kb, text) for text in texts]


class TestFamilyToy:
    def test_bridged_pair_with_direct_edge(self):
        kb = synthetic.family_kb(with_head=True)
        rule = synthetic.classified_rule(kb, synthetic.PLANTED_RULE_TEXT)
        g = ground(kb, rule)
        anna, charlie = kb.entities.id("Anna"), kb.entities.id("Charlie")
        assert g.joint_count.get(anna, charlie) == 1
        assert g.body_count.get(anna, charlie) == 1
        assert score(g, anna, charlie) == 1

    def test_bridged_pair_without_direct_edge_scores_negative(self):
        kb = synthetic.family_kb(with_head=False)
        rule = synthetic.classified_rule(kb, synthetic.PLANTED_RULE_TEXT)
        g = ground(kb, rule)
        anna, charlie = kb.entities.id("Anna"), kb.entities.id("Charlie")
        assert g.joint_count.get(anna, charlie) == 0
        assert g.body_count.get(anna, charlie) == 1
        assert score(g, anna, charlie) == -1

    def test_unsupported_pair_scores_zero(self):
        kb = synthetic.family_kb(with_head=True)
        rule = synthetic.classified_rule(kb, synthetic.PLANTED_RULE_TEXT)
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
                rule = synthetic.classified_rule(kb, synthetic.case_rule_text(case, *rels, rh=rh))
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
            rule = synthetic.classified_rule(kb, synthetic.case_rule_text(case, *rels, rh=rels[0]))
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
        self.rule = synthetic.classified_rule(
            self.kb, synthetic.case_rule_text("1-1", "r0", "r1", rh="r2")
        )
        self.g = ground(self.kb, self.rule)

    @settings(max_examples=60, deadline=None)
    @given(heads=st.lists(st.integers(0, 5), max_size=8), twice=st.booleans(), **RANDOM_KB)
    # (e0, r1, e1) listed twice and fired once by case 0-1: A = C * M = 2 there
    @example(heads=[0], twice=True, n_entities=2, edges={(0, 0, 1), (0, 1, 1)}, rel_picks=[0, 0, 0, 1])
    def test_evidence_blocks_are_pointwise_score_and_body_count(
        self, n_entities, edges, rel_picks, heads, twice
    ):
        kb, case_rules = kb_and_case_rules(n_entities, edges, rel_picks)
        rel = case_rules[0].head.relation
        if twice:  # one head triple listed twice: M and A read 2 at its pair
            train = np.concatenate([kb.arrays["train"], kb.arrays["train"][kb.train_by_relation(rel)[:1]]])
            kb = KnowledgeBase(kb.entities, kb.relations, train, [], [])
        gs = [ground(kb, rule) for rule in case_rules]
        heads = [h for h in heads if h < n_entities]
        train_heads = np.flatnonzero(kb.matrices[rel].to_dense().any(axis=1))
        train_block = _RelationData(kb, rel, gs, None).train
        support_block = _evidence(kb, rel, gs, None, heads)
        signed, support = dense_evidence(train_block), dense_evidence(support_block)
        assert signed.shape == (len(train_heads), len(gs), n_entities)
        assert support.shape == (len(heads), len(gs), n_entities)
        for gi, g in enumerate(gs):
            c = g.body_count.to_dense()
            for hi, h in enumerate(train_heads):
                assert signed[hi, gi].tolist() == [score(g, h, t) for t in range(n_entities)]
            for hi, h in enumerate(heads):
                assert support[hi, gi].tolist() == c[h].tolist()
        for block in (train_block, support_block):
            assert (block.value != 0).all()  # nonzeros only, so no -0.0 either
            # sorted by cell, by rule within a cell
            assert (np.lexsort((block.rule, block.key)) == np.arange(len(block.key))).all()
            np.testing.assert_array_equal(block.active, (dense_evidence(block) != 0).any(axis=2))
            assert block.F is None  # no model: no embedding rows

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
        good = synthetic.classified_rule(kb, synthetic.PLANTED_RULE_TEXT)
        bad = synthetic.classified_rule(kb, "IF (A, parent, B) AND (C, parent, D) THEN (A, grandparent, B)")
        out = ground_all(kb, [good, bad])
        rel = kb.relations.id("grandparent")
        assert len(out[rel]) == 1

    def test_grouped_by_head_relation(self):
        kb = synthetic.family_kb()
        g1 = synthetic.classified_rule(kb, "IF (A, parent, B) THEN (A, grandparent, B)")
        g2 = synthetic.classified_rule(kb, "IF (A, grandparent, B) THEN (A, parent, B)")
        out = ground_all(kb, [g1, g2])
        assert {r for r in out} == {0, 1}

    def test_unmapped_rule_raises(self):
        kb = synthetic.family_kb()
        with pytest.raises(GroundingError):
            ground(kb, parse_rule("IF (A, parent, B) THEN (A, grandparent, B)"))

    def test_unclassified_single_rule_raises(self):
        kb = synthetic.family_kb()
        rule = synthetic.classified_rule(kb, "IF (A, parent, B) AND (C, parent, D) THEN (A, grandparent, B)")
        with pytest.raises(GroundingError):
            ground(kb, rule)


class TestWitnesses:
    def check_path(self, kb, rule, head, tail, path):
        assert len(path) == len(rule.body)
        env = {rule.head.subject: head, rule.head.object: tail}
        for atom, triple in zip(rule.body, path):
            assert triple in kb.train
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
            rule = synthetic.classified_rule(kb, synthetic.case_rule_text(case, *rels, rh=rels[0]))
            g = ground(kb, rule)
            rows, cols = np.nonzero(g.body_count.to_dense())
            for h, t in list(zip(rows, cols))[:5]:
                paths = witness_paths(kb, rule, int(h), int(t), limit=3)
                assert 1 <= len(paths) <= 3
                for p in paths:
                    self.check_path(kb, rule, int(h), int(t), p)
                checked += 1
        assert checked > 20

    def test_no_support_means_no_paths(self):
        kb = synthetic.family_kb()
        rule = synthetic.classified_rule(kb, synthetic.PLANTED_RULE_TEXT)
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
        rule = synthetic.classified_rule(kb, "IF (A, step, B) AND (B, step, C) THEN (A, jump, C)")
        g = ground(kb, rule)
        assert g.body_count.get(0, 3) == 2
        paths = witness_paths(kb, rule, 0, 3, limit=10)
        assert len(paths) == 2
        assert witness_paths(kb, rule, 0, 3, limit=1) == paths[:1]

    def test_limit_zero_gives_no_path_and_a_negative_one_is_refused(self):
        kb = synthetic.family_kb()
        rule = synthetic.classified_rule(kb, synthetic.PLANTED_RULE_TEXT)
        rows, cols = np.nonzero(ground(kb, rule).body_count.to_dense())
        h, t = int(rows[0]), int(cols[0])
        assert witness_paths(kb, rule, h, t, limit=0) == []
        assert len(witness_paths(kb, rule, h, t, limit=1)) == 1
        with pytest.raises(ValueError, match="limit must be >= 0, got -1"):
            witness_paths(kb, rule, h, t, limit=-1)

    @settings(max_examples=60, deadline=None)
    @given(**RANDOM_KB)
    def test_paths_enumerate_every_body_binding(self, n_entities, edges, rel_picks):
        kb, case_rules = kb_and_case_rules(n_entities, edges, rel_picks)
        for (case, flags), rule in zip(CASE_FLAGS.items(), case_rules):
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
                            assert triple in kb.train and triple.relation == atom.relation
                            src, dst = (triple.tail, triple.head) if rev else (triple.head, triple.tail)
                            assert src == node
                            node = dst
                        assert node == t

    def test_reversed_atoms_reuse_one_transpose(self):
        kb = synthetic.family_kb()
        rule = synthetic.classified_rule(kb, "IF (B, parent, A) THEN (A, grandparent, B)")
        assert kb.transposed(rule.body[0].relation) is kb.transposed(rule.body[0].relation)
        g = ground(kb, rule)
        np.testing.assert_array_equal(
            g.body_count.to_dense(), kb.matrices[rule.body[0].relation].to_dense().T
        )


def _npz_bytes(**arrays):
    """The bytes of an `np.savez` archive of `arrays`."""
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    return buf.getvalue()


def _in_row_0(cols):
    """An entry with counts of 1 at columns `cols` of row 0 and no other."""
    return np.array([[0] * len(cols), cols, [1] * len(cols)], dtype=np.int64)


def _npy_bytes(array):
    buf = io.BytesIO()
    np.save(buf, array)
    return buf.getvalue()


# rules over family_kb with both of its relations as heads and one reversed atom
FAMILY_RULES = (
    synthetic.PLANTED_RULE_TEXT,
    "IF (A, parent, B) THEN (A, grandparent, B)",
    "IF (B, parent, A) THEN (A, grandparent, B)",
    "IF (A, grandparent, B) THEN (A, parent, B)",
)


def family_rules(kb):
    return [synthetic.classified_rule(kb, text) for text in FAMILY_RULES]


def canonical(grouped):
    """head relation -> (rule text, CSR arrays of C, of A, head matrix
    identity) of each grounding, in order."""
    def arrays(m):
        return [m.indptr.tolist(), m.indices.tolist(), m.data.tolist()]

    return {
        rel: [(format_rule(g.rule), arrays(g.body_count), arrays(g.joint_count), id(g.head_matrix)) for g in gs]
        for rel, gs in grouped.items()
    }


def entry_name(kb, rules):
    return _cache_key(kb, [r for r in rules if r.case != UNCLASSIFIED]) + ".npy"


class TestCache:
    def test_cache_round_trip(self, tmp_path, monkeypatch):
        kb = synthetic.family_kb()
        rules = family_rules(kb)
        cache = str(tmp_path)
        want = canonical(ground_all(kb, rules))
        first = ground_all(kb, rules, cache_dir=cache)
        assert os.listdir(cache) == [entry_name(kb, rules)]
        # a hit grounds nothing: every C is a view of the entry's rows
        monkeypatch.setattr(grounding, "ground", None)
        second = ground_all(kb, rules, cache_dir=cache)
        assert canonical(first) == canonical(second) == want
        for gs in second.values():
            for g in gs:
                assert g.head_matrix is kb.matrices[g.rule.head.relation]
                assert g.body_count.indptr[0] == 0 and g.body_count.dim == kb.num_entities
        assert os.listdir(cache) == [entry_name(kb, rules)]

    def test_distinct_rules_get_distinct_entries(self, tmp_path):
        kb = synthetic.family_kb()
        rules = family_rules(kb)
        cache = str(tmp_path)
        # a rule set is keyed by its rules in order: a subset or a reordering is another set
        sets = [rules, rules[:2], rules[::-1], rules]
        assert len({entry_name(kb, s) for s in sets}) == 3
        for s in sets:
            got = ground_all(kb, s, cache_dir=cache)
            assert canonical(got) == canonical(ground_all(kb, s))
            assert os.listdir(cache) == [entry_name(kb, s)]

    def test_unreadable_cache_entry_tolerated(self, tmp_path, caplog):
        kb = synthetic.family_kb()
        rules = family_rules(kb)
        ground_all(kb, rules, cache_dir=str(tmp_path))
        entry = os.path.join(str(tmp_path), entry_name(kb, rules))
        with open(entry, "wb") as fh:
            fh.write(b"garbage")
        got = ground_all(kb, rules, cache_dir=str(tmp_path))
        assert canonical(got) == canonical(ground_all(kb, rules))
        assert caplog.text.count("discarding invalid cache entry") == 1
        anna, charlie = kb.entities.id("Anna"), kb.entities.id("Charlie")
        assert got[kb.relations.id("grandparent")][0].joint_count.get(anna, charlie) == 1

    def test_ground_all_hashes_the_kb_once(self, tmp_path, monkeypatch):
        calls = []
        real = rulekbc.kb.kb_fingerprint
        monkeypatch.setattr(rulekbc.kb, "kb_fingerprint", lambda kb: calls.append(1) or real(kb))
        kb = synthetic.family_kb()
        rules = family_rules(kb)
        cache = str(tmp_path)
        ground_all(kb, rules, cache_dir=cache)  # a miss: load, then store
        ground_all(kb, rules, cache_dir=cache)  # a hit
        assert os.listdir(cache) == [entry_name(kb, rules)]
        assert len(calls) == 1

    def test_kbs_with_different_train_never_share_entries(self, tmp_path):
        kb_a = synthetic.family_kb(with_head=True)
        kb_b = synthetic.family_kb(with_head=False)
        assert kb_a.num_entities == kb_b.num_entities
        cache = str(tmp_path)
        for kb in (kb_a, kb_b, kb_a, kb_b):
            rules = family_rules(kb)
            got = ground_all(kb, rules, cache_dir=cache)
            assert canonical(got) == canonical(ground_all(kb, rules))
            assert os.listdir(cache) == [entry_name(kb, rules)]
        assert entry_name(kb_a, family_rules(kb_a)) != entry_name(kb_b, family_rules(kb_b))

    def test_store_prunes_every_other_entry(self, tmp_path):
        kb = synthetic.family_kb()
        rules = family_rules(kb)
        cache = str(tmp_path)
        ground_all(kb, rules[:2], cache_dir=cache)  # the entry of another rule set
        for rule in rules:  # per-rule entries as older versions wrote them
            c = ground(kb, rule).body_count
            old = os.path.join(cache, _cache_key(kb, [rule]) + ".npz")
            np.savez(old, indptr=c.indptr, indices=c.indices, data=c.data)
        (tmp_path / "notes.txt").write_text("not an entry")
        assert len(os.listdir(cache)) == 6
        got = ground_all(kb, rules, cache_dir=cache)
        assert canonical(got) == canonical(ground_all(kb, rules))
        assert sorted(os.listdir(cache)) == sorted([entry_name(kb, rules), "notes.txt"])

    @pytest.mark.parametrize(
        "spoil",
        [
            lambda kb, rule: replace(parse_rule(format_rule(rule, kb)), case=rule.case),  # names, not ids
            lambda kb, rule: replace(rule, case="9-9"),
        ],
        ids=["unmapped", "unknown-case"],
    )
    def test_ungroundable_rule_raises_with_and_without_entry(self, tmp_path, spoil):
        kb = synthetic.family_kb()
        rules = family_rules(kb)
        cache = str(tmp_path)
        ground_all(kb, rules, cache_dir=cache)
        spoilt = rules[:-1] + [spoil(kb, rules[-1])]
        assert spoilt[-1].case != UNCLASSIFIED
        # a valid entry under the spoilt set's name does not let it through
        shutil.copy(os.path.join(cache, entry_name(kb, rules)), os.path.join(cache, entry_name(kb, spoilt)))
        for cache_dir in (cache, None, str(tmp_path / "empty")):
            with pytest.raises(GroundingError):
                ground_all(kb, spoilt, cache_dir=cache_dir)
        assert sorted(os.listdir(cache)) == sorted([entry_name(kb, rules), entry_name(kb, spoilt)])

    def test_out_of_square_entry_rejected(self):
        # an entry of a 2 x 3 matrix: a count in column 2
        with pytest.raises(KBError, match="square"):
            _entry_counts(np.array([[0], [2], [1]]), 2, 2)

    def test_counts_above_the_cap_rejected(self):
        def entry(count):
            return np.array([[0], [1], [count]], dtype=np.int64)

        assert _entry_counts(entry(SATURATION_CAP), 2, 2)[2].tolist() == [SATURATION_CAP]
        for count in (SATURATION_CAP + 1, 2**40):
            with pytest.raises(KBError, match="count outside"):
                _entry_counts(entry(count), 2, 2)

    @settings(max_examples=40, deadline=None)
    @given(picks=st.lists(st.integers(0, len(CASE_FLAGS)), max_size=6), **RANDOM_KB)
    def test_cached_groundings_equal_uncached(self, n_entities, edges, rel_picks, picks):
        kb, case_rules = kb_and_case_rules(n_entities, edges, rel_picks)
        unclassified = synthetic.classified_rule(kb, "IF (A, r0, B) AND (C, r1, D) THEN (A, r2, B)")
        assert unclassified.case == UNCLASSIFIED
        rules = [(case_rules + [unclassified])[i] for i in picks]
        want = canonical(ground_all(kb, rules))
        with tempfile.TemporaryDirectory() as cache:
            cold = canonical(ground_all(kb, rules, cache_dir=cache))
            warm = canonical(ground_all(kb, rules, cache_dir=cache))
            assert os.listdir(cache) == [entry_name(kb, rules)]
            entry = np.load(os.path.join(cache, entry_name(kb, rules)))
            assert entry.shape == (3, sum(len(c[1][1]) for gs in want.values() for c in gs))
        assert cold == warm == want

    @pytest.mark.parametrize(
        "corrupt",
        # e is the (3, nnz) entry of (row, column, count) arrays, s its
        # stack; an array is written with np.save, bytes as they are
        [
            lambda s, e: e.T,  # the (row, column, count) triples as rows
            lambda s, e: np.concatenate([e[:, :-1], [[e[0, -1]], [s.n], [1]]], axis=1),
            lambda s, e: np.concatenate([[[e[0, 0]], [-1], [1]], e[:, 1:]], axis=1),
            lambda s, e: np.concatenate([e[:2], [np.concatenate([[-1], e[2, 1:]])]]),
            lambda s, e: e[:, ::-1],  # rows decrease
            lambda s, e: _npz_bytes(**s.parent_arrays),  # the stacked CSR archive of earlier versions
            lambda s, e: np.concatenate([[[-1], [0], [1]], e], axis=1),  # a row before the stack
            lambda s, e: np.concatenate([e[:, :-1], [[s.rows], [0], [1]]], axis=1),  # the last row past it
            lambda s, e: e[:2],  # no counts
            lambda s, e: _in_row_0([3, 1]),
            lambda s, e: _in_row_0([2, 2]),
            lambda s, e: np.concatenate([e[:2], [np.concatenate([[0], e[2, 1:]])]]),
            lambda s, e: np.concatenate([e[:2], [np.concatenate([[2**40], e[2, 1:]])]]),
            lambda s, e: e.astype(float),
            lambda s, e: e.ravel(),
            # one rule more than the set has
            lambda s, e: np.concatenate([e, [[s.rows], [0], [1]]], axis=1),
            lambda s, e: _npy_bytes(e)[:-8],  # truncated
            lambda s, e: e[:, [-1] + list(range(1, e.shape[1] - 1)) + [0]],  # first and last swapped
            lambda s, e: e.astype(np.int32),
        ],
        ids=[
            "dim", "col-past-end", "negative-col", "negative-count", "decreasing-indptr", "parent-format",
            "indptr-start", "indptr-end", "data-length", "unsorted-cols", "duplicate-cols", "zero-count", "above-cap",
            "float-data", "2d-indices", "rows", "truncated", "swapped", "int32",
        ],
    )
    def test_invalid_entry_is_regrounded_and_overwritten(self, tmp_path, caplog, corrupt):
        kb = synthetic.family_kb()
        rules = family_rules(kb)
        cache = str(tmp_path)
        want = ground_all(kb, rules)
        ground_all(kb, rules, cache_dir=cache)
        path = os.path.join(cache, entry_name(kb, rules))
        entry = np.load(path)
        n = kb.num_entities
        rows = len(rules) * n
        # the same counts as one rows x n CSR matrix
        indptr = np.concatenate([[0], np.cumsum(np.bincount(entry[0], minlength=rows))])
        parent_arrays = dict(indptr=indptr, indices=entry[1], data=entry[2])
        stack = SimpleNamespace(n=n, rows=rows, parent_arrays=parent_arrays)
        assert entry.dtype == np.int64 and entry.shape[1] > 3 and n > 3
        bad = corrupt(stack, entry)
        with open(path, "wb") as fh:
            fh.write(bad if isinstance(bad, bytes) else _npy_bytes(bad))
        got = ground_all(kb, rules, cache_dir=cache)
        assert canonical(got) == canonical(want)
        assert caplog.text.count("discarding invalid cache entry") == 1
        assert os.listdir(cache) == [entry_name(kb, rules)]
        np.testing.assert_array_equal(np.load(path), entry)
