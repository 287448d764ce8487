"""Ranking metrics, rule-quality aggregates and model evaluation."""

from unittest import mock

import numpy as np
import pytest

import synthetic
from rulekbc.evaluation import (
    compute_metrics,
    compute_rule_quality,
    evaluate_model,
    load_annotations,
    rule_quality_from_counts,
)
from rulekbc.grounding import ground_all
from rulekbc.kb import KBError, KnowledgeBase
from rulekbc.rules import format_rule
from rulekbc.trainer import TrainerConfig, rank, train


class TestComputeMetrics:
    def test_reference_ranks(self):
        rep = compute_metrics([1, 2, 4])
        assert rep.query_count == 3
        assert rep.mr == pytest.approx(7 / 3, abs=1e-4)
        assert rep.mrr == pytest.approx(0.5833, abs=1e-4)
        assert rep.hits[1] == pytest.approx(1 / 3, abs=1e-3)
        assert rep.hits[3] == pytest.approx(0.667, abs=1e-3)
        assert rep.hits[10] == 1.0

    def test_fractional_tie_ranks(self):
        rep = compute_metrics([1.5, 1.5])
        assert rep.mr == 1.5
        assert rep.mrr == pytest.approx(2 / 3)
        assert rep.hits[1] == 0.0  # a 1.5 rank is not a hit at 1

    def test_against_naive_recomputation(self):
        rng = np.random.default_rng(0)
        for _ in range(40):
            m = int(rng.integers(1, 60))
            ranks = [
                float(rng.integers(1, 30)) + (0.5 if rng.random() < 0.3 else 0.0)
                for _ in range(m)
            ]
            rep = compute_metrics(ranks)
            assert rep.mr == pytest.approx(sum(ranks) / m, abs=1e-12)
            assert rep.mrr == pytest.approx(sum(1.0 / r for r in ranks) / m, abs=1e-12)
            for k in (1, 3, 10):
                assert rep.hits[k] == pytest.approx(
                    sum(1 for r in ranks if r <= k) / m, abs=1e-12
                )
            assert rep.hits[1] <= rep.hits[3] <= rep.hits[10]

    def test_permutation_invariance(self):
        a = compute_metrics([3, 1, 7, 2, 2])
        b = compute_metrics([2, 7, 2, 1, 3])
        assert a == b

    def test_empty_rejected(self):
        with pytest.raises(KBError, match="zero queries"):
            compute_metrics([])

    def test_sub_one_rank_rejected(self):
        with pytest.raises(KBError, match=">= 1"):
            compute_metrics([1, 0.5])

    def test_render_text_shape(self):
        text = compute_metrics([1, 2, 4]).render_text()
        lines = text.splitlines()
        assert len(lines) == 2
        assert "MRR" in lines[0]
        assert "0.5833" in lines[1]

    def test_to_dict_keys(self):
        d = compute_metrics([2]).to_dict()
        assert set(d) == {"queries", "mr", "mrr", "hits"}
        assert set(d["hits"]) == {"1", "3", "10"}


class TestRuleQuality:
    def test_reference_aggregate(self):
        rep = rule_quality_from_counts(794, 406, 0.428)
        assert rep.rqi == pytest.approx(46.60, abs=0.05)

    def test_reference_coverage_ratio(self):
        rep = rule_quality_from_counts(1406, 1106, 0.5)
        assert rep.hcr == pytest.approx(78.66, abs=0.01)

    def test_zero_path_score_zeroes_index(self):
        rep = rule_quality_from_counts(10, 5, 0.0)
        assert rep.rqi == 0.0

    def test_no_high_conf_rules(self):
        rep = rule_quality_from_counts(10, 0, 0.0)
        assert rep.hcr == 0.0
        assert rep.rqi == 0.0

    def test_agreement_when_components_equal(self):
        # harmonic mean of equal terms is the term itself
        rep = rule_quality_from_counts(10, 6, 0.6)
        assert rep.rqi == pytest.approx(60.0, abs=1e-9)

    def test_inconsistent_counts_rejected(self):
        with pytest.raises(KBError, match="inconsistent"):
            rule_quality_from_counts(0, 0, 0.5)
        with pytest.raises(KBError, match="inconsistent"):
            rule_quality_from_counts(5, 6, 0.5)
        with pytest.raises(KBError, match="inconsistent"):
            rule_quality_from_counts(5, -1, 0.5)

    def test_render_text(self):
        assert "HCR=50.00%" in rule_quality_from_counts(10, 5, 0.4).render_text()


class TestAnnotations:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "ann.tsv"
        path.write_text(
            "IF (A, parent, B) THEN (A, grandparent, B)\t1,0.5,0\n"
            "\n"
            "other rule\t1\n"
        )
        ann = load_annotations(str(path))
        assert ann["IF (A, parent, B) THEN (A, grandparent, B)"] == [1.0, 0.5, 0.0]
        assert ann["other rule"] == [1.0]

    @pytest.mark.parametrize(
        "text, message",  # message: the line number and what is wrong with it
        [
            ("rule without scores\n", "1: expected <rule>TAB<scores>"),
            ("rule\t1,x\n", "1: bad score list"),
            ("rule\t0.3\n", "1: path score 0.3 not in {0, 0.5, 1}"),
            # one line per rule: a second line for it is refused, not last-wins
            ("IF (A, r, B) THEN (A, s, B)\t1,0.5\n\nIF (A, r, B) THEN (A, s, B)\t0\n",
             "3: rule annotated again (first on line 1)"),
        ],
        ids=["missing-tab", "non-numeric-score", "out-of-scale-score", "repeated-rule"],
    )
    def test_malformed_file_rejected(self, tmp_path, text, message):
        path = tmp_path / "ann.tsv"
        path.write_text(text)
        with pytest.raises(KBError) as exc:
            load_annotations(str(path))
        assert str(exc.value) == "%s:%s" % (path, message)

    def test_quality_from_annotations(self, tmp_path):
        kb = synthetic.family_kb()
        planted = synthetic.classified_rule(kb, synthetic.PLANTED_RULE_TEXT)
        decoy = synthetic.classified_rule(kb, "IF (A, parent, B) THEN (A, grandparent, B)")
        path = tmp_path / "ann.tsv"
        path.write_text("%s\t1,0.5\n" % format_rule(planted, kb))
        rep = compute_rule_quality([planted, decoy], load_annotations(str(path)), kb)
        assert rep.learned_count == 2
        assert rep.high_conf_count == 1
        assert rep.hcr == pytest.approx(50.0)
        assert rep.rcs == pytest.approx(0.75)
        assert rep.rqi == pytest.approx(100.0 * 2 * 0.5 * 0.75 / 1.25)

    def test_empty_rule_set_rejected(self):
        kb = synthetic.family_kb()
        with pytest.raises(KBError, match="empty rule set"):
            compute_rule_quality([], {}, kb)


class TestEvaluateModel:
    def test_matches_manual_rank_loop(self):
        kb, pool, _ = synthetic.planted_kb(0)
        groundings = ground_all(kb, pool)
        cfg = TrainerConfig(lr=0.1, max_epochs=60, patience=15)
        params, _ = train(kb, groundings, None, cfg)
        rep = evaluate_model(params, kb, groundings, None, split="valid")
        manual = []
        for t in kb.valid:
            res = rank(params, kb, groundings, None, t.head, t.relation, gold=t.tail, top_k=0)
            manual.append(res.gold_rank)
        expected = compute_metrics(manual)
        assert rep == expected
        assert rep.query_count == len(kb.arrays["valid"])

    def test_reads_the_split_arrays(self):
        # ranking a split builds no Triple list of it; an unknown split is named
        kb, pool, _ = synthetic.planted_kb(0)
        groundings = ground_all(kb, pool)
        params, _ = train(kb, groundings, None, TrainerConfig(max_epochs=2))

        def no_list(_):
            raise AssertionError("evaluate_model built a Triple list of a split")

        lists = {name: property(no_list) for name in ("train", "valid", "test")}
        with mock.patch.multiple(KnowledgeBase, **lists):
            evaluate_model(params, kb, groundings, None, split="test")
        with pytest.raises(KBError, match="unknown split 'train2'"):
            evaluate_model(params, kb, groundings, None, split="train2")

    def test_empty_split_rejected(self):
        kb = synthetic.family_kb()
        params, _ = train(kb, {}, None, TrainerConfig(max_epochs=0))
        with pytest.raises(KBError, match="zero queries"):
            evaluate_model(params, kb, {}, None, split="test")
