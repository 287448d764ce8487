"""Combined scoring, masked softmax weighting, training loop, ranking."""

import dataclasses
import functools
import hashlib
import json
import os
import re
import tempfile
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_oracle
import gradcheck
import synthetic
from rulekbc import grounding, rotate, trainer
from rulekbc.evaluation import evaluate_model
from rulekbc.grounding import ground_all
from rulekbc.kb import KBError
from rulekbc.rules import TrigramSimilarity, classify_case, map_relations, parse_rule
from rulekbc.trainer import (
    RelationParams,
    TrainerConfig,
    _evidence,
    _gold_ranks,
    _Queries,
    _RelationData,
    check_checkpoint_rules,
    combined_score,
    gold_ranks,
    load_params,
    masked_weights,
    normalize_embedding_row,
    rank,
    relation_loss_and_grads,
    save_params,
    sigmoid,
    softmax,
    train,
)


def _scores(block, logits, mix_logit):
    """The block's whole score matrix Z: copies of the chunks of
    `trainer._score_chunks`, stacked."""
    chunks = trainer._score_chunks(block, *trainer._weights(block, logits, mix_logit))
    return np.concatenate([Z.copy() for _, _, Z, _ in chunks])


def _rank_of_gold(scores, gold, keep):
    """`_gold_ranks` for one row, excluding the tails that `keep` does not."""
    excluded = np.flatnonzero(~np.asarray(keep))
    filtered = (np.zeros_like(excluded), excluded)
    return _gold_ranks(np.asarray(scores)[None], np.array([gold]), filtered)[0]


class TestSoftmaxInvariants:
    def test_thousand_random_vectors_sum_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            size = int(rng.integers(1, 12))
            scale = 10.0 ** rng.integers(-3, 7)
            x = rng.normal(scale=scale, size=size)
            p = softmax(x)
            assert abs(p.sum() - 1.0) < 1e-9
            assert (p >= 0).all()
            assert np.isfinite(p).all()
            assert int(np.argmax(p)) == int(np.argmax(x))

    def test_shift_invariance(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=8)
        np.testing.assert_allclose(softmax(x), softmax(x + 123.456), atol=1e-12)

    def test_sigmoid_extremes(self):
        assert sigmoid(0.0) == pytest.approx(0.5)
        assert sigmoid(100.0) == pytest.approx(1.0)
        assert sigmoid(-100.0) == pytest.approx(0.0)
        assert np.isfinite(sigmoid(-1e4))


class TestMaskedWeights:
    def test_inactive_rules_get_exact_zero(self):
        logits = np.array([0.3, -0.2, 0.8, 0.1])
        active = np.array([[True, False, True]])
        w = masked_weights(logits, active)[0]
        assert w[1] == 0.0
        assert w.sum() == pytest.approx(1.0, abs=1e-12)

    def test_all_rules_inactive_gives_embedding_everything(self):
        logits = np.array([5.0, 5.0, -3.0])
        active = np.array([[False, False]])
        w = masked_weights(logits, active)[0]
        np.testing.assert_allclose(w, [0.0, 0.0, 1.0])

    def test_equal_logits_split_evenly_among_active(self):
        logits = np.zeros(4)
        active = np.array([[True, True, False]])
        w = masked_weights(logits, active)[0]
        np.testing.assert_allclose(w, [1 / 3, 1 / 3, 0.0, 1 / 3])


class TestNormalizeEmbeddingRow:
    def test_flat_row_collapses_to_zeros(self):
        np.testing.assert_array_equal(normalize_embedding_row(np.full(5, 3.3)), np.zeros(5))

    def test_min_max_endpoints(self):
        row = normalize_embedding_row(np.array([-2.0, 0.0, 6.0]))
        np.testing.assert_allclose(row, [0.0, 0.25, 1.0])


class TestCombinedScore:
    def test_no_rules_uses_embedding_only(self):
        rp = RelationParams(logits=np.zeros(1), mix_logit=0.0)
        emb = np.array([0.1, 0.9, 0.4])
        got = combined_score(rp, [], emb)
        np.testing.assert_allclose(got, 0.5 * emb)

    def test_rule_dominates_when_mix_saturated(self):
        rp = RelationParams(logits=np.zeros(2), mix_logit=50.0)
        row = np.array([3.0, 0.0, 1.0])
        got = combined_score(rp, [row], np.array([0.0, 1.0, 0.0]))
        np.testing.assert_allclose(got, 0.5 * np.array([3.0, 0.0, 1.0]), atol=1e-12)

    def test_hand_computed_blend(self):
        rp = RelationParams(logits=np.array([np.log(2.0), 0.0, 0.0]), mix_logit=0.0)
        r1 = np.array([2.0, 0.0, 0.0])
        r2 = np.array([0.0, 1.0, 0.0])
        emb = np.array([0.0, 0.0, 1.0])
        got = combined_score(rp, [r1, r2], emb)
        expected = 0.5 * (0.5 * r1 + 0.25 * r2) + 0.5 * 0.25 * emb
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_zero_row_rule_removal_is_exact(self):
        # a rule with an all-zero row must leave the score vector bit-identical
        # to the same model with that rule deleted outright
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = int(rng.integers(2, 6))
            e = int(rng.integers(3, 8))
            logits = rng.normal(size=n + 1)
            dead = int(rng.integers(n))
            rows = rng.integers(-2, 3, size=(n, e)).astype(float)
            rows[dead] = 0.0
            emb = rng.random(e)
            full = RelationParams(logits=logits.copy(), mix_logit=float(rng.normal()))
            reduced = RelationParams(
                logits=np.delete(logits, dead), mix_logit=full.mix_logit
            )
            got_full = combined_score(full, rows, emb)
            got_reduced = combined_score(reduced, np.delete(rows, dead, axis=0), emb)
            np.testing.assert_array_equal(got_full, got_reduced)


class TestLossAndGrads:
    def test_matches_central_differences(self):
        for seed in range(3):
            assert gradcheck.trainer_fd_check(seed) < 1e-4

    def test_matches_central_differences_without_embedding(self):
        for seed in range(3):
            assert gradcheck.trainer_fd_check(seed, embedded=False) < 1e-4

    def test_hand_computed_multi_gold_loss(self):
        S = np.array([[[2.0, 0.0, 1.0]]])
        F = np.array([[0.5, 0.0, 1.0]])
        Y = np.array([[1.0, 0.0, 1.0]])
        logits = np.zeros(2)
        z = 0.5 * (0.5 * S[0, 0]) + 0.5 * (0.5 * F[0])
        logsum = np.log(np.exp(z).sum())
        expected = (2 * logsum - z[0] - z[2]) / 2.0
        block = dense_oracle.block_from_dense(S, F)
        loss, _, _ = relation_loss_and_grads(logits, 0.0, block, dense_oracle.gold_cells(Y, block))
        assert loss == pytest.approx(expected, abs=1e-12)

    def test_no_golds_means_zero_loss_and_grads(self):
        for F in (np.zeros((1, 3)), None):
            block = dense_oracle.block_from_dense(np.zeros((1, 1, 3)), F)
            loss, d_logits, d_mix = relation_loss_and_grads(
                np.zeros(2), 0.0, block, dense_oracle.gold_cells(np.zeros((1, 3)), block)
            )
            assert loss == 0.0
            assert (d_logits == 0).all()
            assert d_mix == 0.0

    def test_no_embedding_full_rows_and_golds_without_evidence(self):
        # row 0: every entity is a cell, so its max is over cells alone; row
        # 1: one cell, far below the off-cell zeros; row 2: no evidence at
        # all; row 3: every entity a cell, each score below -709, where
        # exp(-max) overflows. Golds sit on cells and off them.
        S = np.zeros((4, 2, 4))
        S[0, 0] = [-3.0, -1.0, 2.0, 7.0]
        S[0, 1, 1] = -3.0
        S[1, 1, 2] = -900.0
        S[3, 0] = -2200.0
        Y = np.array([[0, 1, 0, 2], [1, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0]], dtype=float)
        logits, mix = np.array([0.4, -0.3, 0.2]), 0.7
        block = dense_oracle.block_from_dense(S, None)
        want = dense_oracle.relation_loss_and_grads(
            logits, mix, S, np.zeros((4, 4)), Y, (S != 0).any(axis=2)
        )
        got = relation_loss_and_grads(logits, mix, block, dense_oracle.gold_cells(Y, block))
        assert got[0] == pytest.approx(want[0], rel=0, abs=1e-12)
        np.testing.assert_allclose(got[1], want[1], rtol=0, atol=1e-12)
        assert got[2] == pytest.approx(want[2], rel=0, abs=1e-12)


def _dense_batch(draw, n_rules, dead=None):
    """Random evidence S (H, n, E), embedding rows F, gold multiplicities Y,
    logits and mix_logit; rule `dead` has no evidence at all. Half the
    batches have no embedding: F is zeros and `block_F` None. A density of
    1 makes every entity of a row a cell; below it golds fall off the cells
    too. Returns (S, F, block_F, Y, logits, mix_logit)."""
    H, E = draw(st.integers(1, 4)), draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = np.array([-3.0, -1.0, 1.0, 2.0, 7.0])
    density = draw(st.one_of(st.just(1.0), st.floats(0, 1)))
    S = rng.choice(values, size=(H, n_rules, E)) * (rng.random((H, n_rules, E)) < density)
    if dead is not None:
        S[:, dead] = 0.0
    embedded = draw(st.booleans())
    F = rng.random((H, E)) if embedded else np.zeros((H, E))
    Y = rng.choice([0.0, 0.0, 1.0, 2.0], size=(H, E))
    logits = rng.uniform(-4.0, 4.0, size=n_rules + 1)
    return S, F, F if embedded else None, Y, logits, float(rng.uniform(-4.0, 4.0))


class TestSparseKernel:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_dense_oracle(self, data):
        n = data.draw(st.integers(0, 6))
        S, F, block_F, Y, logits, mix = _dense_batch(data.draw, n)
        active = (S != 0).any(axis=2)
        block = dense_oracle.block_from_dense(S, block_F)
        want_z = dense_oracle.forward(logits, mix, S, F, active)[0]
        np.testing.assert_allclose(_scores(block, logits, mix), want_z, rtol=0, atol=1e-12)
        want = dense_oracle.relation_loss_and_grads(logits, mix, S, F, Y, active)
        got = relation_loss_and_grads(logits, mix, block, dense_oracle.gold_cells(Y, block))
        assert got[0] == pytest.approx(want[0], rel=0, abs=1e-12)
        np.testing.assert_allclose(got[1], want[1], rtol=0, atol=1e-12)
        assert got[2] == pytest.approx(want[2], rel=0, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_zero_evidence_rule_removal_is_exact(self, data):
        # a rule without evidence must leave scores, loss and the other
        # gradients bit-identical to the same model with the rule deleted
        n = data.draw(st.integers(1, 40))
        dead = data.draw(st.integers(0, n - 1))
        S, F, block_F, Y, logits, mix = _dense_batch(data.draw, n, dead)
        cut_S, cut_logits = np.delete(S, dead, axis=1), np.delete(logits, dead)
        full = dense_oracle.block_from_dense(S, block_F)
        cut = dense_oracle.block_from_dense(cut_S, block_F)
        assert _scores(full, logits, mix).tobytes() == _scores(cut, cut_logits, mix).tobytes()
        loss, d_logits, d_mix = relation_loss_and_grads(
            logits, mix, full, dense_oracle.gold_cells(Y, full)
        )
        cut_loss, cut_d_logits, cut_d_mix = relation_loss_and_grads(
            cut_logits, mix, cut, dense_oracle.gold_cells(Y, cut)
        )
        assert (loss, d_mix) == (cut_loss, cut_d_mix)
        assert np.delete(d_logits, dead).tobytes() == cut_d_logits.tobytes()
        rp = RelationParams(logits=logits, mix_logit=mix)
        cut_rp = RelationParams(logits=cut_logits, mix_logit=mix)
        got = combined_score(rp, S[0], F[0])
        assert got.tobytes() == combined_score(cut_rp, cut_S[0], F[0]).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(
        heads=st.lists(st.integers(0, 11), min_size=1, max_size=12),
        seed=st.integers(0, 2**16),
    )
    def test_row_is_bit_equal_to_head_scored_alone(self, heads, seed):
        kb, pool, _ = synthetic.planted_kb(seed % 4)
        groundings = ground_all(kb, pool)
        rel = kb.relations.id("grandparent")
        model = rotate.init_model(
            kb.num_entities, kb.num_relations, rotate.RotateConfig(dim=4, seed=seed)
        )
        rng = np.random.default_rng(seed)
        logits = rng.normal(size=len(groundings[rel]) + 1)
        heads = [h % kb.num_entities for h in heads]
        block = _evidence(kb, rel, groundings[rel], model, heads)
        Z = _scores(block, logits, 0.3)
        for i, h in enumerate(heads):
            alone = _evidence(kb, rel, groundings[rel], model, [h])
            assert Z[i].tobytes() == _scores(alone, logits, 0.3)[0].tobytes()


def _wide_target_kb(n_heads, n_entities):
    """A KB whose `target` relation has one train tail for each of heads
    0 .. n_heads - 1 among n_entities, its grounded `link` rule, and a
    dim-4 embedding model."""
    rng = np.random.default_rng(0)
    names = ["e%d" % i for i in range(n_entities)]
    link = set(zip(rng.integers(0, n_heads, 300).tolist(), rng.integers(0, n_entities, 300).tolist()))
    target = [(h, int(t)) for h, t in enumerate(rng.integers(0, n_entities, n_heads))]
    kb = synthetic.build_kb(
        names,
        ["link", "target"],
        [(names[h], "link", names[t]) for h, t in sorted(link)]
        + [(names[h], "target", names[t]) for h, t in target],
    )
    rule = synthetic.classified_rule(kb, "IF (A, link, B) THEN (A, target, B)")
    gs = ground_all(kb, [rule])[kb.relations.id("target")]
    model = rotate.init_model(n_entities, kb.num_relations, rotate.RotateConfig(dim=4))
    return kb, gs, model


class TestRulesOnlyMemory:
    def test_training_block_allocates_no_heads_by_entities_array(self):
        # without embeddings a training block and a kernel call hold the
        # evidence and per-head statistics only: one (heads, entities)
        # float array would be 48 MB here
        n_heads, n_entities = 2000, 3000
        kb, gs, _ = _wide_target_kb(n_heads, n_entities)
        tracemalloc.start()
        try:
            data = _RelationData(kb, kb.relations.id("target"), gs, None)
            block = data.train
            loss, _, _ = relation_loss_and_grads(np.zeros(2), 0.0, block, data.golds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0 < len(block.value) < 1000
        assert np.isfinite(loss)
        assert peak < 8 * n_heads * n_entities / 10


def _peak_bytes(fn):
    """fn's result and the peak bytes tracemalloc saw it allocate."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestEmbeddingMemory:
    def test_rotate_batch_holds_no_whole_batch_moduli_or_cell_index(self):
        # a dense-shaped batch: the whole batch's moduli were 4 MiB and the
        # scatter's (rows, width) cell index 8.5 MiB
        B, K, dim, n_entities = 512, 32, 32, 400
        rng = np.random.default_rng(0)
        model = rotate.init_model(n_entities, 8, rotate.RotateConfig(dim=dim))
        positives = np.column_stack(
            [rng.integers(0, n_entities, B), rng.integers(0, 8, B), rng.integers(0, n_entities, B)]
        )
        negs = rng.integers(0, n_entities, size=(B, K))
        rows = np.empty((B * (K + 2), 2 * dim))
        (loss, _, _), peak = _peak_bytes(lambda: rotate.loss_and_grad(model, positives, negs, rows))
        assert np.isfinite(loss)
        assert peak < 8 * 2**20

    def test_training_loss_holds_one_chunk_of_scores(self):
        kb, gs, model = _wide_target_kb(1500, 2000)
        data = _RelationData(kb, kb.relations.id("target"), gs, model)
        block = data.train
        assert block.F.shape == (1500, 2000)
        (loss, _, _), peak = _peak_bytes(
            lambda: relation_loss_and_grads(np.zeros(2), 0.0, block, data.golds)
        )
        assert np.isfinite(loss)
        assert peak < block.F.nbytes / 4

    def test_query_ranks_hold_one_chunk_of_scores(self):
        # the whole block's scores would be as large as F, 24 MB here
        kb, gs, model = _wide_target_kb(1500, 2000)
        target = kb.relations.id("target")
        queries = _Queries(kb, target, gs, model, [t for t in kb.train if t.relation == target])
        ranks, peak = _peak_bytes(lambda: queries.ranks(np.zeros(2), 0.0))
        assert queries.block.F.shape == (1500, 2000)
        assert ranks.shape == (1500,) and (ranks >= 1).all()
        assert peak < queries.block.F.nbytes / 4

    def test_distinct_heads_need_no_second_copy_of_F(self):
        kb, gs, model = _wide_target_kb(1500, 2000)
        heads = np.arange(1500)
        block, peak = _peak_bytes(lambda: _evidence(kb, kb.relations.id("target"), gs, model, heads))
        assert peak < 1.5 * block.F.nbytes
        # the same rows as a block of repeated, unsorted heads gathers
        mixed = _evidence(kb, kb.relations.id("target"), gs, model, np.concatenate([heads[::-1], heads]))
        assert mixed.F[1500:].tobytes() == block.F.tobytes()
        assert mixed.F[:1500].tobytes() == block.F[::-1].tobytes()


class TestScoreChunks:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_loss_is_bit_equal_in_any_chunk(self, data):
        # one row, a few rows and the whole block per chunk
        n = data.draw(st.integers(0, 6))
        S, F, _, Y, logits, mix = _dense_batch(data.draw, n)
        H, E = F.shape
        rows = data.draw(st.integers(1, H))
        got = []
        for chunk in (E, rows * E + data.draw(st.integers(0, E - 1)), H * E):
            block = dense_oracle.block_from_dense(S, F)
            with mock.patch.object(trainer, "_SCORE_CHUNK", chunk):
                got.append(relation_loss_and_grads(logits, mix, block, dense_oracle.gold_cells(Y, block)))
        for loss, d_logits, d_mix in got[:-1]:
            assert (loss, d_mix) == got[-1][0::2]
            assert d_logits.tobytes() == got[-1][1].tobytes()

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_query_ranks_are_bit_equal_in_any_chunk(self, data):
        # one query per row, its gold on a cell or off, its filtered tails
        # any others; quantized embedding rows tie often, and rows without
        # them tie at 0 wherever there is no evidence
        n = data.draw(st.integers(0, 6))
        S, F, block_F, _, logits, mix = _dense_batch(data.draw, n)
        if block_F is not None and data.draw(st.booleans()):
            F = block_F = np.round(F * 2.0) / 2.0
        H, E = F.shape
        golds = np.array([data.draw(st.integers(0, E - 1)) for _ in range(H)])
        others = [[t for t in range(E) if t != g] for g in golds]
        excluded = [sorted(data.draw(st.sets(st.sampled_from(o)))) if o else [] for o in others]
        query = np.repeat(np.arange(H), [len(x) for x in excluded])
        filtered = (query, np.array([t for x in excluded for t in x], dtype=np.int64))
        want = _gold_ranks(dense_oracle.forward(logits, mix, S, F, (S != 0).any(axis=2))[0], golds, filtered)
        queries = object.__new__(_Queries)  # over the batch's block, not a KB's
        queries.block = dense_oracle.block_from_dense(S, block_F)
        queries.golds, queries.filtered = golds, filtered
        rows = data.draw(st.integers(1, H))
        for chunk in (E, rows * E + data.draw(st.integers(0, E - 1)), H * E):
            with mock.patch.object(trainer, "_SCORE_CHUNK", chunk):
                assert queries.ranks(logits, mix).tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", [0, 1])
    def test_trained_relation_is_bit_equal_in_any_chunk(self, seed):
        kb, pool, _ = synthetic.planted_kb(seed)
        groundings = ground_all(kb, pool)
        model = rotate.train_embeddings(kb, rotate.RotateConfig(dim=8, epochs=2, seed=seed))[0]
        rel = kb.relations.id("grandparent")
        data = _RelationData(kb, rel, groundings[rel], model)
        H, E = data.train.shape
        logits = np.random.default_rng(seed).normal(size=len(groundings[rel]) + 1)
        got = []
        for chunk in (E, 7 * E, H * E):
            with mock.patch.object(trainer, "_SCORE_CHUNK", chunk):
                got.append(relation_loss_and_grads(logits, 0.4, data.train, data.golds))
        for loss, d_logits, d_mix in got[:-1]:
            assert (loss, d_mix) == got[-1][0::2]
            assert d_logits.tobytes() == got[-1][1].tobytes()

    @pytest.mark.parametrize(
        "trainer_cfg, want",
        [
            (TrainerConfig(max_epochs=20), "3fde6b1f252c1535020eabbe876c75df9ce1df472180bdef284348a3d703fc0b"),
            (TrainerConfig(), "ad7250de40c0a05e8d5abadedeff2b6f55f96b9683823bc7c13c089de2acc4ca"),
            (TrainerConfig(uniform_weights=True), "d534da6a272a14e59859956e64689e2dac0a32bc69b32f55bf3b3caee2af6f79"),
        ],
        ids=["20-epochs", "defaults", "uniform-weights"],
    )
    def test_pinned_params_digest(self, tmp_path, trainer_cfg, want):
        # embeddings and params.json trained on planted_kb(0). The 20-epoch
        # digest was taken when the loss formed every relation's whole score
        # block; at the defaults the 4 base relations run all 500 epochs, so
        # the learning rate decays at epochs 100 .. 400 and weight decay acts
        # throughout, and those digests were taken when the logits and
        # mix_logit had an AdamW each
        kb, pool, _ = synthetic.planted_kb(0)
        cfg = rotate.RotateConfig(dim=16, negatives=64, epochs=3, batch_size=100, seed=3)
        model = rotate.train_embeddings(kb, cfg)[0]
        params, _ = train(kb, ground_all(kb, pool), model, trainer_cfg)
        path = tmp_path / "params.json"
        save_params(str(path), params, kb)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == want


class TestJointCountUnread:
    def test_reasoning_stages_compute_no_hadamard_product(self, monkeypatch):
        # training signs C with the head relation's train matrix itself, so
        # only `grounding.score` computes A = C * M, once per grounding
        calls = []
        hadamard = grounding.sparse_hadamard
        monkeypatch.setattr(grounding, "sparse_hadamard", lambda *a: calls.append(a) or hadamard(*a))
        kb, pool, _ = synthetic.planted_kb(0)
        groundings = ground_all(kb, pool)
        model = rotate.init_model(kb.num_entities, kb.num_relations, rotate.RotateConfig(dim=4))
        params, _ = train(kb, groundings, model, TrainerConfig(max_epochs=3))
        gold_ranks(params, kb, groundings, model, kb.test)
        t = kb.test[0]
        rank(params, kb, groundings, model, t.head, t.relation, gold=t.tail)
        assert calls == []
        g = groundings[t.relation][0]
        assert grounding.score(g, t.head, t.tail) == grounding.score(g, t.head, t.tail)
        assert len(calls) == 1


def family_setup(kb=None):
    kb = synthetic.family_kb() if kb is None else kb
    provider = TrigramSimilarity()
    rule = classify_case(
        map_relations(parse_rule(synthetic.PLANTED_RULE_TEXT), kb, provider)
    )
    groundings = ground_all(kb, [rule])
    return kb, groundings


def _empty_relation_setup():
    """`family_setup` plus a relation with a test triple and no train triple."""
    return family_setup(synthetic.build_kb(
        ["Anna", "Bob", "Charlie"],
        ["parent", "grandparent", "sibling"],
        [("Anna", "parent", "Bob"), ("Bob", "parent", "Charlie"), ("Anna", "grandparent", "Charlie")],
        test=[("Bob", "sibling", "Anna")],
    ))


def _planted_setup():
    kb, pool, _ = synthetic.planted_kb(0)
    return kb, ground_all(kb, pool)


# the KBs and groundings a property test trains, each built once
_REPORT_SETUPS = {
    name: functools.lru_cache(maxsize=None)(build)
    for name, build in (
        ("family", family_setup),
        ("planted", _planted_setup),
        ("empty-relation", _empty_relation_setup),
    )
}


def _frozen_metric(kb, groundings, relation, model=None):
    """Whether no parameter can move the relation's stopping metric: there is
    no embedding model, and the block the metric reads (the validation
    queries', or the train block's for -loss) scores every entity 0 at equal
    weights, where each evidence cell scores alpha * weight * value != 0."""
    data = _RelationData(kb, relation, groundings.get(relation, []), model)
    block = data.valid.block if len(data.valid.golds) else data.train
    return model is None and not _scores(block, np.zeros(block.active.shape[1] + 1), 0.0).any()


def _train_until_patience(data, cfg, n_logits):
    """The epoch loop of `trainer._fit_relation` without its frozen-metric
    stop, and with one AdamW for the logits and one for mix_logit where it
    steps both as one vector: a relation runs until `patience` epochs bring
    no better metric, or for `max_epochs`. Returns the kept (logits,
    mix_logit), the epochs run, whether patience stopped it, and its trace."""
    logits, mix = np.zeros(n_logits), np.zeros(1)
    opt_logits, opt_mix = rotate.AdamW(n_logits, cfg.weight_decay), rotate.AdamW(1, cfg.weight_decay)
    use_valid = len(data.valid.golds) > 0
    best, kept, stale, stopped = -np.inf, None, 0, False
    trace = {"loss": [], "metric": []}
    for epoch in range(cfg.max_epochs):
        lr = cfg.lr * cfg.step_gamma ** (epoch // cfg.step_size)
        loss, d_logits, d_mix = relation_loss_and_grads(logits, float(mix[0]), data.train, data.golds)
        if not cfg.uniform_weights:
            opt_logits.step(logits, d_logits, lr)
        opt_mix.step(mix, np.array([d_mix]), lr)
        metric = data.valid_mrr(logits, float(mix[0])) if use_valid else -loss
        trace["loss"].append(loss)
        trace["metric"].append(metric)
        if metric > best:
            best, kept, stale = metric, (logits.copy(), float(mix[0])), 0
        else:
            stale += 1
            if stale >= cfg.patience:
                stopped = True
                break
    return kept, epoch + 1, stopped, trace


@st.composite
def _small_rules_kb(draw):
    """A KB of up to 6 entities and 3 relations with random train and valid
    triples, and up to 2 rules of random shapes for each, grounded. Some
    relations get no rule, some validation queries no evidence, and a
    relation without validation queries stops on -loss."""
    n = draw(st.integers(3, 6))
    triple = st.tuples(st.integers(0, n - 1), st.integers(0, 2), st.integers(0, n - 1))
    train = draw(st.lists(triple, min_size=1, max_size=30, unique=True))
    valid = [t for t in draw(st.lists(triple, max_size=6, unique=True)) if t not in train]
    rels = ["r0", "r1", "r2"]

    def names(triples):
        return [("e%d" % h, rels[r], "e%d" % t) for h, r, t in triples]

    kb = synthetic.build_kb(["e%d" % i for i in range(n)], rels, names(train), valid=names(valid))
    shapes = st.tuples(st.sampled_from(["0-1", "0-2", "1-1", "1-3", "2-1"]), *[st.sampled_from(rels)] * 3)
    texts = sorted({synthetic.case_rule_text(*shape, rh=rh) for rh in rels for shape in draw(st.lists(shapes, max_size=2))})
    return kb, ground_all(kb, [synthetic.classified_rule(kb, text) for text in texts])


class TestFrozenMetric:
    """Without embeddings, a relation whose stopping metric reads a block with
    no evidence cell scores every entity 0 whatever its weights: the metric
    repeats epoch 1's exactly, epoch 1's parameters are the ones kept, and
    training stops there."""

    @settings(max_examples=40, deadline=None)
    @given(
        setup=_small_rules_kb(),
        max_epochs=st.integers(1, 8),
        patience=st.integers(1, 4),
        lr=st.sampled_from([0.05, 0.5]),
        embedded=st.booleans(),
        uniform=st.booleans(),
        step_size=st.integers(1, 3),
        weight_decay=st.sampled_from([0.0, 0.1]),
    )
    def test_only_a_frozen_metric_ends_training_after_epoch_1(
        self, setup, max_epochs, patience, lr, embedded, uniform, step_size, weight_decay
    ):
        kb, groundings = setup
        model = rotate.init_model(kb.num_entities, kb.num_relations, rotate.RotateConfig(dim=4)) if embedded else None
        cfg = TrainerConfig(
            lr=lr,
            max_epochs=max_epochs,
            patience=patience,
            uniform_weights=uniform,
            step_size=step_size,
            step_gamma=0.5,
            weight_decay=weight_decay,
        )
        params, traces = train(kb, groundings, model, cfg)
        one_epoch, _ = train(kb, groundings, model, dataclasses.replace(cfg, max_epochs=1))
        for relation in [r for r in range(kb.num_relations) if kb.matrices[r].nnz]:
            rp, trace = params[relation], traces[kb.relation_name(relation)]
            data = _RelationData(kb, relation, groundings.get(relation, []), model)
            (logits, mix), epochs, stopped, want = _train_until_patience(data, cfg, len(rp.logits))
            if _frozen_metric(kb, groundings, relation, model):
                assert want["metric"] == want["metric"][:1] * epochs
                assert (rp.epochs_trained, rp.stopped) == (1, max_epochs > 1)
                assert trace == {key: values[:1] for key, values in want.items()}
                assert rp.logits.tobytes() == one_epoch[relation].logits.tobytes()
                assert rp.mix_logit == one_epoch[relation].mix_logit
            else:  # as without the frozen-metric stop, embeddings on or off
                assert (rp.epochs_trained, rp.stopped, trace) == (epochs, stopped, want)
            assert rp.logits.tobytes() == logits.tobytes() and rp.mix_logit == mix

    def test_relation_without_a_grounded_rule(self):
        # family_kb's parent has train triples, no validation query and no
        # rule: it stops on -loss, which is log(entities) at any weights
        kb, groundings = family_setup()
        parent, grandparent = kb.relations.id("parent"), kb.relations.id("grandparent")
        assert parent not in groundings and _frozen_metric(kb, groundings, parent)
        params, traces = train(kb, groundings, None, TrainerConfig(lr=0.5, max_epochs=6, patience=6))
        one_epoch, _ = train(kb, groundings, None, TrainerConfig(lr=0.5, max_epochs=1, patience=6))
        rp = params[parent]
        assert (rp.epochs_trained, rp.stopped, len(traces["parent"]["metric"])) == (1, True, 1)
        assert rp.logits.tobytes() == one_epoch[parent].logits.tobytes()
        assert rp.mix_logit == one_epoch[parent].mix_logit
        # grandparent's rule has evidence on train, so its -loss moves
        assert (params[grandparent].epochs_trained, params[grandparent].stopped) == (6, False)

    @pytest.mark.parametrize(
        "valid, embedded, frozen",
        [("Eve", False, True), ("Bob", False, False), ("Eve", True, False)],
        ids=["no-evidence", "evidence", "no-evidence-embedded"],
    )
    def test_relation_whose_validation_queries_get_no_evidence(self, valid, embedded, frozen):
        # Eve has no parent edge, so the rule gives her query no evidence;
        # Bob's goes Bob -> Charlie -> Dana. Either way grandparent's train
        # head Anna has evidence, and its weights move every epoch
        kb = synthetic.build_kb(
            ["Anna", "Bob", "Charlie", "Dana", "Eve"],
            ["parent", "grandparent"],
            [("Anna", "parent", "Bob"), ("Bob", "parent", "Charlie"), ("Charlie", "parent", "Dana"),
             ("Anna", "grandparent", "Charlie")],
            valid=[(valid, "grandparent", "Dana")],
        )
        kb, groundings = family_setup(kb)
        model = rotate.init_model(kb.num_entities, kb.num_relations, rotate.RotateConfig(dim=4)) if embedded else None
        rel = kb.relations.id("grandparent")
        assert _frozen_metric(kb, groundings, rel, model) == frozen
        params, traces = train(kb, groundings, model, TrainerConfig(lr=0.5, max_epochs=6, patience=6))
        one_epoch, _ = train(kb, groundings, model, TrainerConfig(lr=0.5, max_epochs=1, patience=6))
        rp, trace = params[rel], traces["grandparent"]
        if frozen:
            assert (rp.epochs_trained, rp.stopped, len(trace["metric"])) == (1, True, 1)
            assert rp.logits.tobytes() == one_epoch[rel].logits.tobytes()
            assert rp.mix_logit == one_epoch[rel].mix_logit
        else:
            assert (rp.epochs_trained, rp.stopped, len(trace["metric"])) == (6, False, 6)
            assert len(set(trace["loss"])) > 1


class TestTrainLoop:
    def test_zero_lr_leaves_parameters_unchanged(self):
        kb, groundings = family_setup()
        cfg = TrainerConfig(lr=0.0, max_epochs=5, patience=3)
        params, _ = train(kb, groundings, None, cfg)
        for rp in params.values():
            assert (rp.logits == 0).all()
            assert rp.mix_logit == 0.0

    def test_uniform_mode_freezes_logits(self):
        kb, pool, _ = synthetic.planted_kb(0)
        groundings = ground_all(kb, pool)
        cfg = TrainerConfig(lr=0.1, max_epochs=40, patience=10, uniform_weights=True)
        params, _ = train(kb, groundings, None, cfg)
        rel = kb.relations.id("grandparent")
        rp = params[rel]
        assert (rp.logits == 0).all()
        w = softmax(rp.logits)
        np.testing.assert_allclose(w, np.full(len(pool) + 1, 1.0 / (len(pool) + 1)))

    def test_all_relations_get_blocks(self):
        kb, groundings = family_setup()
        params, traces = train(kb, groundings, None, TrainerConfig(max_epochs=2, patience=1))
        assert set(params) == set(range(kb.num_relations))
        assert set(traces) == {kb.relation_name(r) for r in range(kb.num_relations)}

    def test_early_stopping_restores_best_epoch(self):
        kb, pool, _ = synthetic.planted_kb(3)
        groundings = ground_all(kb, pool)
        cfg = TrainerConfig(lr=0.1, max_epochs=300, patience=10)
        params, traces = train(kb, groundings, None, cfg)
        rel = kb.relations.id("grandparent")
        rp = params[rel]
        trace = traces["grandparent"]["metric"]
        assert rp.stopped
        assert rp.epochs_trained < 300
        data = _RelationData(kb, rel, groundings[rel], None)
        assert data.valid_mrr(rp.logits, rp.mix_logit) == pytest.approx(max(trace))

    def test_max_epochs_zero_trains_nothing(self):
        kb, groundings = family_setup()
        params, traces = train(kb, groundings, None, TrainerConfig(max_epochs=0))
        assert all(not t["loss"] for t in traces.values())
        for rp in params.values():
            assert rp.epochs_trained == 0


class TestRanking:
    def test_gold_rank_tie_is_mean_of_ties(self):
        scores = np.array([0.5, 0.5, 0.1, 0.5])
        keep = np.ones(4, dtype=bool)
        assert _rank_of_gold(scores, 0, keep) == 2.0  # three-way tie at the top
        assert _rank_of_gold(scores, 2, keep) == 4.0

    def test_two_way_tie(self):
        scores = np.array([0.7, 0.7, 0.1])
        keep = np.ones(3, dtype=bool)
        assert _rank_of_gold(scores, 0, keep) == 1.5
        assert _rank_of_gold(scores, 1, keep) == 1.5

    @settings(max_examples=200, deadline=None)
    @given(
        scores=st.lists(st.sampled_from([-1.5, 0.0, 0.25, 0.25 + 1e-12, 3.0]), min_size=1, max_size=12),
        data=st.data(),
    )
    def test_mean_of_ties_against_brute_force(self, scores, data):
        n = len(scores)
        gold = data.draw(st.integers(0, n - 1))
        others = [i for i in range(n) if i != gold]
        # any other entity may be excluded, all of them at once, or just
        # those that tie with or outrank the gold
        excluded = data.draw(
            st.one_of(
                st.sets(st.sampled_from(others)) if others else st.just(set()),
                st.just(set(others)),
                st.just({i for i in others if scores[i] >= scores[gold]}),
            )
        )
        keep = np.ones(n, dtype=bool)
        keep[list(excluded)] = False
        # sorted by descending score, the gold may sit at any place of its
        # tie block: average those places
        kept = sorted(-scores[i] for i in range(n) if keep[i])
        places = [pos for pos, s in enumerate(kept, start=1) if s == -scores[gold]]
        assert _rank_of_gold(np.array(scores), gold, keep) == sum(places) / len(places)

    def test_shift_invariance(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            scores = rng.normal(size=10)
            keep = rng.random(10) < 0.8
            gold = int(rng.integers(10))
            keep[gold] = True
            base = _rank_of_gold(scores, gold, keep)
            assert _rank_of_gold(scores + 5.5, gold, keep) == base

    def test_rank_against_naive_sort_oracle(self):
        kb, groundings = family_setup()
        cfg = TrainerConfig(lr=0.05, max_epochs=30, patience=10)
        params, _ = train(kb, groundings, None, cfg)
        rel = kb.relations.id("grandparent")
        for head in range(kb.num_entities):
            res = rank(params, kb, groundings, None, head, rel, top_k=kb.num_entities)
            scores = {e.tail: e.score for e in res.entries}
            ordered = sorted(scores, key=lambda t: (-scores[t], t))
            assert [e.tail for e in res.entries] == ordered

    def test_filtered_protocol_removes_known_tails(self):
        kb = synthetic.build_kb(
            ["a", "b", "c", "d"],
            ["r"],
            [("a", "r", "b")],
            valid=[("a", "r", "c")],
            test=[("a", "r", "d")],
        )
        params, _ = train(kb, {}, None, TrainerConfig(max_epochs=0))
        res = rank(params, kb, {}, None, 0, 0, gold=kb.entities.id("d"))
        # b (train) and c (valid) are filtered, leaving a, d
        assert res.candidate_count == 2
        assert res.gold_rank == 1.5  # all-zero scores tie
        assert [e.tail for e in res.entries] == [kb.entities.id("a"), kb.entities.id("d")]
        # without a gold nothing is filtered
        res = rank(params, kb, {}, None, 0, 0)
        assert [e.tail for e in res.entries] == [0, 1, 2, 3]
        assert res.candidate_count == 4

    def test_attributions_sum_to_score(self):
        kb, pool, _ = synthetic.planted_kb(1)
        groundings = ground_all(kb, pool)
        cfg = TrainerConfig(lr=0.1, max_epochs=60, patience=15)
        params, _ = train(kb, groundings, None, cfg)
        rel = kb.relations.id("grandparent")
        checked = 0
        for head in range(0, 20):
            res = rank(params, kb, groundings, None, head, rel, top_k=5)
            for e in res.entries:
                total = sum(v for _, v in e.contributions)
                assert total == pytest.approx(e.score, abs=1e-12)
                checked += 1
        assert checked > 50

    @pytest.mark.parametrize("embeddings", [False, True])
    def test_embedding_entry_only_with_a_model(self, embeddings):
        kb, pool, _ = synthetic.planted_kb(1)
        groundings = ground_all(kb, pool)
        model = None
        if embeddings:
            model = rotate.train_embeddings(kb, rotate.RotateConfig(dim=8, epochs=2, seed=3))[0]
        params, _ = train(kb, groundings, model, TrainerConfig(lr=0.1, max_epochs=10, patience=5))
        rel = kb.relations.id("grandparent")
        for head in range(20):
            for e in rank(params, kb, groundings, model, head, rel, top_k=5).entries:
                labels = [label for label, _ in e.contributions]
                assert labels.count("embedding") == int(embeddings)
                assert sum(v for _, v in e.contributions) == pytest.approx(e.score, abs=1e-12)

    def test_top_k_zero_still_ranks_gold(self):
        kb, groundings = family_setup()
        params, _ = train(kb, groundings, None, TrainerConfig(max_epochs=2, patience=1))
        rel = kb.relations.id("grandparent")
        res = rank(
            params, kb, groundings, None, kb.entities.id("Anna"), rel,
            gold=kb.entities.id("Charlie"), top_k=0,
        )
        assert res.entries == []
        assert res.gold_rank is not None

    def test_negative_top_k_rejected(self):
        kb, groundings = family_setup()
        params, _ = train(kb, groundings, None, TrainerConfig(max_epochs=0))
        with pytest.raises(ValueError, match="top_k"):
            rank(params, kb, groundings, None, 0, 0, top_k=-1)

    def test_top_k_zero_ranks_like_top_k_ten(self):
        kb, pool, _ = synthetic.planted_kb(2)
        groundings = ground_all(kb, pool)
        params, _ = train(kb, groundings, None, TrainerConfig(lr=0.1, max_epochs=10, patience=5))
        queries = kb.valid + kb.test
        assert queries
        for h, r, t in queries:
            bare = rank(params, kb, groundings, None, h, r, gold=t, top_k=0)
            full = rank(params, kb, groundings, None, h, r, gold=t, top_k=10)
            assert bare.entries == [] and full.entries
            assert (bare.gold_rank, bare.candidate_count) == (full.gold_rank, full.candidate_count)


class TestEvaluateModel:
    @pytest.mark.parametrize("embeddings", [False, True])
    def test_ranks_equal_per_query_rank(self, embeddings):
        kb, pool, _ = synthetic.planted_kb(1)
        groundings = ground_all(kb, pool)
        model = None
        if embeddings:
            cfg = rotate.RotateConfig(dim=8, epochs=2, seed=3)
            model = rotate.train_embeddings(kb, cfg)[0]
        params, _ = train(kb, groundings, model, TrainerConfig(lr=0.1, max_epochs=10, patience=5))

        def per_query(queries):
            return [
                rank(params, kb, groundings, model, h, r, gold=t, top_k=0).gold_rank
                for h, r, t in queries
            ]

        def brute_force(h, r, t):
            # the unfiltered scores of every tail, less the other known tails,
            # sorted: the gold may sit at any place of its tie block
            res = rank(params, kb, groundings, model, h, r, top_k=kb.num_entities)
            others = set(kb.known_tails(r, [h])[1].tolist()) - {t}
            kept = sorted(-e.score for e in res.entries if e.tail not in others)
            gold = -next(e.score for e in res.entries if e.tail == t)
            places = [pos for pos, s in enumerate(kept, start=1) if s == gold]
            return sum(places) / len(places)

        queries = kb.valid + kb.test
        ranks = gold_ranks(params, kb, groundings, model, queries).tolist()
        assert ranks == per_query(queries)
        rows = np.concatenate([kb.arrays["valid"], kb.arrays["test"]])
        assert gold_ranks(params, kb, groundings, model, rows).tolist() == ranks
        assert ranks == [brute_force(*q) for q in queries]
        report = evaluate_model(params, kb, groundings, model, split="test")
        assert report.mrr == float(np.mean(1.0 / np.array(per_query(kb.test))))


class TestCheckpoint:
    def test_non_finite_weights_are_not_written(self, tmp_path):
        # NaN and Infinity are not JSON: the checkpoint refuses them whole
        kb, groundings = family_setup()
        params, _ = train(kb, groundings, None, TrainerConfig(max_epochs=0))
        params[0].logits[0] = np.nan
        path = tmp_path / "params.json"
        with pytest.raises(ValueError, match="not JSON compliant"):
            save_params(str(path), params, kb)
        assert not path.exists()

    def test_round_trip(self, tmp_path):
        kb, groundings = family_setup()
        cfg = TrainerConfig(lr=0.05, max_epochs=10, patience=5)
        params, _ = train(kb, groundings, None, cfg)
        path = str(tmp_path / "params.json")
        save_params(path, params, kb)
        back = load_params(path, kb)
        for rel, rp in params.items():
            brp = back[rel]
            np.testing.assert_array_equal(brp.logits, rp.logits)
            assert brp.mix_logit == rp.mix_logit
            assert brp.rule_keys == rp.rule_keys
            assert brp.epochs_trained == rp.epochs_trained
            assert brp.stopped == rp.stopped
        save_params(str(tmp_path / "again.json"), back, kb)
        assert (tmp_path / "params.json").read_bytes() == (tmp_path / "again.json").read_bytes()

    @settings(max_examples=12, deadline=None)
    @given(
        setup=st.sampled_from(["family", "planted", "empty-relation"]),
        max_epochs=st.integers(0, 12),
        patience=st.integers(1, 5),
        lr=st.sampled_from([0.0, 0.05, 0.5]),
    )
    def test_params_json_reports_why_each_relation_ended(self, setup, max_epochs, patience, lr):
        kb, groundings = _REPORT_SETUPS[setup]()
        cfg = TrainerConfig(lr=lr, max_epochs=max_epochs, patience=patience)
        params, traces = train(kb, groundings, None, cfg)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "params.json")
            save_params(path, params, kb)
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
        assert len(doc) == kb.num_relations
        for relation in range(kb.num_relations):
            name = kb.relation_name(relation)
            block, trace = doc[name], traces[name]
            epochs, stopped = block["epochs_trained"], block["stopped"]
            assert epochs == len(trace["loss"]) == len(trace["metric"])
            if not kb.matrices[relation].nnz:
                assert (epochs, stopped, trace) == (0, False, {"loss": [], "metric": []})
            elif _frozen_metric(kb, groundings, relation) and max_epochs > 1:
                # no parameter moves its stopping metric: it ends after epoch 1
                assert (epochs, stopped) == (1, True)
            elif stopped:
                assert epochs == int(np.argmax(trace["metric"])) + patience + 1
            else:
                assert epochs == max_epochs

    def test_mismatched_checkpoint_rules_raise(self, tmp_path):
        kb, groundings = family_setup()
        params, _ = train(kb, groundings, None, TrainerConfig(max_epochs=1, patience=1))
        path = str(tmp_path / "params.json")
        save_params(path, params, kb)
        loaded = load_params(path, kb)
        provider = TrigramSimilarity()
        other = classify_case(
            map_relations(
                parse_rule("IF (A, parent, B) THEN (A, grandparent, B)"), kb, provider
            )
        )
        different = ground_all(kb, [other])
        with pytest.raises(KBError, match="checkpoint rules for 'grandparent' do not match"):
            check_checkpoint_rules(loaded, kb, different)
        check_checkpoint_rules(loaded, kb, groundings)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda b: b.pop("logits"), "missing key 'logits'"),
            (lambda b: b.update(mix_logit="0.5"), "'mix_logit' must be a number"),
            (lambda b: b.update(stopped=0), "'stopped' must be a boolean"),
            (lambda b: b.update(epochs_trained=True), "'epochs_trained' must be an integer"),
            (lambda b: b.update(epochs_trained=-7), "'epochs_trained' must be an integer >= 0"),
            (lambda b: b["rules"][0].pop("text"), "'rules' must be a list of objects"),
            (lambda b: b["logits"].pop(), "1 logits for 1 rules"),
            (lambda b: b["logits"].append(0.0), "3 logits for 1 rules"),
        ],
    )
    def test_malformed_block_names_file_and_relation(self, tmp_path, edit, message):
        kb, groundings = family_setup()
        params, _ = train(kb, groundings, None, TrainerConfig(max_epochs=1, patience=1))
        path = tmp_path / "params.json"
        save_params(str(path), params, kb)
        doc = json.loads(path.read_text())
        edit(doc["grandparent"])
        path.write_text(json.dumps(doc))
        with pytest.raises(KBError, match="relation 'grandparent': %s" % message) as err:
            load_params(str(path), kb)
        assert str(err.value).startswith(str(path) + ": ")

    @pytest.mark.parametrize(
        "doc, message",
        [([], "not an object of relation blocks"), ({"grandparent": [1]}, "relation 'grandparent': block is not an object")],
        ids=["list", "list-block"],
    )
    def test_checkpoint_that_is_not_objects_names_the_file(self, tmp_path, doc, message):
        kb, _ = family_setup()
        path = tmp_path / "params.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(KBError, match="^%s: %s$" % (re.escape(str(path)), message)):
            load_params(str(path), kb)

    def test_file_that_cannot_be_opened_names_the_file(self, tmp_path):
        kb, _ = family_setup()
        with pytest.raises(KBError, match="^cannot open parameter checkpoint %s: " % re.escape(str(tmp_path))):
            load_params(str(tmp_path), kb)  # a directory

    def test_non_json_file_names_the_file(self, tmp_path):
        kb, _ = family_setup()
        path = tmp_path / "params.json"
        path.write_text("{not json")
        with pytest.raises(KBError, match="not JSON: Expecting property name") as err:
            load_params(str(path), kb)
        assert str(err.value).startswith(str(path) + ": ")
