"""Rotation-embedding scorer: scores, gradients, training, checkpoints."""

import hashlib
import os
import struct
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gradcheck
import rotate_oracle
import synthetic
import rulekbc
from rulekbc import rotate
from rulekbc.kb import KBError
from rulekbc.rotate import (
    RotateConfig,
    RotateModel,
    init_model,
    load_embeddings,
    loss_and_grad,
    save_embeddings,
    score,
    score_tails,
    train_embeddings,
)

# trains in a few ms on planted_kb(0)
PINNED_CONFIG = RotateConfig(dim=16, negatives=64, epochs=3, batch_size=100, seed=3)


def random_model(seed, n_e=6, n_r=3, dim=4, margin=5.0):
    rng = np.random.default_rng(seed)
    return RotateModel(
        entity=rng.normal(size=(n_e, 2 * dim)),
        phase=rng.uniform(-np.pi, np.pi, size=(n_r, dim)),
        margin=margin,
    )


class TestScore:
    def test_zero_rotation_of_identical_embeddings_hits_margin(self):
        dim = 3
        entity = np.tile(np.arange(1.0, 2 * dim + 1.0), (2, 1))
        model = RotateModel(entity=entity, phase=np.zeros((1, dim)), margin=7.5)
        assert score(model, 0, 0, 1) == pytest.approx(7.5)

    def test_full_turn_is_identity(self):
        model = random_model(1)
        turned = RotateModel(
            entity=model.entity.copy(),
            phase=np.full_like(model.phase, 2.0 * np.pi),
            margin=model.margin,
        )
        base = RotateModel(
            entity=model.entity.copy(),
            phase=np.zeros_like(model.phase),
            margin=model.margin,
        )
        for h in range(6):
            for t in range(6):
                assert score(turned, h, 0, t) == pytest.approx(score(base, h, 0, t))

    def test_scalar_loop_oracle(self):
        model = random_model(2)
        d = model.dim
        rng = np.random.default_rng(3)
        for _ in range(50):
            h, r, t = (int(rng.integers(6)), int(rng.integers(3)), int(rng.integers(6)))
            expected = model.margin
            for k in range(d):
                hc = complex(model.entity[h, k], model.entity[h, d + k])
                tc = complex(model.entity[t, k], model.entity[t, d + k])
                rot = hc * np.exp(1j * model.phase[r, k])
                expected -= abs(rot - tc)
            assert score(model, h, r, t) == pytest.approx(expected, abs=1e-12)

    def test_score_tails_matches_pointwise(self):
        model = random_model(4)
        for r in range(3):
            rows = score_tails(model, list(range(6)), r)
            assert rows.shape == (6, 6)
            for h in range(6):
                for t in range(6):
                    assert rows[h, t] == pytest.approx(score(model, h, r, t), abs=1e-12)

    def test_out_of_range_ids_rejected(self):
        model = random_model(5)
        with pytest.raises(KBError):
            score(model, 99, 0, 0)
        with pytest.raises(KBError):
            score(model, 0, 99, 0)
        with pytest.raises(KBError):
            score_tails(model, [0], -1)
        with pytest.raises(KBError):
            score_tails(model, [0, 6], 0)


# random models and head lists that cross the 32-head block edge with repeats
HEAD_LISTS = dict(
    seed=st.integers(0, 2**32 - 1),
    n_e=st.integers(1, 8),
    dim=st.integers(1, 6),
    relation=st.integers(0, 2),
    picks=st.lists(st.integers(0, 10**6), max_size=70),
)


class TestScoreTailsBlocks:
    @settings(max_examples=50, deadline=None)
    @given(**HEAD_LISTS)
    def test_rows_match_pointwise_and_per_head_formula(self, seed, n_e, dim, relation, picks):
        model = random_model(seed, n_e=n_e, dim=dim)
        heads = [p % n_e for p in picks]
        rows = score_tails(model, heads, relation)
        assert rows.shape == (len(heads), n_e)
        d = model.dim
        cos, sin = np.cos(model.phase[relation]), np.sin(model.phase[relation])
        for i, h in enumerate(heads):
            # the former per-head kernel: one hypot over (entities, dim)
            hre, him = model.entity[h, :d], model.entity[h, d:]
            u_re = (hre * cos - him * sin)[None, :] - model.entity[:, :d]
            u_im = (hre * sin + him * cos)[None, :] - model.entity[:, d:]
            per_head = model.margin - np.hypot(u_re, u_im).sum(axis=1)
            np.testing.assert_allclose(rows[i], per_head, rtol=0, atol=1e-12)
            for t in range(n_e):
                assert abs(rows[i, t] - score(model, h, relation, t)) <= 1e-12

    @settings(max_examples=50, deadline=None)
    @given(**HEAD_LISTS)
    def test_row_is_bit_equal_to_head_scored_alone(self, seed, n_e, dim, relation, picks):
        model = random_model(seed, n_e=n_e, dim=dim)
        heads = [p % n_e for p in picks]
        rows = score_tails(model, heads, relation)
        for i, h in enumerate(heads):
            assert rows[i].tobytes() == score_tails(model, [h], relation)[0].tobytes()


class TestGradients:
    def test_matches_central_differences(self):
        for seed in range(3):
            assert gradcheck.rotate_fd_check(seed) < 1e-4

    def test_loss_decomposition_on_degenerate_batch(self):
        # a single positive with one negative equal to the positive tail makes
        # the two loss terms softplus(-s) and softplus(s) of the same score
        model = random_model(6)
        positives = np.array([[0, 0, 1]], dtype=np.int64)
        negs = np.array([[1]], dtype=np.int64)
        s = score(model, 0, 0, 1)
        loss, _, _ = loss_and_grad(model, positives, negs)
        expected = np.logaddexp(0.0, -s) + np.logaddexp(0.0, s)
        assert loss == pytest.approx(expected, abs=1e-12)


# small id ranges make repeated heads, tails, relations and negatives common
BATCHES = dict(
    seed=st.integers(0, 2**32 - 1),
    n_e=st.integers(1, 6),
    n_r=st.integers(1, 3),
    dim=st.integers(1, 5),
    B=st.integers(1, 6),
    K=st.integers(1, 5),
    tail_negatives=st.booleans(),
    collapsed=st.booleans(),
)


def random_batch(seed, n_e, n_r, dim, B, K, tail_negatives, collapsed):
    """(model, positives, negatives). tail_negatives puts each positive tail
    among its own negatives; collapsed gives every entity the same vector and
    every relation zero phase, so every modulus is exactly zero."""
    model = random_model(seed, n_e=n_e, n_r=n_r, dim=dim)
    if collapsed:
        model.entity[:] = model.entity[0]
        model.phase[:] = 0.0
    rng = np.random.default_rng(seed)
    positives = np.column_stack(
        [rng.integers(0, n_e, B), rng.integers(0, n_r, B), rng.integers(0, n_e, B)]
    )
    negs = rng.integers(0, n_e, size=(B, K))
    if tail_negatives:
        negs[:, rng.integers(K)] = positives[:, 2]
    return model, positives, negs


class TestLossKernel:
    @settings(max_examples=100, deadline=None)
    @given(**BATCHES)
    def test_matches_former_kernel(self, **batch):
        model, positives, negs = random_batch(**batch)
        loss, g_entity, g_phase = loss_and_grad(model, positives, negs)
        want_loss, want_entity, want_phase = rotate_oracle.loss_and_grad(model, positives, negs)
        assert abs(loss - want_loss) <= 1e-12
        np.testing.assert_allclose(g_entity, want_entity, rtol=0, atol=1e-12)
        np.testing.assert_allclose(g_phase, want_phase, rtol=0, atol=1e-12)
        if batch["collapsed"]:
            assert not g_entity.any() and not g_phase.any()

    @settings(max_examples=50, deadline=None)
    @given(**BATCHES, extra_rows=st.integers(0, 4), extra_negatives=st.integers(0, 3))
    def test_larger_used_buffers_are_bit_equal_to_fresh_ones(
        self, extra_rows, extra_negatives, **batch
    ):
        model, positives, negs = random_batch(**batch)
        B, K = negs.shape
        rows = np.full(((B + extra_rows) * (K + extra_negatives + 2), 2 * model.dim), np.nan)
        moduli = np.full((B + extra_rows) * (K + extra_negatives) * model.dim, np.nan)
        fresh = loss_and_grad(model, positives, negs)
        for _ in range(2):  # the second call starts from the first call's leftovers
            got = loss_and_grad(model, positives, negs, rows, moduli)
            assert got[0] == fresh[0]
            assert got[1].tobytes() == fresh[1].tobytes()
            assert got[2].tobytes() == fresh[2].tobytes()

    @settings(max_examples=150, deadline=None)
    @given(
        **dict(BATCHES, B=st.integers(1, 20)),
        block=st.integers(1, 8),
        spare=st.integers(0, 10**6),
        dirty=st.sampled_from([np.nan, np.inf, 0.0, 1e300]),
    )
    def test_blocks_of_positives_are_bit_equal_to_the_whole_batch(self, block, spare, dirty, **batch):
        # batches below, at, above and not a multiple of the block, in a
        # moduli buffer with up to one positive's worth of floats to spare,
        # and rows left dirty by other values and by the previous call
        model, positives, negs = random_batch(**batch)
        B, K = negs.shape
        d = model.dim
        want = rotate_oracle.whole_batch_loss_and_grad(model, positives, negs)
        rows = np.full((B * (K + 2), 2 * d), dirty)
        moduli = np.full(block * K * d + spare % (K * d), dirty)
        for got in (
            loss_and_grad(model, positives, negs),
            loss_and_grad(model, positives, negs, rows, moduli),
            loss_and_grad(model, positives, negs, rows, moduli),
        ):
            assert got[0] == want[0]
            assert got[1].tobytes() == want[1].tobytes()
            assert got[2].tobytes() == want[2].tobytes()

    def test_default_moduli_split_a_large_batch(self, monkeypatch):
        # a 50-positive batch in blocks of 8, 3 and 1 positives and in one
        calls = []
        modulus = rotate._modulus
        monkeypatch.setattr(rotate, "_modulus", lambda *a, **k: calls.append(1) or modulus(*a, **k))
        model, positives, negs = random_batch(3, 6, 3, 4, 50, 5, True, False)
        want = rotate_oracle.whole_batch_loss_and_grad(model, positives, negs)
        for block, n_blocks in ((8 * 5 * 4, 7), (3 * 5 * 4 + 7, 17), (5 * 4, 50), (1 << 16, 1)):
            monkeypatch.setattr(rotate, "_NEGATIVE_BLOCK", block)
            calls.clear()
            got = loss_and_grad(model, positives, negs)
            assert len(calls) == 1 + n_blocks  # the positive part, then each block
            assert got[0] == want[0]
            assert got[1].tobytes() == want[1].tobytes()
            assert got[2].tobytes() == want[2].tobytes()

    def test_unusable_buffers_rejected(self):
        model = random_model(7)
        positives, negs = np.array([[0, 0, 1], [2, 1, 3]]), np.array([[1, 2], [3, 4]])
        # moduli needs one positive's K * dim floats, not the batch's
        rows, moduli = np.empty((8, 2 * model.dim)), np.empty(2 * model.dim)
        loss_and_grad(model, positives, negs, rows, moduli)
        with pytest.raises(ValueError, match="too small"):
            loss_and_grad(model, positives, negs, rows[:7], moduli)
        with pytest.raises(ValueError, match="too small"):
            loss_and_grad(model, positives, negs, rows, moduli[: 2 * model.dim - 1])
        with pytest.raises(ValueError, match="C-contiguous"):
            loss_and_grad(model, positives, negs, np.empty((2 * model.dim, 8)).T, moduli)

    @pytest.mark.parametrize("column, bad", [(0, 6), (1, 3), (2, -1)])
    def test_out_of_range_ids_rejected(self, column, bad):
        model = random_model(8)
        positives, negs = np.array([[0, 0, 1]]), np.array([[2, 3]])
        positives[0, column] = bad
        with pytest.raises(KBError):
            loss_and_grad(model, positives, negs)
        with pytest.raises(KBError):
            loss_and_grad(model, np.array([[0, 0, 1]]), np.array([[2, 6]]))


class TestTraining:
    def test_pinned_digest(self):
        # batches of 100 positives with 64 negatives of dim 16: each runs its
        # negative part in blocks of 64 and 36 positives; the digest was
        # taken with the whole-batch kernel
        kb = synthetic.planted_kb(0)[0]
        model, trace = train_embeddings(kb, PINNED_CONFIG)
        digest = hashlib.sha256()
        for values in (model.entity, model.phase, np.array(trace)):
            digest.update(values.tobytes())
        assert digest.hexdigest() == "5085ea75a31e792006f9394abc8a1216170065c6fe7fb17209b20662f5ab555f"

    def test_zero_epochs_returns_seeded_init(self):
        kb = synthetic.family_kb()
        cfg = RotateConfig(dim=8, epochs=0, seed=42)
        model, trace = train_embeddings(kb, cfg)
        fresh = init_model(kb.num_entities, kb.num_relations, cfg)
        assert trace == []
        np.testing.assert_array_equal(model.entity, fresh.entity)
        np.testing.assert_array_equal(model.phase, fresh.phase)

    def test_init_ranges(self):
        cfg = RotateConfig(dim=16, margin=6.0, seed=0)
        model = init_model(40, 5, cfg)
        spread = (cfg.margin + 2.0) / cfg.dim
        assert np.abs(model.entity).max() <= spread
        assert model.phase.min() >= -np.pi
        assert model.phase.max() <= np.pi

    def test_deterministic_per_seed(self):
        kb = synthetic.family_kb()
        cfg = RotateConfig(dim=4, epochs=3, negatives=4, seed=9)
        m1, t1 = train_embeddings(kb, cfg)
        m2, t2 = train_embeddings(kb, cfg)
        assert t1 == t2
        np.testing.assert_array_equal(m1.entity, m2.entity)
        np.testing.assert_array_equal(m1.phase, m2.phase)

    def test_single_edge_separates_from_corruptions(self):
        kb = synthetic.build_kb(["a", "b", "c", "d"], ["r"], [("a", "r", "b")])
        cfg = RotateConfig(dim=8, epochs=200, negatives=8, lr=0.01, seed=1)
        model, _ = train_embeddings(kb, cfg)
        pos = score(model, 0, 0, 1)
        for wrong in (2, 3):
            assert pos > score(model, 0, 0, wrong)

    def test_loss_trend_decreases(self):
        rng = np.random.default_rng(8)
        kb = synthetic.random_kb(rng, n_entities=20, n_relations=3, n_triples=80)
        cfg = RotateConfig(dim=8, epochs=10, negatives=8, lr=0.01, seed=2)
        _, trace = train_embeddings(kb, cfg)
        assert len(trace) == 10
        assert np.mean(trace[5:]) < np.mean(trace[:5])

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            RotateConfig(dim=0)
        with pytest.raises(ValueError):
            RotateConfig(epochs=-1)
        with pytest.raises(ValueError):
            RotateConfig(negatives=0)

    @pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux only")
    def test_peak_rss_within_24_mb_of_extract(self, tmp_path):
        """rotate-train's peak RSS above extract's, at the `dense`
        benchmark's [rotate] settings. The bound lies between about 18 MB,
        with a batch's negative moduli and gradient scatter taken in
        fixed-size blocks, and about 32 MB, with them as whole-batch
        temporaries. A launcher that imports no numpy runs each stage as
        its child, because Linux carries a parent's peak RSS into its
        child's ru_maxrss."""
        kb = synthetic.random_kb(np.random.default_rng(0), n_entities=400, n_relations=14, n_triples=6000)
        data = synthetic.write_kb_files(str(tmp_path / "data"), kb)
        config = tmp_path / "cfg.ini"
        config.write_text(
            "[run]\noutput_dir = %s\n\n[kb]\ntrain = %s\nvalid = %s\ntest = %s\n\n"
            "[rotate]\ndim = 32\nnegatives = 32\nepochs = 3\nbatch_size = 512\n"
            % (tmp_path / "runs", data["train"], data["valid"], data["test"])
        )
        launcher = textwrap.dedent(
            """
            import os, subprocess, sys
            assert "numpy" not in sys.modules
            for stage in ("extract", "rotate-train"):
                cmd = [sys.executable, "-m", "rulekbc.cli", "--config", sys.argv[1], stage]
                proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL)
                _, status, usage = os.wait4(proc.pid, 0)
                print(stage, os.waitstatus_to_exitcode(status), usage.ru_maxrss)
            """
        )
        src = os.path.dirname(os.path.dirname(rulekbc.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        got = subprocess.run(
            [sys.executable, "-c", launcher, str(config)], env=env, capture_output=True, text=True, timeout=120
        )
        rows = [line.split() for line in got.stdout.splitlines()]
        assert [row[:2] for row in rows] == [["extract", "0"], ["rotate-train", "0"]], got.stderr
        extract_kib, train_kib = (int(row[2]) for row in rows)
        gap_mb = (train_kib - extract_kib) / 1024.0
        assert gap_mb <= 24.0, "rotate-train peaks %.1f MB above extract" % gap_mb


class TestCheckpoint:
    def test_round_trip_exact(self, tmp_path):
        model = random_model(11)
        path = str(tmp_path / "emb.bin")
        save_embeddings(path, model)
        back = load_embeddings(path)
        assert back.margin == model.margin
        np.testing.assert_array_equal(back.entity, model.entity)
        np.testing.assert_array_equal(back.phase, model.phase)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "emb.bin"
        path.write_bytes(b"XXXX" + b"\0" * 64)
        with pytest.raises(KBError):
            load_embeddings(str(path))

    def test_trailing_bytes_rejected(self, tmp_path):
        model = random_model(12)
        path = str(tmp_path / "emb.bin")
        save_embeddings(path, model)
        with open(path, "ab") as fh:
            fh.write(b"extra")
        with pytest.raises(KBError):
            load_embeddings(path)

    def test_truncated_rejected(self, tmp_path):
        model = random_model(13)
        path = str(tmp_path / "emb.bin")
        save_embeddings(path, model)
        data = open(path, "rb").read()
        # the arrays cut short, then the 32-byte header after the magic
        for end in (len(data) - 16, 4 + 31):
            with open(path, "wb") as fh:
                fh.write(data[:end])
            with pytest.raises(KBError, match="is truncated$"):
                load_embeddings(path)

    @pytest.mark.parametrize(
        "dim, entities, relations, message",
        [
            (2**40, 2**20, 1, "is truncated"),
            (2**62, 2**62, 1, "is truncated"),
            (2**20, 2**20, 2**20, "is truncated"),
            (0, 15, 3, "has an invalid header"),
            (4, 0, 3, "has an invalid header"),
            (4, 15, -1, "has an invalid header"),
        ],
        ids=["overflow", "int64-overflow", "huge", "zero-dim", "zero-entities", "negative-relations"],
    )
    def test_corrupt_header_rejected_without_allocating(self, tmp_path, dim, entities, relations, message):
        # a header's implied size is checked against the file's before any
        # read; reading these sizes would overflow or exhaust memory, and a
        # count below 1 is refused before its size is computed
        model = random_model(15)
        path = tmp_path / "emb.bin"
        save_embeddings(str(path), model)
        data = bytearray(path.read_bytes())
        data[4:28] = struct.pack("<qqq", dim, entities, relations)
        path.write_bytes(bytes(data))
        with pytest.raises(KBError, match="%s$" % message):
            load_embeddings(str(path))

    @pytest.mark.parametrize("field", ["margin", "entity", "phase"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_rejected(self, tmp_path, field, bad):
        model = random_model(14)
        if field == "margin":
            model.margin = bad
        else:
            getattr(model, field)[1, 0] = bad
        path = str(tmp_path / "emb.bin")
        save_embeddings(path, model)
        with pytest.raises(KBError, match="non-finite %s" % field):
            load_embeddings(path)
