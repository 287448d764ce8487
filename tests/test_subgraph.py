"""Subgraph sampling: determinism, caps, the closed-path constraint, dumps."""

import hashlib
import io

import numpy as np
import pytest

import synthetic
from rulekbc.kb import KBError, Triple
from rulekbc.subgraph import (
    ExtractorConfig,
    extract_subgraph,
    linearize,
    load_subgraphs,
    sample_targets,
    save_subgraphs,
)


def random_kb(seed, n_entities=25, n_triples=120):
    rng = np.random.default_rng(seed)
    return synthetic.random_kb(rng, n_entities=n_entities, n_relations=4, n_triples=n_triples)


class TestSampleTargets:
    def test_small_pool_returned_whole(self):
        kb = synthetic.family_kb()
        rel = kb.relations.id("parent")
        assert sample_targets(kb, rel, 10, seed=0) == [t for t in kb.train if t.relation == rel]

    def test_deterministic_and_distinct(self):
        kb = random_kb(3)
        for rel in range(kb.num_relations):
            a = sample_targets(kb, rel, 5, seed=42)
            b = sample_targets(kb, rel, 5, seed=42)
            assert a == b
            assert len(set(a)) == len(a)
            assert all(t.relation == rel for t in a)

    def test_seed_changes_selection(self):
        kb = random_kb(4, n_entities=40, n_triples=300)
        rel = 0
        picks = {tuple(sample_targets(kb, rel, 4, seed=s)) for s in range(20)}
        assert len(picks) > 1


class TestExtraction:
    def test_deterministic(self):
        kb = random_kb(5)
        cfg = ExtractorConfig(rng_seed=7)
        for target in kb.train[:20]:
            a = extract_subgraph(kb, target, cfg)
            b = extract_subgraph(kb, target, cfg)
            assert a.triples == b.triples
            assert a.hop_of == b.hop_of

    def test_target_never_included(self):
        kb = random_kb(6)
        cfg = ExtractorConfig()
        for target in kb.train[:30]:
            sg = extract_subgraph(kb, target, cfg)
            assert target not in sg.triples

    def test_all_triples_from_train(self):
        kb = random_kb(7)
        cfg = ExtractorConfig()
        for target in kb.train[:30]:
            sg = extract_subgraph(kb, target, cfg)
            for t in sg.triples:
                assert t in kb.train

    def test_size_bound(self):
        # each hop expands at most cap triples per frontier entity, and each
        # triple adds at most one new frontier member beyond the previous hop
        kb = random_kb(8, n_entities=30, n_triples=200)
        cfg = ExtractorConfig(max_hops=3, max_neighbors_per_entity=2)
        cap = cfg.max_neighbors_per_entity
        bound = 0
        frontier = 2
        for _ in range(cfg.max_hops):
            bound += frontier * cap
            frontier = frontier * cap  # every new triple can add one new entity
        for target in kb.train[:40]:
            sg = extract_subgraph(kb, target, cfg)
            assert len(sg) <= bound

    def test_hops_start_at_one_and_grow_contiguously(self):
        kb = random_kb(9)
        cfg = ExtractorConfig()
        for target in kb.train[:20]:
            sg = extract_subgraph(kb, target, cfg)
            if not sg.triples:
                continue
            hops = sorted(set(sg.hop_of.values()))
            assert hops[0] == 1
            assert hops == list(range(1, hops[-1] + 1))

    def test_final_hop_triples_touch_an_anchor(self):
        # fuzz the closed-path constraint on many random graphs
        for seed in range(15):
            kb = random_kb(100 + seed, n_entities=20, n_triples=90)
            cfg = ExtractorConfig(max_hops=2, max_neighbors_per_entity=3)
            for target in kb.train[:15]:
                sg = extract_subgraph(kb, target, cfg)
                anchors = {target.head, target.tail}
                for t in sg.triples:
                    if sg.hop_of[t] == cfg.max_hops:
                        assert t.head in anchors or t.tail in anchors

    def test_first_hop_touches_anchor_always(self):
        kb = random_kb(10)
        cfg = ExtractorConfig()
        for target in kb.train[:20]:
            sg = extract_subgraph(kb, target, cfg)
            anchors = {target.head, target.tail}
            for t in sg.triples:
                if sg.hop_of[t] == 1:
                    assert t.head in anchors or t.tail in anchors

    def test_neighbor_cap_respected_at_hop_one(self):
        kb = random_kb(11, n_entities=6, n_triples=60)
        cfg = ExtractorConfig(max_hops=1, max_neighbors_per_entity=2)
        for target in kb.train[:20]:
            sg = extract_subgraph(kb, target, cfg)
            # two start pivots, each contributing at most the cap
            assert len(sg) <= 2 * cfg.max_neighbors_per_entity

    def test_dump_digest_is_pinned(self):
        # the `extract` stage's dumps for every relation at 1, 2 and 3 hops;
        # cap 2 makes `rng.choice` thin most pivots' candidates, and at 2 and
        # 3 hops the closed-path constraint drops triples. The digest was
        # taken at commit 8c74a4c, whose extractor dropped those in a second
        # pass over the walk; the walk must still draw and write these bytes
        kb = random_kb(14, n_entities=30, n_triples=200)
        out = io.StringIO()
        for hops in (1, 2, 3):
            cfg = ExtractorConfig(
                max_hops=hops, max_neighbors_per_entity=2, max_subgraphs_per_relation=10, rng_seed=3
            )
            for rel in range(kb.num_relations):
                targets = sample_targets(kb, rel, cfg.max_subgraphs_per_relation, cfg.rng_seed)
                save_subgraphs(out, kb, [extract_subgraph(kb, t, cfg) for t in targets])
        digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
        assert digest == "49e254397b9b870d86586ba91212f683f3debd8a129059d97b106926bea40d0f"

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            ExtractorConfig(max_hops=0)
        with pytest.raises(ValueError):
            ExtractorConfig(max_neighbors_per_entity=0)
        with pytest.raises(ValueError):
            ExtractorConfig(max_subgraphs_per_relation=0)


class TestSerialization:
    def test_linearize_shows_names(self):
        kb = synthetic.family_kb()
        target = Triple(kb.entities.id("Anna"), kb.relations.id("grandparent"), kb.entities.id("Charlie"))
        sg = extract_subgraph(kb, target, ExtractorConfig())
        text = linearize(sg, kb)
        assert "(Anna, parent, Bob)" in text
        assert "(Bob, parent, Charlie)" in text
        assert "grandparent" not in text  # target edge excluded

    def test_dump_round_trip(self, tmp_path):
        kb = random_kb(13)
        cfg = ExtractorConfig()
        sgs = [extract_subgraph(kb, t, cfg) for t in kb.train[:8]]
        path = tmp_path / "dump.txt"
        with open(path, "w", encoding="utf-8") as fh:
            save_subgraphs(fh, kb, sgs)
        loaded = list(load_subgraphs(str(path), kb))
        assert len(loaded) == len(sgs)
        for orig, back in zip(sgs, loaded):
            assert back.target == orig.target
            assert back.triples == orig.triples
            assert back.hop_of == orig.hop_of

    def test_malformed_dump_line_raises(self, tmp_path):
        kb = synthetic.family_kb()
        path = tmp_path / "dump.txt"
        path.write_text("target\tAnna\tparent\tBob\njunk line\n")
        with pytest.raises(KBError, match=":2: malformed"):
            list(load_subgraphs(str(path), kb))
