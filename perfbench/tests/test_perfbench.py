"""Tests of the benchmark's own code: generator, span self times, percentiles."""

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
import scipy.sparse as sp

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import gen  # noqa: E402
import query  # noqa: E402
import tracing  # noqa: E402

SMALL = gen.Shape(
    entities=60, base_relations=3, derived_relations=4, base_out_degree=1.5, max_pairs=80, noise=0.1
)


def _files(tmp_path, name, seed):
    paths = gen.write_kb(str(tmp_path / name), gen.generate(SMALL, seed))
    return {split: open(p, "rb").read() for split, p in paths.items()}


class TestGenerator:
    def test_same_seed_is_byte_identical(self, tmp_path):
        assert _files(tmp_path, "a", 5) == _files(tmp_path, "b", 5)

    def test_other_seed_differs(self, tmp_path):
        a, b = _files(tmp_path, "a", 5), _files(tmp_path, "b", 6)
        assert a["train"] != b["train"]

    def test_derived_relations_follow_their_planted_body(self):
        splits = gen.generate(SMALL, 3)
        idx = {gen._entity(i): i for i in range(SMALL.entities)}
        base = {}
        for h, r, t in splits["train"]:
            if r.startswith("base"):
                base.setdefault(r, []).append((idx[h], idx[t]))
        n = SMALL.entities

        def adj(r):
            rows, cols = zip(*base[gen._base_name(r)])
            return sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))

        for j, body in enumerate(gen.derived_bodies(SMALL)):
            closure = sp.identity(n, format="csr")
            for r, rev in body:
                closure = closure @ (adj(r).T if rev else adj(r))
            pairs = [
                (idx[h], idx[t])
                for split in gen.SPLITS
                for h, r, t in splits[split]
                if r == gen._derived_name(j)
            ]
            planted = sum(closure[h, t] > 0 for h, t in pairs)
            assert pairs and planted >= 0.7 * len(pairs)

    def test_every_hop_count_is_planted(self):
        assert {len(b) for b in gen.derived_bodies(SMALL)} == {1, 2, 3}


class TestSelfTime:
    def test_nested_and_sibling_children(self):
        spans = [
            ("root", 0.0, 10.0, -1),
            ("a", 1.0, 4.0, 0),
            ("a.inner", 2.0, 3.0, 1),
            ("b", 5.0, 7.0, 0),
            ("b", 7.5, 8.0, 0),
        ]
        assert tracing.self_times(spans) == pytest.approx([4.5, 2.0, 1.0, 2.0, 0.5])
        agg = tracing.aggregate(spans)
        assert agg["b"]["calls"] == 2 and agg["b"]["self_s"] == pytest.approx(2.5)
        assert sum(tracing.self_times(spans)) == pytest.approx(10.0)  # the root's duration

    def test_overlapping_children_are_not_counted_twice(self):
        spans = [("root", 0.0, 10.0, -1), ("a", 1.0, 5.0, 0), ("b", 3.0, 12.0, 0)]
        assert tracing.self_times(spans)[0] == pytest.approx(1.0)

    def test_root_starts_when_the_parent_launched_the_process(self, monkeypatch):
        monkeypatch.delenv(tracing.START_ENV, raising=False)
        assert tracing.started(5.0) == 5.0
        monkeypatch.setenv(tracing.START_ENV, repr(1.25))
        assert tracing.started(5.0) == 1.25

    def test_tracer_records_parents(self):
        tr = tracing.Tracer()
        outer = tr.begin("outer")
        inner = tr.begin("inner")
        tr.end(inner)
        tr.end(outer)
        assert [(name, parent) for name, _, _, parent in tr.spans] == [("outer", -1), ("inner", 0)]
        with pytest.raises(ValueError):
            tr.end(outer)

    def test_install_rebinds_imported_names(self):
        # installing mutates the rulekbc modules, so it runs in its own process
        code = textwrap.dedent(
            """
            import tracing
            from rulekbc import grounding, kb, rotate, trainer
            tr = tracing.Tracer()
            tracing.install(tr)
            assert trainer.score_tails is rotate.score_tails
            assert grounding.kb_fingerprint is kb.kb_fingerprint
            assert trainer.support_row is grounding.support_row
            assert hasattr(trainer.rank, "__wrapped__")
            k = kb.KnowledgeBase(kb.Vocab(), kb.Vocab(), [], [], [])
            k.train_by_relation(0)
            assert [s[0] for s in tr.spans] == ["kb.KnowledgeBase.train_by_relation"], tr.spans
            """
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([BENCH, os.path.join(os.path.dirname(BENCH), "src")]))
        got = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert got.returncode == 0, got.stderr


class TestPercentile:
    @pytest.mark.parametrize("n", [200, 201, 219, 220, 999, 2000])
    def test_leaves_ten_samples_beyond(self, n):
        value = query.percentile(list(range(n))[::-1], 95)
        assert n - 1 - value >= query.MIN_BEYOND
        assert value == -(-95 * n // 100) - 1  # nearest rank

    @pytest.mark.parametrize("n", [1, 50, 199])
    def test_too_few_samples_rejected(self, n):
        with pytest.raises(ValueError):
            query.percentile(list(range(n)), 95)
