"""Query phase: the set-up `rulekbc explain` pays, explain queries, then eval.

usage: python3 perfbench/query.py --config CFG --out RESULT.json [options]

One process is one invocation's worth of work. It loads what `cmd_explain`
loads (KB, rule file, groundings from the warm cache, embedding and parameter
checkpoints) through the same CLI helpers, then one client sends explain
queries in a closed loop (the next query starts when the previous one
returned) for `--seconds`, then `evaluation.evaluate_model` ranks the test
split. A query is what `cmd_explain` computes for `(head, relation, ?)`:
`trainer.rank` with top_k=10, then, for every rule contribution of every
ranked tail, `cli._rule_by_text` to find the rule and
`grounding.witness_paths` (limit 2). Query heads and relations come from the
test split in a seeded order. With --setup-only the process stops after the
set-up; run.py runs it so after every build but the last, so the set-ups are
spread over the run, and runs the full query phase after the last build.

Every answer is checked outside the timed region; a failed check counts as a
failed operation. With --trace-out the timing wrappers are installed first and
the spans are written to that file at exit. The process ends with os._exit
after writing its results, as stage.py does, so that no teardown falls
outside the spans.
"""
import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from typing import List, Sequence  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402

TOP_K = 10
WITNESS_LIMIT = 2
SUM_TOLERANCE = 1e-9
MIN_BEYOND = 10  # samples that must lie beyond a reported percentile


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank q-th percentile; at least MIN_BEYOND samples lie above it."""
    ordered = sorted(values)
    idx = max(0, math.ceil(q * len(ordered) / 100.0) - 1)
    if len(ordered) - 1 - idx < MIN_BEYOND:
        raise ValueError(
            "p%g of %d samples leaves fewer than %d samples beyond it" % (q, len(ordered), MIN_BEYOND)
        )
    return ordered[idx]


class Session:
    """Everything one `rulekbc explain` invocation loads before its query,
    loaded as `cmd_explain` loads it."""

    def __init__(self, config_path: str):
        from rulekbc import cli, grounding, trainer

        cfg = cli.load_config(config_path)
        run = cli._prepare_run_dir(cfg)
        self.kb = cli._load_kb(cfg)
        self.learned = cli._load_rule_file(run, self.kb)
        self.groundings = grounding.ground_all(
            self.kb, self.learned, cache_dir=os.path.join(run, "groundings")
        )
        self.rotate_model = cli._ensure_rotate(cfg, run, self.kb, train_if_missing=False)
        self.params = trainer.load_params(os.path.join(run, "checkpoints", "params.json"), self.kb)

    def explain(self, head: int, relation: int):
        """Ranked tails with attributions and witness paths; returns (result, paths found)."""
        from rulekbc import cli, grounding, trainer

        result = trainer.rank(
            self.params, self.kb, self.groundings, self.rotate_model, head, relation, top_k=TOP_K
        )
        found = 0
        for entry in result.entries:
            for label, _ in entry.contributions:
                if label != "embedding":
                    rule = cli._rule_by_text(self.learned, label, self.kb)
                    paths = grounding.witness_paths(self.kb, rule, head, entry.tail, limit=WITNESS_LIMIT)
                    found += len(paths)
        return result, found

    def work(self) -> dict:
        kb = self.kb
        return {
            "entities": kb.num_entities,
            "relations": kb.num_relations,
            "train_triples": len(kb.train),
            "valid_triples": len(kb.valid),
            "test_triples": len(kb.test),
            "train_heads": len({(t.head, t.relation) for t in kb.train}),
            "grounded_rules": sum(len(v) for v in self.groundings.values()),
            "grounding_body_nnz": sum(
                g.body_count.nnz for v in self.groundings.values() for g in v
            ),
        }


def check_explained(result) -> List[str]:
    """Attributions must add up to each score, and scores must not increase."""
    problems = []
    scores = [e.score for e in result.entries]
    if any(b > a for a, b in zip(scores, scores[1:])):
        problems.append("entries of (%d, %d) are not in descending score order" % (result.head, result.relation))
    for e in result.entries:
        total = sum(v for _, v in e.contributions)
        if abs(total - e.score) > SUM_TOLERANCE:
            problems.append(
                "(%d, %d, %d): contributions sum to %r, score is %r"
                % (result.head, result.relation, e.tail, total, e.score)
            )
    return problems


def query_order(session: Session, seed: int) -> List[tuple]:
    """Test-split (head, relation) pairs in a seeded order."""
    pairs = [(t.head, t.relation) for t in session.kb.test]
    order = np.random.default_rng(np.random.SeedSequence([seed, 7])).permutation(len(pairs))
    return [pairs[i] for i in order]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--config", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true", help="stop after timing the set-up")
    ap.add_argument("--seconds", type=float, default=2.0, help="explain loop length")
    ap.add_argument("--queries", type=int, default=0, help="fixed query count instead of --seconds")
    ap.add_argument("--trace-out", default=None)
    args = ap.parse_args(argv)

    # the phase spans cost nothing measurable; they are written only when traced
    tracer = tracing.Tracer()
    root = tracer.begin("cli.query", tracing.started(_START))
    if args.trace_out:
        tracing.install(tracer)

    from rulekbc import evaluation, trainer

    failures: List[str] = []  # first messages, for the log
    attempted = failed = 0
    try:
        slot = tracer.begin("bench.setup")
        t0 = time.perf_counter()
        session = Session(args.config)
        setup_s = time.perf_counter() - t0
        tracer.end(slot)
        out = {"setup_s": setup_s, "work": session.work()}
        if args.setup_only:
            out.update(attempted=attempted, failed=failed, failures=failures)
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump(out, fh)
            return 0

        slot = tracer.begin("bench.explain")
        order = query_order(session, args.seed)
        latencies, found = [], 0
        deadline = time.perf_counter() + args.seconds
        while (len(latencies) < args.queries) if args.queries else (time.perf_counter() < deadline):
            head, relation = order[len(latencies) % len(order)]
            attempted += 1
            t0 = time.perf_counter()
            try:
                result, n = session.explain(head, relation)
            except Exception as exc:  # a failed query is counted, the loop goes on
                latencies.append(time.perf_counter() - t0)
                failed += 1
                failures.append("explain (%d, %d) raised %r" % (head, relation, exc))
                continue
            latencies.append(time.perf_counter() - t0)
            found += n
            problems = check_explained(result)
            failed += bool(problems)
            failures.extend(problems)
        tracer.end(slot)

        attempted += 1
        slot = tracer.begin("bench.eval")
        t0 = time.perf_counter()
        report = evaluation.evaluate_model(
            session.params, session.kb, session.groundings, session.rotate_model, split="test"
        )
        eval_s = time.perf_counter() - t0
        tracer.end(slot)

        # gold ranks recomputed query by query must be in range and give the same MRR
        slot = tracer.begin("bench.check")
        ranks = []
        for t in session.kb.test:
            attempted += 1
            res = trainer.rank(
                session.params, session.kb, session.groundings, session.rotate_model,
                t.head, t.relation, gold=t.tail, top_k=0,
            )
            if not 1 <= res.gold_rank <= res.candidate_count:
                failed += 1
                failures.append("gold rank %r outside [1, %d]" % (res.gold_rank, res.candidate_count))
            ranks.append(res.gold_rank)
        attempted += 1
        if evaluation.compute_metrics(ranks).mrr != report.mrr:
            failed += 1
            failures.append("per-query MRR differs from evaluate_model")
        tracer.end(slot)

        out.update(
            latencies_ms=[1e3 * x for x in latencies],
            witness_paths_found=found,
            eval_s=eval_s,
            eval_queries=report.query_count,
            test_mrr=report.mrr,
            attempted=attempted,
            failed=failed,
            failures=failures[:20],
        )
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(out, fh)
    finally:
        tracer.end(root)
        if args.trace_out:
            tracer.dump(args.trace_out)
    return 0


if __name__ == "__main__":
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)
