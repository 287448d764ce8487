"""Acceptance gate: every shipped guarantee checked at its stated tolerance.

Each test prints one verdict line (run with -s to see them alongside -v); a
FAIL line is always followed by the assertion failure itself.
"""

import time

import numpy as np

import gradcheck
import synthetic
from rulekbc.evaluation import compute_metrics, rule_quality_from_counts
from rulekbc.grounding import ground, score
from rulekbc.rules import CASE_FLAGS
from rulekbc.trainer import RelationParams, combined_score, softmax
from test_grounding import oracle_ground


def verdict(ok: bool, line: str) -> None:
    print("[%s] %s" % ("PASS" if ok else "FAIL", line))
    assert ok, line


def test_criterion_1_grounding_matches_enumeration_oracle():
    rng = np.random.default_rng(2024)
    started = time.monotonic()
    instances = 0
    mismatches = 0
    for case in CASE_FLAGS:
        for _ in range(15):
            kb = synthetic.random_kb(
                rng,
                n_entities=int(rng.integers(6, 10)),
                n_relations=3,
                n_triples=int(rng.integers(15, 35)),
            )
            rels = [kb.relation_name(int(rng.integers(3))) for _ in range(3)]
            rh = kb.relation_name(int(rng.integers(3)))
            rule = synthetic.classified_rule(kb, synthetic.case_rule_text(case, *rels, rh=rh))
            g = ground(kb, rule)
            c_exp, a_exp = oracle_ground(kb, rule)
            if not (
                np.array_equal(g.body_count.to_dense(), c_exp)
                and np.array_equal(g.joint_count.to_dense(), a_exp)
            ):
                mismatches += 1
            instances += 1
    elapsed = time.monotonic() - started
    verdict(
        instances >= 200 and mismatches == 0 and elapsed < 30.0,
        "criterion 1: grounding counts match the enumeration oracle on "
        "%d/%d random instances in %.1fs (need >=200 exact in <30s)"
        % (instances - mismatches, instances, elapsed),
    )


def test_criterion_2_family_toy_signed_evidence():
    kb = synthetic.family_kb(with_head=True)
    g = ground(kb, synthetic.classified_rule(kb, synthetic.PLANTED_RULE_TEXT))
    anna, bob, charlie = (kb.entities.id(n) for n in ("Anna", "Bob", "Charlie"))
    bridged = score(g, anna, charlie)
    unrelated = score(g, bob, anna)
    kb2 = synthetic.family_kb(with_head=False)
    g2 = ground(kb2, synthetic.classified_rule(kb2, synthetic.PLANTED_RULE_TEXT))
    contradicted = score(g2, kb2.entities.id("Anna"), kb2.entities.id("Charlie"))
    verdict(
        bridged == 1 and contradicted == -1 and unrelated == 0,
        "criterion 2: three-person chain scores +1 supported / -1 contradicted / "
        "0 unsupported (got %+d / %+d / %+d)" % (bridged, contradicted, unrelated),
    )


def test_criterion_3_rule_quality_reference_values():
    rqi = rule_quality_from_counts(794, 406, 0.428).rqi
    hcr = rule_quality_from_counts(1406, 1106, 0.5).hcr
    verdict(
        abs(rqi - 46.60) <= 0.05 and abs(hcr - 78.66) <= 0.01,
        "criterion 3: quality aggregates give RQI %.3f (46.60 +/- 0.05) and "
        "HCR %.3f (78.66 +/- 0.01)" % (rqi, hcr),
    )


def test_criterion_4_ranking_metric_reference_values():
    rep = compute_metrics([1, 2, 4])
    verdict(
        abs(rep.mrr - 0.5833) <= 1e-4 and abs(rep.hits[3] - 0.667) <= 1e-3,
        "criterion 4: ranks [1,2,4] give MRR %.5f (0.5833 +/- 1e-4) and "
        "hits@3 %.4f (0.667 +/- 1e-3)" % (rep.mrr, rep.hits[3]),
    )


def test_criterion_5_gradients_match_central_differences():
    rotate_errs = [gradcheck.rotate_fd_check(seed) for seed in range(10)]
    weight_errs = [gradcheck.trainer_fd_check(seed) for seed in range(10)]
    worst = max(max(rotate_errs), max(weight_errs))
    verdict(
        worst <= 1e-4,
        "criterion 5: analytic gradients of both losses match central "
        "differences over 10 seeds each, worst relative error %.2e (<= 1e-4)" % worst,
    )


def test_criterion_6_planted_rule_recovered(planted_results):
    records = planted_results["records"]
    elapsed = planted_results["elapsed"]
    good = sum(
        1
        for r in records
        if int(np.argmax(r["rule_logits"])) == r["planted_idx"]
        and r["learned_hits1"] >= 0.9
    )
    verdict(
        good >= 9 and len(records) == 10 and elapsed < 120.0,
        "criterion 6: planted rule carries the max weight with hits@1 >= 0.9 on "
        "%d/10 seeds in %.1fs (need >=9 in <120s)" % (good, elapsed),
    )


def test_criterion_7_learned_weights_beat_uniform(planted_results):
    records = planted_results["records"]
    better = sum(1 for r in records if r["learned_mrr"] > r["uniform_mrr"])
    margins = [r["learned_mrr"] - r["uniform_mrr"] for r in records]
    verdict(
        better >= 9 and len(records) == 10,
        "criterion 7: learned weights beat equal weights on validation MRR on "
        "%d/10 seeds (need >=9; median margin %.3f)"
        % (better, float(np.median(margins))),
    )


def test_criterion_8_pipeline_reruns_byte_identical(cli_pipeline):
    snap_a, snap_b = cli_pipeline["snapshots"]
    time_a, time_b = cli_pipeline["times"]
    keys_a = {k for k in snap_a if not k.startswith("groundings")}
    keys_b = {k for k in snap_b if not k.startswith("groundings")}
    diffs = sorted(k for k in keys_a & keys_b if snap_a[k] != snap_b[k])
    identical = keys_a == keys_b and not diffs
    verdict(
        identical and time_a < 60.0 and time_b < 60.0,
        "criterion 8: end-to-end rerun reproduces %d artifacts byte-for-byte "
        "(cache excluded) in %.1fs and %.1fs passes (<60s each; %d diffs)"
        % (len(keys_a), time_a, time_b, len(diffs)),
    )


def test_criterion_9_weighting_softmax_invariants():
    rng = np.random.default_rng(31)
    worst_sum = 0.0
    for _ in range(1000):
        size = int(rng.integers(1, 12))
        scale = 10.0 ** rng.integers(-3, 7)
        p = softmax(rng.normal(scale=scale, size=size))
        worst_sum = max(worst_sum, abs(float(p.sum()) - 1.0))
        if (p < 0).any() or not np.isfinite(p).all():
            worst_sum = np.inf
    exact_removals = 0
    trials = 50
    for _ in range(trials):
        n = int(rng.integers(2, 6))
        e = int(rng.integers(3, 8))
        logits = rng.normal(size=n + 1)
        dead = int(rng.integers(n))
        rows = rng.integers(-2, 3, size=(n, e)).astype(float)
        rows[dead] = 0.0
        emb = rng.random(e)
        mix = float(rng.normal())
        full = combined_score(RelationParams(logits=logits, mix_logit=mix), rows, emb)
        reduced = combined_score(
            RelationParams(logits=np.delete(logits, dead), mix_logit=mix),
            np.delete(rows, dead, axis=0),
            emb,
        )
        if np.array_equal(full, reduced):
            exact_removals += 1
    verdict(
        worst_sum <= 1e-9 and exact_removals == trials,
        "criterion 9: 1000 weight vectors sum to 1 within %.1e (<= 1e-9) and "
        "removing a zero-evidence rule is exact on %d/%d trials"
        % (worst_sum, exact_removals, trials),
    )
