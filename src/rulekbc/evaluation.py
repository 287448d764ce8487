"""Ranking metrics, rule-quality aggregates, and model evaluation."""

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from .grounding import Grounding
from .kb import KBError, KnowledgeBase, text_lines
from .rotate import RotateModel
from .rules import Rule, format_rule
from .trainer import ReasonerParams, gold_ranks

HITS_AT = (1, 3, 10)


@dataclass
class MetricsReport:
    query_count: int
    mr: float
    mrr: float
    hits: Dict[int, float]

    def to_dict(self) -> Dict:
        return {
            "queries": self.query_count,
            "mr": self.mr,
            "mrr": self.mrr,
            "hits": {str(k): v for k, v in sorted(self.hits.items())},
        }

    def render_text(self) -> str:
        cols = ["queries", "MR", "MRR"] + ["H@%d" % k for k in sorted(self.hits)]
        vals = ["%d" % self.query_count, "%.4f" % self.mr, "%.4f" % self.mrr] + [
            "%.4f" % self.hits[k] for k in sorted(self.hits)
        ]
        widths = [max(len(c), len(v)) for c, v in zip(cols, vals)]
        header = "  ".join(c.ljust(w) for c, w in zip(cols, widths))
        row = "  ".join(v.ljust(w) for v, w in zip(vals, widths))
        return header + "\n" + row


def compute_metrics(ranks: Sequence[float]) -> MetricsReport:
    """MR, MRR and hits@K from gold ranks; ranks may be fractional (tie means)."""
    arr = np.asarray(list(ranks), dtype=float)
    if arr.size == 0:
        raise KBError("cannot compute metrics over zero queries")
    if (arr < 1).any():
        raise KBError("ranks must be >= 1")
    return MetricsReport(
        query_count=int(arr.size),
        mr=float(arr.mean()),
        mrr=float((1.0 / arr).mean()),
        hits={k: float((arr <= k).mean()) for k in HITS_AT},
    )


@dataclass
class RuleQualityReport:
    learned_count: int
    high_conf_count: int
    hcr: float  # percent of learned rules with at least one annotated path
    rcs: float  # mean annotated path score over high-confidence rules
    rqi: float  # harmonic blend of HCR (as a fraction) and RCS, in percent

    def to_dict(self) -> Dict:
        return {
            "learned": self.learned_count,
            "high_confidence": self.high_conf_count,
            "hcr": self.hcr,
            "rcs": self.rcs,
            "rqi": self.rqi,
        }

    def render_text(self) -> str:
        return (
            "rules=%d  high_conf=%d  HCR=%.2f%%  RCS=%.3f  RQI=%.2f"
            % (self.learned_count, self.high_conf_count, self.hcr, self.rcs, self.rqi)
        )


def rule_quality_from_counts(learned: int, high_conf: int, rcs: float) -> RuleQualityReport:
    """Aggregate quality indices from the raw counts and the mean path score."""
    if learned <= 0 or high_conf < 0 or high_conf > learned:
        raise KBError("inconsistent rule counts: %d learned, %d high-confidence" % (learned, high_conf))
    hcr = 100.0 * high_conf / learned
    frac = hcr / 100.0
    rqi = 0.0 if (frac + rcs) == 0 else 100.0 * 2.0 * frac * rcs / (frac + rcs)
    return RuleQualityReport(
        learned_count=learned, high_conf_count=high_conf, hcr=hcr, rcs=rcs, rqi=rqi
    )


_VALID_PATH_SCORES = (0.0, 0.5, 1.0)


def load_annotations(path: str) -> Dict[str, List[float]]:
    """Annotation file: one line per rule, canonical text TAB comma-joined scores."""
    out: Dict[str, List[float]] = {}
    for lineno, raw in text_lines(path, "annotation file"):
        line = raw.rstrip("\r\n")
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise KBError("%s:%d: expected <rule>TAB<scores>" % (path, lineno))
        try:
            scores = [float(s) for s in parts[1].split(",") if s.strip()]
        except ValueError as exc:
            raise KBError("%s:%d: bad score list" % (path, lineno)) from exc
        for s in scores:
            if s not in _VALID_PATH_SCORES:
                raise KBError("%s:%d: path score %r not in {0, 0.5, 1}" % (path, lineno, s))
        out[parts[0]] = scores
    return out


def compute_rule_quality(
    rules: Sequence[Rule], annotations: Dict[str, List[float]], kb: KnowledgeBase
) -> RuleQualityReport:
    """Score a learned rule set against human path annotations.

    A rule is high-confidence when it has at least one annotated path; its own
    score is the mean of its path scores, and RCS averages over the
    high-confidence rules only.
    """
    if not rules:
        raise KBError("cannot assess an empty rule set")
    per_rule: List[float] = []
    for rule in rules:
        scores = annotations.get(format_rule(rule, kb))
        if scores:
            per_rule.append(float(np.mean(scores)))
    rcs = float(np.mean(per_rule)) if per_rule else 0.0
    return rule_quality_from_counts(len(rules), len(per_rule), rcs)


def evaluate_model(
    params: ReasonerParams,
    kb: KnowledgeBase,
    groundings: Dict[int, List[Grounding]],
    rotate_model: Optional[RotateModel],
    split: str = "test",
) -> MetricsReport:
    """Filtered ranking of every (h, r, ?) -> t query in the split; each
    query's rank is the one `trainer.rank` reports for it."""
    if split not in kb.arrays:
        raise KBError("unknown split %r" % split)
    return compute_metrics(gold_ranks(params, kb, groundings, rotate_model, kb.arrays[split]))

