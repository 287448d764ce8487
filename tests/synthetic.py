"""Shared KB builders for the test suite.

Everything here is deterministic given its seed so fixtures can be reused
across test modules without re-deriving expected values.
"""

import os
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from rulekbc import rules as rules_mod
from rulekbc.kb import KnowledgeBase, Triple, Vocab


def build_kb(
    entities: Sequence[str],
    relations: Sequence[str],
    train: Sequence[Tuple[str, str, str]],
    valid: Sequence[Tuple[str, str, str]] = (),
    test: Sequence[Tuple[str, str, str]] = (),
) -> KnowledgeBase:
    """Name-based KnowledgeBase constructor for in-process tests."""
    ev, rv = Vocab(), Vocab()
    for e in entities:
        ev.add(e)
    for r in relations:
        rv.add(r)

    def conv(split):
        return [Triple(ev.id(h), rv.id(r), ev.id(t)) for h, r, t in split]

    return KnowledgeBase(ev, rv, conv(train), conv(valid), conv(test))


def family_kb(with_head: bool = True) -> KnowledgeBase:
    """Three-person chain; optionally keeps the bridged pair out of train.

    with_head=False keeps the target relation in the vocabulary through an
    unrelated triple so the rule head still maps, while the bridged pair itself
    carries no direct edge.
    """
    train = [
        ("Anna", "parent", "Bob"),
        ("Bob", "parent", "Charlie"),
    ]
    if with_head:
        train.append(("Anna", "grandparent", "Charlie"))
    else:
        train.append(("Dana", "grandparent", "Eve"))
    return build_kb(
        ["Anna", "Bob", "Charlie", "Dana", "Eve"],
        ["parent", "grandparent"],
        train,
    )


def random_kb(
    rng: np.random.Generator,
    n_entities: int = 10,
    n_relations: int = 4,
    n_triples: int = 30,
) -> KnowledgeBase:
    """Random multigraph-free KB for fuzzing; all triples in train."""
    ents = ["e%02d" % i for i in range(n_entities)]
    rels = ["r%d" % i for i in range(n_relations)]
    seen = set()
    train: List[Tuple[str, str, str]] = []
    for _ in range(n_triples):
        h = int(rng.integers(n_entities))
        r = int(rng.integers(n_relations))
        t = int(rng.integers(n_entities))
        if (h, r, t) in seen:
            continue
        seen.add((h, r, t))
        train.append((ents[h], rels[r], ents[t]))
    if not train:
        train.append((ents[0], rels[0], ents[-1]))
    return build_kb(ents, rels, train)


def classified_rule(kb: KnowledgeBase, text: str) -> rules_mod.Rule:
    """Parse, map and classify one rule text against kb's relation names."""
    rule = rules_mod.parse_rule(text)
    mapped = rules_mod.map_relations(rule, kb, rules_mod.TrigramSimilarity())
    return rules_mod.classify_case(mapped)


# Canonical rule text for each groundable path shape. {r0}/{r1}/{r2} are body
# relation names, {rh} the head relation; letters follow the head path A..D.
CANONICAL_CASE_PATTERNS = {
    "0-1": "IF (A, {r0}, B) THEN (A, {rh}, B)",
    "0-2": "IF (B, {r0}, A) THEN (A, {rh}, B)",
    "1-1": "IF (A, {r0}, B) AND (B, {r1}, C) THEN (A, {rh}, C)",
    "1-2": "IF (B, {r0}, A) AND (B, {r1}, C) THEN (A, {rh}, C)",
    "1-3": "IF (A, {r0}, B) AND (C, {r1}, B) THEN (A, {rh}, C)",
    "1-4": "IF (B, {r0}, A) AND (C, {r1}, B) THEN (A, {rh}, C)",
    "2-1": "IF (A, {r0}, B) AND (B, {r1}, C) AND (C, {r2}, D) THEN (A, {rh}, D)",
    "2-2": "IF (A, {r0}, B) AND (B, {r1}, C) AND (D, {r2}, C) THEN (A, {rh}, D)",
    "2-3": "IF (A, {r0}, B) AND (C, {r1}, B) AND (C, {r2}, D) THEN (A, {rh}, D)",
    "2-4": "IF (B, {r0}, A) AND (B, {r1}, C) AND (C, {r2}, D) THEN (A, {rh}, D)",
    "2-5": "IF (A, {r0}, B) AND (C, {r1}, B) AND (D, {r2}, C) THEN (A, {rh}, D)",
    "2-6": "IF (B, {r0}, A) AND (B, {r1}, C) AND (D, {r2}, C) THEN (A, {rh}, D)",
    "2-7": "IF (B, {r0}, A) AND (C, {r1}, B) AND (C, {r2}, D) THEN (A, {rh}, D)",
    "2-8": "IF (B, {r0}, A) AND (C, {r1}, B) AND (D, {r2}, C) THEN (A, {rh}, D)",
}


def case_rule_text(case: str, r0: str, r1: str = "", r2: str = "", rh: str = "target") -> str:
    return CANONICAL_CASE_PATTERNS[case].format(r0=r0, r1=r1, r2=r2, rh=rh)


PLANTED_RULE_TEXT = "IF (A, parent, B) AND (B, parent, C) THEN (A, grandparent, C)"

_DECOY_TEXTS = [
    "IF (A, noise1, B) THEN (A, grandparent, B)",
    "IF (B, noise2, A) THEN (A, grandparent, B)",
    "IF (A, noise2, B) AND (B, noise3, C) THEN (A, grandparent, C)",
    "IF (B, noise3, A) AND (B, noise1, C) THEN (A, grandparent, C)",
    "IF (A, noise3, B) AND (C, noise1, B) THEN (A, grandparent, C)",
]


def planted_kb(seed: int) -> Tuple[KnowledgeBase, List[rules_mod.Rule], int]:
    """KB where one rule in a six-rule pool explains the target relation.

    Construction: a fixed bridge chain plus seeded extra edges defines the
    bridging relation; the target relation is its exact two-step closure, split
    70/15/15. noise1 fires once per target head at a deliberately wrong tail so
    equal-weight scoring ties at the top while learned weights can separate.
    Returns (kb, rule pool, index of the planted rule in the pool).
    """
    rng = np.random.default_rng(seed)
    n = 50
    ents = ["e%02d" % i for i in range(n)]
    parent = [(i, i + 5) for i in range(n - 10)]
    for _ in range(8):
        a, b = int(rng.integers(n)), int(rng.integers(n))
        if a != b and (a, b) not in parent:
            parent.append((a, b))
    children: Dict[int, List[int]] = {}
    for a, b in parent:
        children.setdefault(a, []).append(b)
    gp = sorted({(a, c) for a, bs in children.items() for b in bs for c in children.get(b, []) if a != c})
    order = rng.permutation(len(gp))
    gp = [gp[i] for i in order]
    n_train = int(len(gp) * 0.7)
    n_valid = int(len(gp) * 0.15)
    gp_train = gp[:n_train]
    gp_valid = gp[n_train : n_train + n_valid]
    gp_test = gp[n_train + n_valid :]

    gp_tails: Dict[int, set] = {}
    for a, c in gp:
        gp_tails.setdefault(a, set()).add(c)
    noise1 = []
    for a in sorted(gp_tails):
        wrong = int(rng.integers(n))
        while wrong == a or wrong in gp_tails[a]:
            wrong = int(rng.integers(n))
        noise1.append((a, wrong))
    noise2 = [(int(rng.integers(n)), int(rng.integers(n))) for _ in range(25)]
    noise3 = [(int(rng.integers(n)), int(rng.integers(n))) for _ in range(25)]

    def name(pairs, rel):
        return [(ents[a], rel, ents[b]) for a, b in pairs if a != b]

    train = (
        name(parent, "parent")
        + name(noise1, "noise1")
        + name(noise2, "noise2")
        + name(noise3, "noise3")
        + name(gp_train, "grandparent")
    )
    kb = build_kb(
        ents,
        ["parent", "noise1", "noise2", "noise3", "grandparent"],
        train,
        valid=name(gp_valid, "grandparent"),
        test=name(gp_test, "grandparent"),
    )
    pool = [classified_rule(kb, PLANTED_RULE_TEXT)]
    for text in _DECOY_TEXTS:
        pool.append(classified_rule(kb, text))
    assert all(r.case != rules_mod.UNCLASSIFIED for r in pool)
    return kb, pool, 0


def write_kb_files(
    directory: str,
    kb: Optional[KnowledgeBase] = None,
    triples: Optional[Dict[str, Sequence[Tuple[str, str, str]]]] = None,
) -> Dict[str, str]:
    """Write train/valid/test TSVs; accepts a KB or raw name triples."""
    os.makedirs(directory, exist_ok=True)
    paths = {}
    if kb is not None:
        triples = {
            split: [
                (kb.entity_name(h), kb.relation_name(r), kb.entity_name(t))
                for h, r, t in kb.arrays[split]
            ]
            for split in ("train", "valid", "test")
        }
    assert triples is not None
    for split, rows in triples.items():
        path = os.path.join(directory, "%s.txt" % split)
        with open(path, "w", encoding="utf-8") as fh:
            for h, r, t in rows:
                fh.write("%s\t%s\t%s\n" % (h, r, t))
        paths[split] = path
    return paths
