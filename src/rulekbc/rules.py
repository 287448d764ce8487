"""Candidate logic rules: parsing, filtering, relation mapping, shape classification.

A rule is a conjunctive body of up to three binary atoms plus a single head atom.
Only bodies that form a variable path between the head's two variables can be
grounded with matrix algebra; those shapes get a case label in CASE_FLAGS, the
rest are kept as UNCLASSIFIED and skipped downstream.
"""

import itertools
import json
import math
import re
from collections import Counter
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .kb import KBError, KnowledgeBase, text_lines

UNCLASSIFIED = "UNCLASSIFIED"

# case -> per-body-atom direction flag along the head path (head subject -> head
# object). False: atom i is (V_i, r, V_i+1); True: reversed, (V_i+1, r, V_i).
# The grounding chain transposes exactly the True factors.
CASE_FLAGS: Dict[str, Tuple[bool, ...]] = {
    "0-1": (False,),
    "0-2": (True,),
    "1-1": (False, False),
    "1-2": (True, False),
    "1-3": (False, True),
    "1-4": (True, True),
    "2-1": (False, False, False),
    "2-2": (False, False, True),
    "2-3": (False, True, False),
    "2-4": (True, False, False),
    "2-5": (False, True, True),
    "2-6": (True, False, True),
    "2-7": (True, True, False),
    "2-8": (True, True, True),
}

_PATH_LETTERS = "ABCD"
_VARIABLE_RE = re.compile(r"[A-Z]\Z")
_ATOM_RE = re.compile(r"\(([^()]*)\)")


class RuleParseError(ValueError):
    """A candidate line does not conform to the rule grammar."""


@dataclass(frozen=True)
class RuleAtom:
    subject: str
    relation: Union[str, int]  # raw string before mapping, relation id after
    object: str


@dataclass(frozen=True)
class Rule:
    body: Tuple[RuleAtom, ...]
    head: RuleAtom
    case: str = UNCLASSIFIED
    provenance: Tuple[str, ...] = ()
    similarity: Optional[Tuple[float, ...]] = None  # body atoms then head

    @property
    def mapped(self) -> bool:
        return all(isinstance(a.relation, int) for a in self.body + (self.head,))


def parse_rule(text: str) -> Rule:
    """Parse one candidate line; raises RuleParseError with the reason."""
    stripped = text.strip()
    if not stripped:
        raise RuleParseError("empty line")
    atoms: List[RuleAtom] = []
    for m in _ATOM_RE.finditer(stripped):
        parts = [p.strip() for p in m.group(1).split(",")]
        if len(parts) != 3:
            raise RuleParseError("atom %r must have exactly 3 arguments" % m.group(0))
        if not all(parts):
            raise RuleParseError("atom %r has an empty argument" % m.group(0))
        if parts[0] == parts[2]:
            raise RuleParseError("atom %r repeats the same argument" % m.group(0))
        atoms.append(RuleAtom(parts[0], parts[1], parts[2]))
    residue = _ATOM_RE.sub("@", stripped)
    if re.search(r"\bOR\b", residue, re.IGNORECASE):
        raise RuleParseError("disjunction (OR) is not supported")
    if re.search(r"\bNOT\b", residue, re.IGNORECASE):
        raise RuleParseError("negation (NOT) is not supported")
    if not re.search(r"\bTHEN\b", residue, re.IGNORECASE):
        raise RuleParseError("missing THEN")
    shape = re.fullmatch(r"IF\s*@(?:\s*AND\s*@)*\s*THEN\s*@", residue, re.IGNORECASE)
    if shape is None:
        raise RuleParseError("expected IF <atom> [AND <atom>]* THEN <atom>")
    body, head = atoms[:-1], atoms[-1]
    if len(body) > 3:
        raise RuleParseError("rule body has %d atoms, at most 3 supported" % len(body))
    return Rule(body=tuple(body), head=head)


def _render_relation(rel: Union[str, int], kb: Optional[KnowledgeBase]) -> str:
    if isinstance(rel, int):
        return kb.relation_name(rel) if kb is not None else "#%d" % rel
    return rel


def format_rule(rule: Rule, kb: Optional[KnowledgeBase] = None) -> str:
    def atom(a: RuleAtom) -> str:
        return "(%s, %s, %s)" % (a.subject, _render_relation(a.relation, kb), a.object)

    return "IF %s THEN %s" % (" AND ".join(atom(a) for a in rule.body), atom(rule.head))


def _norm_relation_name(s: str) -> str:
    # unlike normalize_name, "_" stays: stage 1 accepts heads that differ
    # from the target only in case and spacing
    return " ".join(s.lower().split())


def filter_stage1(rule: Rule, target_relation: str) -> Optional[str]:
    """First filtering stage; returns a rejection reason or None to accept.

    Checks: the head relation names the target (case/whitespace-insensitive),
    every atom argument is a variable, and head variables are bound in the body.
    """
    if not isinstance(rule.head.relation, str):
        raise KBError("stage-1 filter runs before relation mapping")
    if _norm_relation_name(rule.head.relation) != _norm_relation_name(target_relation):
        return "head relation %r does not match target %r" % (rule.head.relation, target_relation)
    for a in rule.body + (rule.head,):
        for arg in (a.subject, a.object):
            if not _VARIABLE_RE.match(arg):
                return "argument %r is not a variable" % arg
    body_vars = {v for a in rule.body for v in (a.subject, a.object)}
    for v in (rule.head.subject, rule.head.object):
        if v not in body_vars:
            return "head variable %s does not appear in the body" % v
    return None


def normalize_name(s: str) -> str:
    """Lowercased, underscores as spaces, whitespace runs collapsed:
    "New_York" -> "new york"."""
    return " ".join(s.lower().replace("_", " ").split())


class TrigramSimilarity:
    """Scores how well a raw relation string names a vocabulary relation.

    Cosine over character-trigram counts of `normalize_name` forms. Symmetric,
    in [0, 1], and 1.0 for identical names. Each instance keeps every name it
    has scored as (normalised form, trigram counts, norm), so a vocabulary is
    tokenised once, not once per pair, and every `best` answer, so a raw name
    is scored against a vocabulary once, not once per atom.
    """

    def __init__(self) -> None:
        self._profiles: Dict[str, Tuple[str, Counter, float]] = {}
        # vocabulary names -> raw name -> (best id, its score)
        self._best: Dict[Tuple[str, ...], Dict[str, Tuple[int, float]]] = {}

    def _profile(self, s: str) -> Tuple[str, Counter, float]:
        got = self._profiles.get(s)
        if got is None:
            norm = normalize_name(s)
            padded = " %s " % norm
            grams = Counter(padded[i : i + 3] for i in range(len(padded) - 2))
            got = (norm, grams, math.sqrt(sum(c * c for c in grams.values())))
            self._profiles[s] = got
        return got

    def score(self, a: str, b: str) -> float:
        na, ga, norm_a = self._profile(a)
        nb, gb, norm_b = self._profile(b)
        if na == nb:
            return 1.0
        if not ga or not gb:
            return 0.0
        dot = sum(c * gb[g] for g, c in ga.items())
        norm = norm_a * norm_b
        return dot / norm if norm else 0.0

    def best(self, raw: str, names: Tuple[str, ...]) -> Tuple[int, float]:
        """(id, score) of the name in `names` that scores highest against
        `raw`, ties to the lower id. Memoised on the names themselves, not on
        the identity of a list that may be freed and its id reused."""
        memo = self._best.setdefault(names, {})
        got = memo.get(raw)
        if got is None:
            best_id, best_score = 0, -1.0
            for rid, name in enumerate(names):
                s = self.score(raw, name)
                if s > best_score:
                    best_id, best_score = rid, s
            got = memo[raw] = (best_id, best_score)
        return got


def map_relations(rule: Rule, kb: KnowledgeBase, provider: TrigramSimilarity) -> Rule:
    """Replace raw relation strings with the best-scoring vocabulary relation id.

    Ties break toward the lower id; the chosen score per atom (body order, head
    last) is recorded on the rule for audit.
    """
    if kb.num_relations == 0:
        raise KBError("cannot map relations against an empty vocabulary")
    names = tuple(kb.relations.names)
    scores: List[float] = []

    def map_atom(a: RuleAtom) -> RuleAtom:
        if isinstance(a.relation, int):
            scores.append(1.0)
            return a
        best_id, best_score = provider.best(a.relation, names)
        scores.append(best_score)
        return replace(a, relation=best_id)

    body = tuple(map_atom(a) for a in rule.body)
    head = map_atom(rule.head)
    return replace(rule, body=body, head=head, similarity=tuple(scores))


def _match_case(body: Sequence[RuleAtom], head: RuleAtom, flags: Tuple[bool, ...]):
    """Try to unify body atoms (in the given order) with the flagged path shape.

    Returns the variable -> path-index binding, or None. Path index 0 is the
    head subject, index len(flags) the head object.
    """
    last = len(flags)
    binding: Dict[str, int] = {}
    bound: Dict[int, str] = {}

    def bind(var: str, idx: int) -> bool:
        if binding.get(var, idx) != idx or bound.get(idx, var) != var:
            return False
        binding[var] = idx
        bound[idx] = var
        return True

    if not (bind(head.subject, 0) and bind(head.object, last)):
        return None
    for i, (atom, rev) in enumerate(zip(body, flags)):
        s_idx, o_idx = (i + 1, i) if rev else (i, i + 1)
        if not (bind(atom.subject, s_idx) and bind(atom.object, o_idx)):
            return None
    return binding


def classify_case(rule: Rule) -> Rule:
    """Assign one of the 14 groundable path shapes, or UNCLASSIFIED.

    On a match the body is reordered along the head path and variables are
    renamed to A (head subject) through B/C/D, so structurally equal rules
    share one canonical form. Cases are tried in a fixed order and the first
    unifying body permutation wins.
    """
    for case, flags in CASE_FLAGS.items():
        if len(flags) != len(rule.body):
            continue
        for perm in itertools.permutations(rule.body):
            binding = _match_case(perm, rule.head, flags)
            if binding is None:
                continue
            rename = {v: _PATH_LETTERS[i] for v, i in binding.items()}
            body = tuple(
                replace(a, subject=rename[a.subject], object=rename[a.object]) for a in perm
            )
            head = replace(rule.head, subject=rename[rule.head.subject], object=rename[rule.head.object])
            return replace(rule, body=body, head=head, case=case)
    return replace(rule, case=UNCLASSIFIED)


def _canonical_pattern(rule: Rule) -> Tuple:
    """Structure key with variables renamed by first appearance (body then head)."""
    rename: Dict[str, str] = {}
    out = []
    for a in rule.body + (rule.head,):
        pair = []
        for v in (a.subject, a.object):
            rename.setdefault(v, _PATH_LETTERS[len(rename)] if len(rename) < 4 else "V%d" % len(rename))
            pair.append(rename[v])
        out.append((pair[0], a.relation, pair[1]))
    return tuple(out)


def rule_key(rule: Rule) -> Tuple:
    """Dedup identity: case plus the relation sequence in canonical order."""
    if rule.case != UNCLASSIFIED:
        return (rule.case, tuple(a.relation for a in rule.body), rule.head.relation)
    return (UNCLASSIFIED, _canonical_pattern(rule))


def dedup(rules: Sequence[Rule]) -> List[Rule]:
    """Drop structural duplicates, merging provenance onto the first occurrence."""
    seen: Dict[Tuple, int] = {}
    out: List[Rule] = []
    for r in rules:
        key = rule_key(r)
        if key in seen:
            keeper = out[seen[key]]
            merged = keeper.provenance + tuple(
                p for p in r.provenance if p not in keeper.provenance
            )
            out[seen[key]] = replace(keeper, provenance=merged)
        else:
            seen[key] = len(out)
            out.append(r)
    return out


def _rule_record(rule: Rule, kb: KnowledgeBase) -> Dict:
    if not rule.mapped:
        raise KBError("only mapped rules can be persisted")
    return {
        "case": rule.case,
        "provenance": list(rule.provenance),
        "relations": [a.relation for a in rule.body] + [rule.head.relation],
        "similarity": None
        if rule.similarity is None
        else [round(s, 6) for s in rule.similarity],
        "target_relation": kb.relation_name(rule.head.relation),
        "text": format_rule(rule, kb),
    }


def save_rules(path: str, rules: Sequence[Rule], kb: KnowledgeBase) -> None:
    """One JSON object per line, sorted keys; load/save round-trips byte-exactly."""
    with open(path, "w", encoding="utf-8") as fh:
        for r in rules:
            fh.write(json.dumps(_rule_record(r, kb), sort_keys=True))
            fh.write("\n")


def _record_rule(rec, kb: KnowledgeBase) -> Rule:
    """Rebuild one `_rule_record`; raises ValueError naming what is wrong."""
    if not isinstance(rec, dict):
        raise ValueError("expected a JSON object, got %s" % type(rec).__name__)
    for key in ("text", "relations", "case"):
        if key not in rec:
            raise ValueError("missing key %r" % key)
    if not isinstance(rec["text"], str):
        raise ValueError("text must be a string")
    parsed = parse_rule(rec["text"])
    rel_ids = rec["relations"]
    atoms = parsed.body + (parsed.head,)
    if not isinstance(rel_ids, list) or len(rel_ids) != len(atoms):
        raise ValueError("relation ids do not match rule text")
    for rid in rel_ids:
        if type(rid) is not int or not 0 <= rid < kb.num_relations:
            raise ValueError("relation id %r outside [0, %d)" % (rid, kb.num_relations))
    case = rec["case"]
    if case != UNCLASSIFIED:
        if case not in CASE_FLAGS:
            raise ValueError("unknown case %r" % (case,))
        if len(CASE_FLAGS[case]) != len(parsed.body):
            raise ValueError("case %s does not fit a %d-atom body" % (case, len(parsed.body)))
    mapped = [replace(a, relation=rid) for a, rid in zip(atoms, rel_ids)]
    similarity = rec.get("similarity")
    return Rule(
        body=tuple(mapped[:-1]),
        head=mapped[-1],
        case=case,
        provenance=tuple(rec.get("provenance", ())),
        similarity=None if similarity is None else tuple(similarity),
    )


def load_rules(path: str, kb: KnowledgeBase) -> List[Rule]:
    out: List[Rule] = []
    for lineno, line in text_lines(path, "rule file"):
        if not line.strip():
            continue
        try:
            out.append(_record_rule(json.loads(line), kb))
        except (TypeError, ValueError) as exc:
            raise KBError("%s:%d: bad rule record: %s" % (path, lineno, exc)) from exc
    return out
