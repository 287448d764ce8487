"""Candidate logic rules: parsing, filtering, relation mapping, shape classification.

A rule is a conjunctive body of up to three binary atoms plus a single head atom.
Only bodies that form a variable path between the head's two variables can be
grounded with matrix algebra; those shapes get a case label in CASE_FLAGS, the
rest are kept as UNCLASSIFIED and skipped downstream.
"""

import json
import math
import re
from collections import Counter
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .kb import KBError, KnowledgeBase, text_lines, write_jsonl

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

    A name in the vocabulary maps to itself; any other to the best trigram
    score, ties toward the lower id. The chosen score per atom (body order,
    head last) is recorded on the rule for audit.
    """
    if kb.num_relations == 0:
        raise KBError("cannot map relations against an empty vocabulary")
    names = tuple(kb.relations.names)
    scores: List[float] = []

    def map_atom(a: RuleAtom) -> RuleAtom:
        if isinstance(a.relation, int):
            scores.append(1.0)
            return a
        exact = kb.relations.index.get(a.relation)
        best_id, best_score = provider.best(a.relation, names) if exact is None else (exact, 1.0)
        scores.append(best_score)
        return replace(a, relation=best_id)

    body = tuple(map_atom(a) for a in rule.body)
    head = map_atom(rule.head)
    return replace(rule, body=body, head=head, similarity=tuple(scores))


# per-body-atom direction flags along the head path -> case
_CASE_OF = {flags: case for case, flags in CASE_FLAGS.items()}


def path_atoms(flags: Sequence[bool], relations: Sequence) -> Tuple[Tuple[RuleAtom, ...], RuleAtom]:
    """(body, head) of the path rule over A-D: body atom i joins letters i
    and i + 1 with relations[i], reversed where flags[i] is set, and the
    head joins A to the last letter with relations[-1]."""
    body = tuple(
        RuleAtom(_PATH_LETTERS[i + rev], rel, _PATH_LETTERS[i + 1 - rev])
        for i, (rel, rev) in enumerate(zip(relations, flags))
    )
    return body, RuleAtom("A", relations[-1], _PATH_LETTERS[len(flags)])


def classify_case(rule: Rule) -> Rule:
    """Assign one of the 14 groundable path shapes, or UNCLASSIFIED.

    The body is walked from the head subject: each step takes the one unused
    atom that holds the current variable and moves to its other variable. The
    walk must use every atom, visit each variable once and end on the head
    object; the atoms' directions along it, looked up in CASE_FLAGS, name the
    case. On a match the rule is rewritten as `path_atoms` of those flags and
    the relations in path order, variables A (head subject) through B/C/D,
    so structurally equal rules share one canonical form.
    """
    path, flags, relations, rest = [rule.head.subject], [], [], list(rule.body)
    while rest:
        here = [i for i, a in enumerate(rest) if path[-1] in (a.subject, a.object)]
        if len(here) != 1:
            break
        atom = rest.pop(here[0])
        flags.append(atom.object == path[-1])
        path.append(atom.subject if flags[-1] else atom.object)
        relations.append(atom.relation)
    case = _CASE_OF.get(tuple(flags))
    if rest or case is None or path[-1] != rule.head.object or len(set(path)) != len(path):
        return replace(rule, case=UNCLASSIFIED)
    body, head = path_atoms(flags, relations + [rule.head.relation])
    return Rule(body, head, case, rule.provenance, rule.similarity)


def rule_key(rule: Rule) -> Tuple:
    """Dedup identity: the atoms, body then head, with variables numbered by
    first appearance. `classify_case` writes every rule of one path shape in
    one canonical order, so classified rules share a key exactly when they
    share case and relations; unclassified ones when they match atom for
    atom up to variable names."""
    number: Dict[str, int] = {}
    return tuple(
        (number.setdefault(a.subject, len(number)), a.relation, number.setdefault(a.object, len(number)))
        for a in rule.body + (rule.head,)
    )


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
    write_jsonl(path, [_rule_record(r, kb) for r in rules])


def _record_rule(rec, kb: KnowledgeBase) -> Rule:
    """Rebuild one `_rule_record`; raises ValueError naming what is wrong.

    A record of one of the 14 cases is its case and relation ids: its rule
    is the case's path over A-D (`path_atoms`), and its text must be that
    rule's rendering. An UNCLASSIFIED record is its parsed text with the ids
    in place of the names, which `classify_case` must leave unclassified.
    Each other key that is present holds what `save_rules` writes there."""
    if not isinstance(rec, dict):
        raise ValueError("expected a JSON object, got %s" % type(rec).__name__)
    for key in ("text", "relations", "case"):
        if key not in rec:
            raise ValueError("missing key %r" % key)
    case, rel_ids, text = rec["case"], rec["relations"], rec["text"]
    if not isinstance(text, str):
        raise ValueError("text must be a string")
    if case == UNCLASSIFIED:
        parsed = parse_rule(text)
        n = len(parsed.body) + 1
    elif isinstance(case, str) and case in CASE_FLAGS:
        n = len(CASE_FLAGS[case]) + 1
    else:
        raise ValueError("unknown case %r" % (case,))
    if not isinstance(rel_ids, list) or len(rel_ids) != n:
        raise ValueError("case %s takes %d relation ids, got %r" % (case, n, rel_ids))
    for rid in rel_ids:
        if type(rid) is not int or not 0 <= rid < kb.num_relations:
            raise ValueError("relation id %r outside [0, %d)" % (rid, kb.num_relations))
    similarity, provenance = rec.get("similarity"), rec.get("provenance", [])
    if similarity is not None and not (
        isinstance(similarity, list) and len(similarity) == n
        and all(type(s) in (int, float) and math.isfinite(s) for s in similarity)
    ):
        raise ValueError("similarity must be null or %d finite numbers" % n)
    if not isinstance(provenance, list) or not all(isinstance(p, str) for p in provenance):
        raise ValueError("provenance must be a list of strings")
    extras = tuple(provenance), None if similarity is None else tuple(map(float, similarity))
    if case == UNCLASSIFIED:
        atoms = [RuleAtom(a.subject, rid, a.object) for a, rid in zip(parsed.body + (parsed.head,), rel_ids)]
        rule = Rule(tuple(atoms[:-1]), atoms[-1], case, *extras)
        derived = classify_case(rule).case
        if derived != UNCLASSIFIED:
            raise ValueError("the text is a rule of case %s, not UNCLASSIFIED" % derived)
    else:
        rule = Rule(*path_atoms(CASE_FLAGS[case], rel_ids), case, *extras)
    rendered = format_rule(rule, kb)
    if rendered != text:
        raise ValueError("case %s over relation ids %s reads %r, not the text" % (case, rel_ids, rendered))
    head_name = kb.relation_name(rule.head.relation)
    if rec.get("target_relation", head_name) != head_name:
        raise ValueError("target_relation %r is not the head relation %r" % (rec["target_relation"], head_name))
    return rule


def load_rules(path: str, kb: KnowledgeBase) -> List[Rule]:
    """The rules of a `save_rules` file; each rule may appear once."""
    out: List[Rule] = []
    line_of: Dict[Tuple, int] = {}  # rule_key -> line of its first record
    for lineno, line in text_lines(path, "rule file"):
        if not line.strip():
            continue
        try:
            rule = _record_rule(json.loads(line), kb)
            first = line_of.setdefault(rule_key(rule), lineno)
            if first != lineno:
                raise ValueError("repeats the rule of line %d" % first)
        except (TypeError, ValueError) as exc:
            raise KBError("%s:%d: bad rule record: %s" % (path, lineno, exc)) from exc
        out.append(rule)
    return out
