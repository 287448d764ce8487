"""Rule shape classification by exhaustive search.

This is `rules.classify_case`'s former algorithm, kept as the reference the
path walk is checked against: every case of the body's length is tried, in
CASE_FLAGS order, against every body permutation, and the first unifying
pair wins.
"""

import itertools
from dataclasses import replace

from rulekbc.rules import _PATH_LETTERS, CASE_FLAGS, UNCLASSIFIED, Rule, RuleAtom


def match_case(body, head, flags):
    """The variable -> path-index binding that unifies `body`, in this order,
    with the flagged path shape, or None. Index 0 is the head subject,
    len(flags) the head object."""
    last = len(flags)
    binding = {}
    bound = {}

    def bind(var, idx):
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
    for case, flags in CASE_FLAGS.items():
        if len(flags) != len(rule.body):
            continue
        for perm in itertools.permutations(rule.body):
            binding = match_case(perm, rule.head, flags)
            if binding is None:
                continue
            rename = {v: _PATH_LETTERS[i] for v, i in binding.items()}
            body = tuple(RuleAtom(rename[a.subject], a.relation, rename[a.object]) for a in perm)
            head = RuleAtom(rename[rule.head.subject], rule.head.relation, rename[rule.head.object])
            return replace(rule, body=body, head=head, case=case)
    return replace(rule, case=UNCLASSIFIED)


def pattern(rule: Rule):
    """Structure key with variables renamed by first appearance (body then head)."""
    rename = {}
    out = []
    for a in rule.body + (rule.head,):
        pair = []
        for v in (a.subject, a.object):
            rename.setdefault(v, _PATH_LETTERS[len(rename)] if len(rename) < 4 else "V%d" % len(rename))
            pair.append(rename[v])
        out.append((pair[0], a.relation, pair[1]))
    return tuple(out)


def rule_key(rule: Rule):
    """The former dedup identity: case plus relations for a classified rule,
    the renamed pattern for an unclassified one."""
    if rule.case != UNCLASSIFIED:
        return (rule.case, tuple(a.relation for a in rule.body), rule.head.relation)
    return (UNCLASSIFIED, pattern(rule))
