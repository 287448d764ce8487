"""Candidate-rule acquisition: remote chat completions or an offline path miner.

Both backends produce plain text that flows through the same line-by-line rule
parser, so the full pipeline is exercised identically either way. Every prompt
and raw response is kept in a ProposalRecord for audit.
"""

import json
import logging
import os
import re
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from .kb import KnowledgeBase, Triple, write_jsonl
from .rules import Rule, RuleParseError, format_rule, parse_rule, path_atoms
from .settings import OFFLINE, REMOTE, ProposerConfig, ProposerError  # noqa: F401
from .subgraph import Subgraph, linearize

logger = logging.getLogger(__name__)

RULE_PROMPT_TEMPLATE = """A knowledge subgraph describes relationships between entities using a set of triplets. Each triplet is written in the form of triplet (SUBJ, REL, OBJ), which states that entity SUBJ is of relation REL to entity OBJ.

A logic rule can be applied to known triplets to deduce new ones. Each rule is written in the form of a logical implication, which states that if the conditions on the right-hand side are satisfied, then the statement on the left-hand side holds true. Here are some example rules where A, B, C are entities:

IF (A, parent, B) AND  NOT (A, father, B) THEN (A, mother, B)

IF (A, father, B) OR (A, mother, B) THEN (A, parent, B)

IF (A, mother, B) AND (A, sibling, C) THEN (C, mother, B)

Now we have the following triplets:
{subgraph}

Please generate as many of the most important logical rules based on the above knowledge subgraph to deduce triplet {target}. The rules provide general logic implications instead of using specific entities. Return the rules only without any explanations."""

@dataclass
class ProposalRecord:
    subgraph_id: str
    target: Triple
    prompt: str
    raw_response: str = ""
    parsed_rules: List[Rule] = field(default_factory=list)
    rejected: List[Tuple[str, str]] = field(default_factory=list)
    error: Optional[str] = None


def build_rule_prompt(sg: Subgraph, target: Triple, kb: KnowledgeBase) -> str:
    return RULE_PROMPT_TEMPLATE.format(
        subgraph=linearize(sg, kb), target=kb.triple_text(target)
    )


def _post_chat(cfg: ProposerConfig, prompt: str) -> str:
    import urllib.request  # only the remote backend needs it, and it is slow to import

    headers = {"Content-Type": "application/json"}
    key = os.environ.get(cfg.api_key_env, "")
    if key:
        headers["Authorization"] = "Bearer " + key
    payload = {
        "model": cfg.model,
        "messages": [{"role": "user", "content": prompt}],
        "temperature": cfg.temperature,
    }
    request = urllib.request.Request(cfg.endpoint, json.dumps(payload).encode(), headers, method="POST")
    with urllib.request.urlopen(request, timeout=cfg.request_timeout) as resp:
        body = json.loads(resp.read())
    try:
        content = body["choices"][0]["message"]["content"]
    except (KeyError, IndexError, TypeError):
        content = None
    if not isinstance(content, str):
        raise ProposerError("malformed completion payload: %s" % json.dumps(body)[:200])
    return content


def _complete(cfg: ProposerConfig, prompt: str) -> str:
    attempts = cfg.max_retries + 1
    last: Optional[Exception] = None
    for attempt in range(attempts):
        if attempt and cfg.retry_backoff:
            time.sleep(cfg.retry_backoff * attempt)
        try:
            return _post_chat(cfg, prompt)
        except ProposerError:
            raise
        except Exception as exc:  # network errors and timeouts, bad status, bad JSON
            last = exc
            logger.warning("backend attempt %d/%d failed: %s", attempt + 1, attempts, exc)
    raise ProposerError("backend failed after %d attempts: %s" % (attempts, last))


_LIST_MARKER_RE = re.compile(r"^(?:[-*•]|\d+[.)])\s+")


def _clean_line(line: str) -> str:
    s = line.strip()
    prev = None
    while prev != s:
        prev = s
        s = _LIST_MARKER_RE.sub("", s)
    if len(s) >= 2 and s[0] == s[-1] and s[0] in "\"'`":
        s = s[1:-1].strip()
    return s


def candidate_lines(raw: str) -> List[str]:
    """Non-empty response lines with list markers and wrapping quotes stripped."""
    out = []
    for line in raw.splitlines():
        cleaned = _clean_line(line)
        if cleaned:
            out.append(cleaned)
    return out


def mine_rules_text(kb: KnowledgeBase, sg: Subgraph, target: Triple) -> str:
    """Deterministic rule miner: closed paths head -> tail inside the subgraph.

    Simple paths of up to three edges, traversed in either direction, become
    one rule line each with the target relation as head; the witnessing path
    guarantees the body co-occurs with the target at least once in train.
    """
    if target.head == target.tail:
        return ""
    adj: Dict[int, List[Tuple[int, Triple, bool]]] = {}
    for tr in sg.triples:
        adj.setdefault(tr.head, []).append((tr.tail, tr, True))
        if tr.tail != tr.head:
            adj.setdefault(tr.tail, []).append((tr.head, tr, False))
    lines: List[str] = []
    seen = set()

    # the nested functions are unannotated: an annotation would be rebuilt on
    # every call of the miner
    def emit(path):
        flags = [not forward for _, forward in path]
        names = [kb.relation_name(tr.relation) for tr, _ in path] + [kb.relation_name(target.relation)]
        line = format_rule(Rule(*path_atoms(flags, names)))
        if line not in seen:
            seen.add(line)
            lines.append(line)

    def walk(node, visited, path):
        if len(path) == 3:
            return
        for nxt, tr, forward in adj.get(node, ()):
            if nxt == target.tail:
                emit(path + [(tr, forward)])
            if nxt in visited or nxt == target.tail:
                continue
            walk(nxt, visited + (nxt,), path + [(tr, forward)])

    walk(target.head, (target.head,), [])
    return "\n".join(lines)


def propose(cfg: ProposerConfig, kb: KnowledgeBase, subgraphs: List[Subgraph]) -> List[ProposalRecord]:
    """One ProposalRecord per subgraph; backend failures never raise.

    Every candidate line of the raw response lands either in parsed_rules or in
    rejected with its parse error, so the two together account for the response.
    """
    records: List[ProposalRecord] = []
    for i, sg in enumerate(subgraphs):
        target = sg.target
        sub_id = "%d:%d" % (target.relation, i)
        prompt = build_rule_prompt(sg, target, kb)
        rec = ProposalRecord(subgraph_id=sub_id, target=target, prompt=prompt)
        try:
            if cfg.backend == OFFLINE:
                rec.raw_response = mine_rules_text(kb, sg, target)
            else:
                rec.raw_response = _complete(cfg, prompt)
        except ProposerError as exc:
            rec.error = str(exc)
            records.append(rec)
            continue
        for line in candidate_lines(rec.raw_response):
            try:
                rule = parse_rule(line)
            except RuleParseError as exc:
                rec.rejected.append((line, str(exc)))
                continue
            rec.parsed_rules.append(
                replace(rule, provenance=("%s/%s" % (cfg.backend, sub_id),))
            )
        records.append(rec)
    return records


def record_to_dict(rec: ProposalRecord, kb: KnowledgeBase) -> Dict:
    return {
        "error": rec.error,
        "parsed": [format_rule(r) for r in rec.parsed_rules],
        "prompt": rec.prompt,
        "raw_response": rec.raw_response,
        "rejected": [[line, reason] for line, reason in rec.rejected],
        "relation": kb.relation_name(rec.target.relation),
        "subgraph_id": rec.subgraph_id,
        "target": list(rec.target),
    }


def save_proposals(path: str, records: List[ProposalRecord], kb: KnowledgeBase) -> None:
    write_jsonl(path, [record_to_dict(rec, kb) for rec in records])
