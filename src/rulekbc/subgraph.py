"""Relation-centered subgraph sampling by capped breadth-first traversal."""

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, TextIO

import numpy as np

from .kb import KBError, KnowledgeBase, Triple, text_lines
from .settings import ExtractorConfig


@dataclass
class Subgraph:
    """Triples collected around a target, tagged with the hop that found them."""

    target: Triple
    triples: List[Triple] = field(default_factory=list)
    hop_of: Dict[Triple, int] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.triples)


def sample_targets(kb: KnowledgeBase, relation: int, count: int, seed: int) -> List[Triple]:
    """Up to `count` distinct train triples of the relation, deterministic per seed."""
    pool = kb.train_by_relation(relation)
    if len(pool) > count:
        rng = np.random.default_rng(np.random.SeedSequence([seed, relation]))
        idx = rng.choice(len(pool), size=count, replace=False)
        idx.sort()
        pool = pool[idx]
    return list(map(Triple._make, kb.arrays["train"][pool].tolist()))


def extract_subgraph(kb: KnowledgeBase, target: Triple, cfg: ExtractorConfig) -> Subgraph:
    """BFS outwards from the target's endpoints, excluding the target itself.

    Edges are traversed in both directions. Each frontier entity adds at most
    `max_neighbors_per_entity` of its unchosen incident triples, drawn at
    random when it has more. Triples found at the final hop must touch the
    target head or tail (closed-path constraint); others are dropped.
    """
    rng = np.random.default_rng(np.random.SeedSequence([cfg.rng_seed, *target]))
    sg = Subgraph(target=target)
    anchors = {target.head, target.tail}
    chosen = {target}
    seen_entities = set(anchors)
    frontier = sorted(anchors)
    cap = cfg.max_neighbors_per_entity
    for hop in range(1, cfg.max_hops + 1):
        new_entities = set()
        for pivot in frontier:
            cands = [t for t in kb.incident.get(pivot, []) if t not in chosen]
            if len(cands) > cap:
                keep = rng.choice(len(cands), size=cap, replace=False)
                keep.sort()
                cands = [cands[i] for i in keep]
            for t in cands:
                chosen.add(t)  # a dropped triple too, so no later pivot draws it
                if hop == cfg.max_hops and not (t.head in anchors or t.tail in anchors):
                    continue
                sg.triples.append(t)
                sg.hop_of[t] = hop
                for e in (t.head, t.tail):
                    if e not in seen_entities:
                        new_entities.add(e)
        seen_entities |= new_entities
        frontier = sorted(new_entities)
        if not frontier:
            break
    return sg


def linearize(sg: Subgraph, kb: KnowledgeBase) -> str:
    """One "(SUBJ, REL, OBJ)" line per triple, hop order then insertion order."""
    return "\n".join(map(kb.triple_text, sg.triples))


def save_subgraphs(fh: TextIO, kb: KnowledgeBase, subgraphs: List[Subgraph]) -> None:
    """Structured text dump: a target line then hop-tagged triple lines per record."""
    for sg in subgraphs:
        h, r, t = sg.target
        fh.write(
            "target\t%s\t%s\t%s\n"
            % (kb.entity_name(h), kb.relation_name(r), kb.entity_name(t))
        )
        for tr in sg.triples:
            fh.write(
                "triple\t%d\t%s\t%s\t%s\n"
                % (
                    sg.hop_of[tr],
                    kb.entity_name(tr.head),
                    kb.relation_name(tr.relation),
                    kb.entity_name(tr.tail),
                )
            )
        fh.write("\n")


def load_subgraphs(path: str, kb: KnowledgeBase) -> Iterator[Subgraph]:
    """Inverse of save_subgraphs, read from the file `path`; names are
    resolved against the KB vocabulary. A bad line raises KBError naming the
    file and line."""
    current: Optional[Subgraph] = None
    for lineno, raw in text_lines(path, "subgraph dump"):
        line = raw.rstrip("\r\n")
        if not line:
            if current is not None:
                yield current
                current = None
            continue
        parts = line.split("\t")
        is_target = parts[0] == "target" and len(parts) == 4
        if not (is_target or (parts[0] == "triple" and len(parts) == 5 and current is not None)):
            raise KBError("%s:%d: malformed subgraph dump line %r" % (path, lineno, line))
        try:  # both kinds of line end with the triple's three names
            tr = Triple(kb.entities.id(parts[-3]), kb.relations.id(parts[-2]), kb.entities.id(parts[-1]))
            hop = None if is_target else int(parts[1])
        except (KBError, ValueError) as exc:
            raise KBError("%s:%d: %s" % (path, lineno, exc)) from None
        if is_target:
            if current is not None:
                yield current
            current = Subgraph(target=tr)
        else:
            current.triples.append(tr)
            current.hop_of[tr] = hop
    if current is not None:
        yield current
