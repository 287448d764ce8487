"""Seeded generator of knowledge bases with planted compositional relations.

A KB has two kinds of relations. Base relations are random graphs: every
entity gets the same number of random tails per base relation (one more for a
random share of entities when the mean degree is fractional). Each
derived relation is the composition of a path of one to three base relations,
each traversed forwards or backwards, so the offline miner finds the planted
path as a rule (plus whatever other closed paths the random graph offers).
A share of every derived relation is replaced by random pairs, so no rule is
exact. Derived triples are split into train, valid and test; base triples are
all train. The same shape and seed always give byte-identical files.

The base graphs belong to the shape, like the planted bodies; the seed picks
which derived pairs are kept, which are noise and how they are split. Two
seeds thus mine similar numbers of rules, and their run times compare the
code rather than the size of a random rule set.
"""

import os
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np
import scipy.sparse as sp

SPLITS = ("train", "valid", "test")


@dataclass(frozen=True)
class Shape:
    entities: int
    base_relations: int
    derived_relations: int
    base_out_degree: float  # mean tails per entity per base relation
    max_pairs: int  # cap on the triples of one derived relation
    noise: float  # share of derived triples replaced by random pairs
    valid_share: float = 0.1
    test_share: float = 0.1


Triples = List[Tuple[str, str, str]]


def _entity(i: int) -> str:
    return "entity_%05d" % i


def _base_name(i: int) -> str:
    return "base_relation_%03d" % i


def _derived_name(i: int) -> str:
    return "derived_relation_%03d" % i


def _pairs(m: sp.csr_matrix) -> np.ndarray:
    """Sorted (row, col) pairs of the nonzeros of m, self-loops dropped."""
    coo = m.tocoo()
    keep = coo.row != coo.col
    pairs = np.stack([coo.row[keep], coo.col[keep]], axis=1).astype(np.int64)
    order = np.lexsort((pairs[:, 1], pairs[:, 0]))
    return pairs[order]


def derived_bodies(shape: Shape) -> List[List[Tuple[int, bool]]]:
    """Planted body of each derived relation: (base relation, reversed) per hop.

    Hop counts cycle 2, 3, 1 so every shape plants all three path lengths. The
    bodies belong to the shape, not to the seed: two seeds give two random
    graphs with the same schema, so their run times are comparable.
    """
    rng = np.random.default_rng(np.random.SeedSequence([shape.entities, shape.derived_relations]))
    bodies = []
    for j in range(shape.derived_relations):
        hops = (2, 3, 1)[j % 3]
        rels = rng.choice(shape.base_relations, size=hops, replace=hops > shape.base_relations)
        bodies.append([(int(r), bool(rng.integers(2))) for r in rels])
    return bodies


def generate(shape: Shape, seed: int) -> Dict[str, Triples]:
    """Name triples per split for one shape and seed."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    graph_rng = np.random.default_rng(np.random.SeedSequence([shape.entities, shape.base_relations, 1]))
    n = shape.entities
    base: List[sp.csr_matrix] = []
    splits: Dict[str, Triples] = {name: [] for name in SPLITS}
    for r in range(shape.base_relations):
        degree = np.full(n, int(shape.base_out_degree))
        extra = int(round((shape.base_out_degree - int(shape.base_out_degree)) * n))
        degree[graph_rng.choice(n, size=extra, replace=False)] += 1
        heads = np.repeat(np.arange(n), degree)
        tails = graph_rng.integers(0, n, size=len(heads))
        m = sp.csr_matrix((np.ones(len(heads)), (heads, tails)), shape=(n, n))
        m.data[:] = 1.0
        base.append(m)
        splits["train"].extend((_entity(h), _base_name(r), _entity(t)) for h, t in _pairs(m))
    for j, body in enumerate(derived_bodies(shape)):
        closure = sp.identity(n, format="csr")
        for r, rev in body:
            closure = closure @ (base[r].T.tocsr() if rev else base[r])
        pairs = _pairs(closure)
        if len(pairs) > shape.max_pairs:
            pick = np.sort(rng.choice(len(pairs), size=shape.max_pairs, replace=False))
            pairs = pairs[pick]
        noisy = rng.random(len(pairs)) < shape.noise
        pairs[noisy, 1] = rng.integers(0, n, size=int(noisy.sum()))
        pairs = np.unique(pairs[pairs[:, 0] != pairs[:, 1]], axis=0)
        pairs = pairs[rng.permutation(len(pairs))]
        n_valid = int(len(pairs) * shape.valid_share)
        n_test = int(len(pairs) * shape.test_share)
        parts = {
            "valid": pairs[:n_valid],
            "test": pairs[n_valid : n_valid + n_test],
            "train": pairs[n_valid + n_test :],
        }
        name = _derived_name(j)
        for split, rows in parts.items():
            splits[split].extend((_entity(h), name, _entity(t)) for h, t in rows)
    # valid/test entities must also occur in train for filtered ranking to be
    # meaningful; drop the rare pair whose endpoint appears nowhere in train
    seen = {e for h, _, t in splits["train"] for e in (h, t)}
    for split in ("valid", "test"):
        splits[split] = [tr for tr in splits[split] if tr[0] in seen and tr[2] in seen]
    return splits


def write_kb(directory: str, splits: Dict[str, Triples]) -> Dict[str, str]:
    """One TSV file per split; returns the path of each."""
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for split in SPLITS:
        path = os.path.join(directory, "%s.txt" % split)
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines("%s\t%s\t%s\n" % tr for tr in splits[split])
        paths[split] = path
    return paths
