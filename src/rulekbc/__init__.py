"""Knowledge-base completion from learned logic rules plus rotation embeddings.

Each public name imports its submodule on first access (PEP 562), so a stage
loads only what it uses, and none loads scipy.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "evaluation": (
        "MetricsReport",
        "RuleQualityReport",
        "compute_metrics",
        "compute_rule_quality",
        "evaluate_model",
        "rule_quality_from_counts",
    ),
    "grounding": ("Grounding", "GroundingError", "ground", "ground_all", "score", "witness_paths"),
    "kb": ("KBError", "KnowledgeBase", "SparseMatrix", "Triple", "Vocab", "load_kb"),
    "proposer": ("build_rule_prompt", "mine_rules_text", "propose"),
    "rotate": ("RotateModel", "load_embeddings", "save_embeddings", "train_embeddings"),
    "rules": (
        "CASE_FLAGS",
        "Rule",
        "RuleAtom",
        "RuleParseError",
        "TrigramSimilarity",
        "classify_case",
        "dedup",
        "filter_stage1",
        "format_rule",
        "load_rules",
        "map_relations",
        "parse_rule",
    ),
    "settings": ("ExtractorConfig", "ProposerConfig", "ProposerError", "RotateConfig", "TrainerConfig"),
    "subgraph": ("Subgraph", "extract_subgraph", "sample_targets"),
    "trainer": ("ReasonerParams", "rank", "train"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(["__version__", *_MODULE_OF])


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module("." + module, __name__), name)
    globals()[name] = value
    return value
