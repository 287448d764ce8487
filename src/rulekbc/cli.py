"""Pipeline driver: extract, propose, train, eval, explain, rotate-train.

Every subcommand reads one INI config file, resolves overrides, and writes its
artifacts under <output_dir>/<config-hash>/ so identical config+seed reruns are
byte-identical and different configs never collide. No artifact embeds a
timestamp.
"""

import argparse
import configparser
import csv
import hashlib
import json
import logging
import os
import sys
from dataclasses import Field, dataclass, fields
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import evaluation, grounding, proposer, rotate, rules, subgraph, trainer
from .kb import KBError, KnowledgeBase, load_kb

logger = logging.getLogger(__name__)


class CLIError(Exception):
    pass


# [run], [kb], [similarity] and rotate.enabled feed no stage's settings
# dataclass, so these private ones hold their defaults.
@dataclass(frozen=True)
class _Run:
    seed: int = 0
    output_dir: str = "runs"


@dataclass(frozen=True)
class _Paths:
    train: str = ""
    valid: str = ""  # empty: no such split
    test: str = ""

    def __post_init__(self):
        if not self.train:
            raise CLIError("config [kb] train path is required")


@dataclass(frozen=True)
class _Similarity:
    provider: str = "trigram"

    def __post_init__(self):
        if self.provider != "trigram":
            raise CLIError("unknown similarity provider %r (available: trigram)" % self.provider)


@dataclass(frozen=True)
class _RotateSwitch:
    enabled: bool = True


# The one source of every setting and its default, in load order:
# (section, settings dataclass, {INI key: field name} where the two differ).
_SECTIONS = (
    ("run", _Run, {}),
    ("kb", _Paths, {}),
    ("extract", subgraph.ExtractorConfig, {}),
    ("similarity", _Similarity, {}),
    ("proposer", proposer.ProposerBackend, {"backend": "kind", "model": "model_name"}),
    ("rotate", rotate.RotateConfig, {}),
    ("trainer", trainer.TrainerConfig, {}),
    ("rotate", _RotateSwitch, {}),
)

# per-stage seed field and stage number; derived from [run] seed, not INI keys
_STAGE_SEEDS = {
    subgraph.ExtractorConfig: ("rng_seed", 1),
    rotate.RotateConfig: ("seed", 2),
    trainer.TrainerConfig: ("seed", 3),
}

# "section.key" -> comment in CONFIG_EXAMPLE
_COMMENTS = {
    "run.seed": "master seed; per-stage seeds are derived from it",
    "run.output_dir": "artifacts land in <output_dir>/<config-hash>/",
    "kb.train": "required; TSV head<TAB>relation<TAB>tail",
    "kb.valid": "optional; empty value for no validation split",
    "kb.test": "optional",
    "extract.max_hops": "BFS depth around each target triple",
    "extract.max_neighbors_per_entity": "incident-triple cap per pivot entity per hop",
    "extract.max_subgraphs_per_relation": "sampled target triples per relation",
    "similarity.provider": "relation-name matcher for mapping raw rule text",
    "proposer.backend": "offline-miner | remote-chat",
    "proposer.endpoint": "chat-completions URL (remote-chat only)",
    "proposer.model": "model name sent to the remote endpoint",
    "proposer.request_timeout": "seconds per HTTP attempt",
    "proposer.max_retries": "retries after the first failed attempt",
    "proposer.retry_backoff": "seconds, multiplied by the attempt number",
    "proposer.temperature": "sampling temperature for the remote model",
    "proposer.api_key_env": "env var holding the bearer token",
    "rotate.enabled": "disable to rank with rule evidence alone",
    "rotate.dim": "complex embedding dimensions",
    "rotate.margin": "score offset gamma",
    "rotate.negatives": "corrupted tails per positive",
    "trainer.weight_decay": "decoupled (AdamW style)",
    "trainer.step_size": "epochs between learning-rate decays",
    "trainer.step_gamma": "decay factor",
    "trainer.patience": "early-stopping epochs on validation MRR",
    "trainer.uniform_weights": "ablation: freeze all weights equal",
}
# [kb] paths have no default; the example shows these
_EXAMPLE_PATHS = {"kb.train": "data/train.txt", "kb.valid": "data/valid.txt", "kb.test": "data/test.txt"}


def _keys(cls, renamed: Dict[str, str]) -> List[Tuple[str, Field]]:
    """(INI key, dataclass field) for each setting of one `_SECTIONS` row."""
    key_of = {name: key for key, name in renamed.items()}
    derived = _STAGE_SEEDS.get(cls, ("",))[0]
    return [(key_of.get(f.name, f.name), f) for f in fields(cls) if f.name != derived]


_ROWS = [(section, cls, _keys(cls, renamed)) for section, cls, renamed in _SECTIONS]
# section -> its (INI key, field) pairs; sections in first-row order
_KEYS = {s: [k for row, _, keys in _ROWS if row == s for k in keys] for s, _, _ in _ROWS}


def _example() -> str:
    lines = ["# rulekbc pipeline configuration; every value below is the default."]
    for section, keys in _KEYS.items():
        entries = []
        for key, f in keys:
            name = "%s.%s" % (section, key)
            value = _EXAMPLE_PATHS.get(name, f.default)
            text = "%s = %s" % (key, str(value).lower() if isinstance(value, bool) else value)
            entries.append((text, _COMMENTS.get(name)))
        width = max([25] + [len(text) for text, comment in entries if comment]) + 1
        lines += ["", "[%s]" % section]
        lines += [text.ljust(width) + "; " + comment if comment else text for text, comment in entries]
    return "\n".join(lines) + "\n"


CONFIG_EXAMPLE = _example()


@dataclass
class PipelineConfig:
    seed: int
    output_dir: str
    train_path: str
    valid_path: Optional[str]
    test_path: Optional[str]
    extract: subgraph.ExtractorConfig
    similarity_provider: str
    backend: proposer.ProposerBackend
    rotate_enabled: bool
    rotate: rotate.RotateConfig
    trainer: trainer.TrainerConfig
    items: List[Tuple[str, str]]  # canonical resolved settings, sorted

    def hash(self) -> str:
        digest = hashlib.sha256()
        for key, value in self.items:
            digest.update(("%s=%s\n" % (key, value)).encode())
        return digest.hexdigest()[:12]

    def run_dir(self) -> str:
        return os.path.join(self.output_dir, self.hash())


def _stage_seed(seed: int, stage: int) -> int:
    return int(np.random.SeedSequence([seed, stage]).generate_state(1)[0])


def _read(parser: configparser.ConfigParser, section: str, key: str, f: Field):
    """One setting cast to its field's type; absent, or empty for a
    non-string setting, keeps the default."""
    if not parser.has_option(section, key):
        return f.default
    raw = parser.get(section, key).strip()
    if raw == "" and f.type is not str:
        return f.default
    try:
        if f.type is bool:
            return parser.getboolean(section, key)
        return f.type(raw)
    except ValueError as exc:
        raise CLIError("config %s.%s: %s" % (section, key, exc)) from exc


def load_config(
    path: str, seed: Optional[int] = None, output_dir: Optional[str] = None
) -> PipelineConfig:
    if not os.path.exists(path):
        raise CLIError("config file %s does not exist (see config.example)" % path)
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise CLIError("cannot parse %s: %s" % (path, exc)) from exc
    for section in parser.sections():
        if section not in _KEYS:
            raise CLIError("unknown config section [%s]" % section)
        known = {key for key, _ in _KEYS[section]}
        for key in parser[section]:
            if key not in known:
                raise CLIError("unknown key %r in section [%s]" % (key, section))

    overrides = {"run.seed": seed, "run.output_dir": output_dir}
    built = {}  # settings dataclass -> its instance
    items = []
    for section, cls, keys in _ROWS:
        values = {}
        for key, f in keys:
            name = "%s.%s" % (section, key)
            value = overrides.get(name)
            values[f.name] = _read(parser, section, key, f) if value is None else value
            # str(float) is its repr, so the resolved text round-trips
            items.append((name, str(values[f.name])))
        if cls in _STAGE_SEEDS:
            field_name, stage = _STAGE_SEEDS[cls]
            values[field_name] = _stage_seed(built[_Run].seed, stage)
        built[cls] = cls(**values)
    paths = built[_Paths]
    return PipelineConfig(
        seed=built[_Run].seed,
        output_dir=built[_Run].output_dir,
        train_path=paths.train,
        valid_path=paths.valid or None,
        test_path=paths.test or None,
        extract=built[subgraph.ExtractorConfig],
        similarity_provider=built[_Similarity].provider,
        backend=built[proposer.ProposerBackend],
        rotate_enabled=built[_RotateSwitch].enabled,
        rotate=built[rotate.RotateConfig],
        trainer=built[trainer.TrainerConfig],
        items=sorted(items),
    )


def _prepare_run_dir(cfg: PipelineConfig) -> str:
    run = cfg.run_dir()
    os.makedirs(run, exist_ok=True)
    with open(os.path.join(run, "config.example"), "w", encoding="utf-8") as fh:
        fh.write(CONFIG_EXAMPLE)
    with open(os.path.join(run, "config.resolved"), "w", encoding="utf-8") as fh:
        for key, value in cfg.items:
            fh.write("%s = %s\n" % (key, value))
    print("run artifacts: %s" % run)
    return run


def _load_kb(cfg: PipelineConfig) -> KnowledgeBase:
    return load_kb(cfg.train_path, cfg.valid_path, cfg.test_path)


def _subgraph_path(run: str, relation: int) -> str:
    return os.path.join(run, "subgraphs", "relation_%03d.txt" % relation)


def cmd_extract(cfg: PipelineConfig) -> int:
    run = _prepare_run_dir(cfg)
    kb = _load_kb(cfg)
    os.makedirs(os.path.join(run, "subgraphs"), exist_ok=True)
    for rel in range(kb.num_relations):
        targets = subgraph.sample_targets(
            kb, rel, cfg.extract.max_subgraphs_per_relation, cfg.extract.rng_seed
        )
        sgs = [subgraph.extract_subgraph(kb, t, cfg.extract) for t in targets]
        with open(_subgraph_path(run, rel), "w", encoding="utf-8") as fh:
            subgraph.save_subgraphs(fh, kb, sgs)
        sizes = [len(s) for s in sgs]
        print(
            "relation %-30s targets=%-3d mean_size=%.1f"
            % (kb.relation_name(rel), len(sgs), float(np.mean(sizes)) if sizes else 0.0)
        )
    return 0


def cmd_propose(cfg: PipelineConfig) -> int:
    run = _prepare_run_dir(cfg)
    kb = _load_kb(cfg)
    provider = rules.TrigramSimilarity()
    os.makedirs(os.path.join(run, "rules"), exist_ok=True)
    os.makedirs(os.path.join(run, "proposals"), exist_ok=True)
    all_records: List[proposer.ProposalRecord] = []
    kept: List[rules.Rule] = []
    totals = {"lines": 0, "parse_rejected": 0, "stage1_rejected": 0, "mapped": 0, "unclassified": 0}
    for rel in range(kb.num_relations):
        path = _subgraph_path(run, rel)
        if not os.path.exists(path):
            raise CLIError("no subgraph dump for relation %r; run extract first" % kb.relation_name(rel))
        with open(path, "r", encoding="utf-8") as fh:
            sgs = list(subgraph.load_subgraphs(fh, kb))
        records = proposer.propose(cfg.backend, kb, sgs)
        all_records.extend(records)
        target_name = kb.relation_name(rel)
        stats = dict.fromkeys(("lines", "parse_rejected", "stage1_rejected", "mapped", "unclassified"), 0)
        for rec in records:
            stats["lines"] += len(rec.parsed_rules) + len(rec.rejected)
            stats["parse_rejected"] += len(rec.rejected)
            for rule in rec.parsed_rules:
                reason = rules.filter_stage1(rule, target_name)
                if reason is not None:
                    stats["stage1_rejected"] += 1
                    continue
                mapped = rules.map_relations(rule, kb, provider)
                classified = rules.classify_case(mapped)
                stats["mapped"] += 1
                if classified.case == rules.UNCLASSIFIED:
                    stats["unclassified"] += 1
                kept.append(classified)
        for key in totals:
            totals[key] += stats[key]
        if stats["lines"]:
            print(
                "relation %-30s lines=%-4d parse_rejected=%-4d stage1_rejected=%-4d "
                "mapped=%-4d unclassified=%d"
                % (
                    target_name,
                    stats["lines"],
                    stats["parse_rejected"],
                    stats["stage1_rejected"],
                    stats["mapped"],
                    stats["unclassified"],
                )
            )
    unique = rules.dedup(kept)
    proposer.save_proposals(os.path.join(run, "proposals", "records.jsonl"), all_records, kb)
    rules.save_rules(os.path.join(run, "rules", "rules.jsonl"), unique, kb)
    print(
        "totals: lines=%d parse_rejected=%d stage1_rejected=%d mapped=%d "
        "unclassified=%d unique=%d"
        % (
            totals["lines"],
            totals["parse_rejected"],
            totals["stage1_rejected"],
            totals["mapped"],
            totals["unclassified"],
            len(unique),
        )
    )
    return 0


def _rotate_checkpoint(run: str) -> str:
    return os.path.join(run, "checkpoints", "rotate.bin")


def _ensure_rotate(cfg: PipelineConfig, run: str, kb: KnowledgeBase, train_if_missing: bool):
    if not cfg.rotate_enabled:
        return None
    path = _rotate_checkpoint(run)
    if os.path.exists(path):
        model = rotate.load_embeddings(path)
        if model.num_entities != kb.num_entities or model.num_relations != kb.num_relations:
            raise CLIError("embedding checkpoint %s does not match the KB vocabulary" % path)
        return model
    if not train_if_missing:
        raise CLIError("no embedding checkpoint at %s; run rotate-train or train first" % path)
    model, trace = rotate.train_embeddings(kb, cfg.rotate)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    rotate.save_embeddings(path, model)
    _write_json(os.path.join(run, "reports", "rotate_trace.json"), trace)
    print("trained embeddings: %d epochs, final loss %.4f" % (len(trace), trace[-1] if trace else 0.0))
    return model


def _write_json(path: str, payload) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_rule_file(run: str, kb: KnowledgeBase) -> List[rules.Rule]:
    path = os.path.join(run, "rules", "rules.jsonl")
    if not os.path.exists(path):
        raise CLIError("no rule file at %s; run propose first" % path)
    return rules.load_rules(path, kb)


def cmd_rotate_train(cfg: PipelineConfig) -> int:
    run = _prepare_run_dir(cfg)
    if not cfg.rotate_enabled:
        raise CLIError("rotate.enabled is false; nothing to train")
    kb = _load_kb(cfg)
    path = _rotate_checkpoint(run)
    if os.path.exists(path):
        os.unlink(path)
    _ensure_rotate(cfg, run, kb, train_if_missing=True)
    print("embedding checkpoint: %s" % path)
    return 0


def cmd_train(cfg: PipelineConfig, resume: bool = False) -> int:
    run = _prepare_run_dir(cfg)
    kb = _load_kb(cfg)
    learned = _load_rule_file(run, kb)
    groundings = grounding.ground_all(kb, learned, cache_dir=os.path.join(run, "groundings"))
    total_grounded = sum(len(v) for v in groundings.values())
    if total_grounded == 0 and not cfg.rotate_enabled:
        raise CLIError("no classifiable rules and embeddings are disabled; nothing to train")
    rotate_model = _ensure_rotate(cfg, run, kb, train_if_missing=True)
    params_path = os.path.join(run, "checkpoints", "params.json")
    initial = None
    if resume:
        if not os.path.exists(params_path):
            raise CLIError("cannot resume: no checkpoint at %s" % params_path)
        initial = trainer.load_params(params_path, kb)
    params, traces = trainer.train(kb, groundings, rotate_model, cfg.trainer, initial=initial)
    os.makedirs(os.path.dirname(params_path), exist_ok=True)
    trainer.save_params(params_path, params, kb)
    _write_json(os.path.join(run, "reports", "train_trace.json"), traces)
    trained = sum(1 for t in traces.values() if t["loss"])
    print(
        "trained %d relations (%d grounded rules); checkpoint: %s"
        % (trained, total_grounded, params_path)
    )
    return 0


def cmd_eval(
    cfg: PipelineConfig,
    split: str = "test",
    annotations_path: Optional[str] = None,
    emit_csv: bool = False,
) -> int:
    run = _prepare_run_dir(cfg)
    kb = _load_kb(cfg)
    learned = _load_rule_file(run, kb)
    groundings = grounding.ground_all(kb, learned, cache_dir=os.path.join(run, "groundings"))
    rotate_model = _ensure_rotate(cfg, run, kb, train_if_missing=False)
    params_path = os.path.join(run, "checkpoints", "params.json")
    if not os.path.exists(params_path):
        raise CLIError("no parameter checkpoint at %s; run train first" % params_path)
    params = trainer.load_params(params_path, kb)
    report = evaluation.evaluate_model(params, kb, groundings, rotate_model, split=split)
    print(report.render_text())
    _write_json(os.path.join(run, "reports", "metrics_%s.json" % split), report.to_dict())
    with open(os.path.join(run, "reports", "metrics_%s.txt" % split), "w", encoding="utf-8") as fh:
        fh.write(report.render_text() + "\n")
    if emit_csv:
        csv_path = os.path.join(run, "reports", "metrics_%s.csv" % split)
        with open(csv_path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["metric", "value"])
            writer.writerow(["queries", report.query_count])
            writer.writerow(["mr", "%.6f" % report.mr])
            writer.writerow(["mrr", "%.6f" % report.mrr])
            for k in sorted(report.hits):
                writer.writerow(["hits@%d" % k, "%.6f" % report.hits[k]])
    if annotations_path:
        annotations = evaluation.load_annotations(annotations_path)
        quality = evaluation.compute_rule_quality(learned, annotations, kb)
        print(quality.render_text())
        _write_json(os.path.join(run, "reports", "rule_quality.json"), quality.to_dict())
    return 0


def _nearest_names(name: str, candidates: List[str], limit: int = 5) -> List[str]:
    provider = rules.TrigramSimilarity()
    scored = sorted(candidates, key=lambda c: (-provider.score(name, c), c))
    return scored[:limit]


def cmd_explain(cfg: PipelineConfig, head_name: str, relation_name: str, top_k: int = 10) -> int:
    run = _prepare_run_dir(cfg)
    kb = _load_kb(cfg)
    if head_name not in kb.entities:
        print(
            "unknown entity %r; nearest names: %s"
            % (head_name, ", ".join(_nearest_names(head_name, kb.entities.names))),
            file=sys.stderr,
        )
        return 2
    if relation_name not in kb.relations:
        print(
            "unknown relation %r; nearest names: %s"
            % (relation_name, ", ".join(_nearest_names(relation_name, kb.relations.names))),
            file=sys.stderr,
        )
        return 2
    head = kb.entities.id(head_name)
    relation = kb.relations.id(relation_name)
    learned = _load_rule_file(run, kb)
    groundings = grounding.ground_all(kb, learned, cache_dir=os.path.join(run, "groundings"))
    rotate_model = _ensure_rotate(cfg, run, kb, train_if_missing=False)
    params_path = os.path.join(run, "checkpoints", "params.json")
    if not os.path.exists(params_path):
        raise CLIError("no parameter checkpoint at %s; run train first" % params_path)
    params = trainer.load_params(params_path, kb)
    result = trainer.rank(params, kb, groundings, rotate_model, head, relation, top_k=top_k)
    print("query: (%s, %s, ?)" % (head_name, relation_name))
    for pos, entry in enumerate(result.entries, start=1):
        print("%2d. %-30s score=%.6f" % (pos, kb.entity_name(entry.tail), entry.score))
        for label, value in sorted(entry.contributions, key=lambda lv: -abs(lv[1])):
            print("      %+.6f  %s" % (value, label))
            if label != "embedding":
                paths = grounding.witness_paths(
                    kb, _rule_by_text(learned, label, kb), head, entry.tail, limit=2
                )
                for p in paths:
                    shown = " ; ".join(
                        "(%s, %s, %s)"
                        % (kb.entity_name(a), kb.relation_name(r), kb.entity_name(b))
                        for a, r, b in p
                    )
                    print("                 via %s" % shown)
    return 0


def _rule_by_text(learned: List[rules.Rule], text: str, kb: KnowledgeBase) -> rules.Rule:
    for rule in learned:
        if rules.format_rule(rule, kb) == text:
            return rule
    raise CLIError("rule %r not found in the rule file" % text)


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rulekbc",
        description="Knowledge-base completion with learned logic rules and rotation embeddings.",
    )
    parser.add_argument("--config", required=True, help="path to the INI pipeline config")
    parser.add_argument("--seed", type=int, default=None, help="override [run] seed")
    parser.add_argument("--output-dir", default=None, help="override [run] output_dir")
    parser.add_argument("--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("extract", help="sample targets and dump subgraphs per relation")
    sub.add_parser("propose", help="generate, filter and classify candidate rules")
    train_p = sub.add_parser("train", help="ground rules and fit significance weights")
    train_p.add_argument("--resume", action="store_true", help="continue from the checkpoint")
    eval_p = sub.add_parser("eval", help="filtered ranking metrics on a split")
    eval_p.add_argument("--split", choices=("valid", "test"), default="test")
    eval_p.add_argument("--rules-annotations", default=None, help="path score annotations file")
    eval_p.add_argument("--emit-csv", action="store_true")
    explain_p = sub.add_parser("explain", help="rank tails for one query with attributions")
    explain_p.add_argument("head", help="entity name")
    explain_p.add_argument("relation", help="relation name")
    explain_p.add_argument("--top", type=int, default=10)
    sub.add_parser("rotate-train", help="pretrain the frozen embedding model")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_arg_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        cfg = load_config(args.config, seed=args.seed, output_dir=args.output_dir)
        if args.command == "extract":
            return cmd_extract(cfg)
        if args.command == "propose":
            return cmd_propose(cfg)
        if args.command == "train":
            return cmd_train(cfg, resume=args.resume)
        if args.command == "eval":
            return cmd_eval(
                cfg,
                split=args.split,
                annotations_path=args.rules_annotations,
                emit_csv=args.emit_csv,
            )
        if args.command == "explain":
            return cmd_explain(cfg, args.head, args.relation, top_k=args.top)
        if args.command == "rotate-train":
            return cmd_rotate_train(cfg)
        raise CLIError("unhandled command %r" % args.command)
    except (CLIError, KBError, proposer.ProposerError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
