"""Pipeline driver: extract, propose, train, eval, explain, rotate-train.

`main` is the one runner: it reads the INI config file, prepares the run
directory <output_dir>/<config-hash>/, loads the KB and calls the handler of
the chosen subcommand, so identical config+seed reruns are byte-identical
and different configs never collide. No artifact embeds a timestamp.
"""

import argparse
import configparser
import contextlib
import hashlib
import logging
import os
import sys
from collections import Counter
from dataclasses import Field, dataclass, fields
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

# each command imports the stage modules it uses itself, so it loads no
# other stage's module; every section's settings come from `settings`
from . import rules, settings
from .kb import KBError, KnowledgeBase, load_kb, not_utf8, write_json

if TYPE_CHECKING:
    from . import grounding


class CLIError(Exception):
    pass


# No stage module defines settings for [run] or [kb], so these private
# dataclasses hold them and their defaults.
@dataclass(frozen=True)
class _Run:
    seed: int = 0
    output_dir: str = "runs"

    def __post_init__(self):
        if self.seed < 0:
            raise CLIError("run.seed must be a non-negative integer, got %d" % self.seed)


@dataclass(frozen=True)
class _Paths:
    train: str = ""
    valid: str = ""  # empty: no such split
    test: str = ""

    def __post_init__(self):
        if not self.train:
            raise CLIError("config [kb] train path is required")


# The one source of every setting and its default, one row per INI section
# in load order: (section, its settings dataclass), each INI key the name of
# a field. `load_config` keeps each section's instance under the section's
# name.
_SECTIONS = (
    ("run", _Run),
    ("kb", _Paths),
    ("extract", settings.ExtractorConfig),
    ("proposer", settings.ProposerConfig),
    ("rotate", settings.RotateConfig),
    ("trainer", settings.TrainerConfig),
)

# per-stage seed field and stage number; derived from [run] seed, not INI keys
_STAGE_SEEDS = {
    settings.ExtractorConfig: ("rng_seed", 1),
    settings.RotateConfig: ("seed", 2),
}


def _keys(cls) -> List[Tuple[str, Field]]:
    """(INI key, dataclass field) for each setting of one `_SECTIONS` row."""
    derived = _STAGE_SEEDS.get(cls, ("",))[0]
    return [(f.name, f) for f in fields(cls) if f.name != derived]


# section -> its (INI key, field) pairs, in `_SECTIONS` order
_KEYS = {section: _keys(cls) for section, cls in _SECTIONS}


@dataclass
class PipelineConfig:
    """Each INI section's settings under the section's name."""

    run: _Run
    kb: _Paths
    extract: settings.ExtractorConfig
    proposer: settings.ProposerConfig
    rotate: settings.RotateConfig
    trainer: settings.TrainerConfig
    items: List[Tuple[str, str]]  # canonical resolved settings, sorted

    def hash(self) -> str:
        digest = hashlib.sha256()
        for key, value in self.items:
            digest.update(("%s=%s\n" % (key, value)).encode())
        return digest.hexdigest()[:12]

    def run_dir(self) -> str:
        return os.path.join(self.run.output_dir, self.hash())


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


def load_config(path: str) -> PipelineConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except FileNotFoundError as exc:
        raise CLIError("config file %s does not exist (see README: Default configuration)" % path) from exc
    except OSError as exc:
        raise CLIError("cannot read config file %s: %s" % (path, exc.strerror)) from exc
    except configparser.Error as exc:
        raise CLIError("cannot parse %s: %s" % (path, exc)) from exc
    except UnicodeDecodeError as exc:
        raise not_utf8(path, exc) from exc
    for section in parser.sections():
        if section not in _KEYS:
            raise CLIError("unknown config section [%s]" % section)
        known = {key for key, _ in _KEYS[section]}
        for key in parser[section]:
            if key not in known:
                raise CLIError("unknown key %r in section [%s]" % (key, section))

    built = {}  # section -> its settings instance
    items = []
    for section, cls in _SECTIONS:
        values = {}
        for key, f in _KEYS[section]:
            values[key] = _read(parser, section, key, f)
            # str(float) is its repr, so the resolved text round-trips
            items.append(("%s.%s" % (section, key), str(values[key])))
        if cls in _STAGE_SEEDS:
            field_name, stage = _STAGE_SEEDS[cls]
            values[field_name] = settings.stage_seed(built["run"].seed, stage)
        built[section] = cls(**values)
    return PipelineConfig(items=sorted(items), **built)


def _prepare_run_dir(cfg: PipelineConfig) -> str:
    run = cfg.run_dir()
    path = os.path.join(run, "config.resolved")
    resolved = "".join("%s = %s\n" % item for item in cfg.items).encode()
    try:
        os.makedirs(run, exist_ok=True)
        try:
            with open(path, "rb") as fh:
                current = fh.read()
        except FileNotFoundError:
            current = None
        if current != resolved:  # a rerun leaves the file untouched
            with open(path, "wb") as fh:
                fh.write(resolved)
    except OSError as exc:
        raise CLIError("cannot write run directory %s: %s" % (run, exc)) from exc
    print("run artifacts: %s" % run)
    return run


def _load_kb(cfg: PipelineConfig) -> KnowledgeBase:
    return load_kb(cfg.kb.train, cfg.kb.valid, cfg.kb.test)


def _subgraph_path(run: str, relation: int) -> str:
    return os.path.join(run, "subgraphs", "relation_%03d.txt" % relation)


def cmd_extract(cfg: PipelineConfig, run: str, kb: KnowledgeBase, args: argparse.Namespace) -> int:
    from . import subgraph

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


# per-relation and total counters that `propose` prints, in print order
_PROPOSE_COUNTERS = ("lines", "parse_rejected", "stage1_rejected", "mapped", "unclassified")


def cmd_propose(cfg: PipelineConfig, run: str, kb: KnowledgeBase, args: argparse.Namespace) -> int:
    from . import proposer, subgraph

    provider = rules.TrigramSimilarity()
    os.makedirs(os.path.join(run, "proposals"), exist_ok=True)
    records_path = os.path.join(run, "proposals", "records.jsonl")
    rules_path = os.path.join(run, "rules", "rules.jsonl")
    all_records: List[proposer.ProposalRecord] = []
    kept: List[rules.Rule] = []
    totals: Counter = Counter()
    for rel in range(kb.num_relations):
        path = _subgraph_path(run, rel)
        if not os.path.exists(path):
            raise CLIError("no subgraph dump for relation %r; run extract first" % kb.relation_name(rel))
        sgs = list(subgraph.load_subgraphs(path, kb))
        records = proposer.propose(cfg.proposer, kb, sgs)
        all_records.extend(records)
        target_name = kb.relation_name(rel)
        stats: Counter = Counter()
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
        totals.update(stats)
        if stats["lines"]:
            # the last counter is printed unpadded
            shown = " ".join("%s=%-4d" % (key, stats[key]) for key in _PROPOSE_COUNTERS)
            print(("relation %-30s %s" % (target_name, shown)).rstrip())
        # a backend that has answered no request yet stops here, not after
        # every relation's subgraphs have failed
        if all_records and all(rec.error for rec in all_records):
            proposer.save_proposals(records_path, all_records, kb)
            # a rule file of an earlier run goes too: `train` would train on it
            with contextlib.suppress(FileNotFoundError):
                os.unlink(rules_path)
            last = all_records[-1].error
            raise CLIError("no subgraph got a completion from %s; last error: %s" % (cfg.proposer.endpoint, last))
    unique = rules.dedup(kept)
    proposer.save_proposals(records_path, all_records, kb)
    os.makedirs(os.path.dirname(rules_path), exist_ok=True)
    rules.save_rules(rules_path, unique, kb)
    shown = " ".join("%s=%d" % (key, totals[key]) for key in _PROPOSE_COUNTERS)
    print("totals: %s unique=%d" % (shown, len(unique)))
    return 0


def _rotate_checkpoint(run: str) -> str:
    return os.path.join(run, "checkpoints", "rotate.bin")


def _ensure_rotate(cfg: PipelineConfig, run: str, kb: KnowledgeBase, train_if_missing: bool):
    from . import rotate

    if not cfg.rotate.enabled:
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
    write_json(os.path.join(run, "reports", "rotate_trace.json"), trace)
    print("trained embeddings: %d epochs, final loss %.4f" % (len(trace), trace[-1] if trace else 0.0))
    return model


def _load_rule_file(run: str, kb: KnowledgeBase) -> List[rules.Rule]:
    path = os.path.join(run, "rules", "rules.jsonl")
    if not os.path.exists(path):
        raise CLIError("no rule file at %s; run propose first" % path)
    return rules.load_rules(path, kb)


def _ground_rule_file(
    run: str, kb: KnowledgeBase
) -> Tuple[List[rules.Rule], Dict[int, List["grounding.Grounding"]]]:
    """The run's rule file and its groundings, through the run's cache."""
    from . import grounding

    learned = _load_rule_file(run, kb)
    return learned, grounding.ground_all(kb, learned, cache_dir=os.path.join(run, "groundings"))


def _load_trained(cfg: PipelineConfig, run: str, kb: KnowledgeBase) -> Tuple:
    """(rules, groundings, embedding model or None, `trainer.ReasonerParams`)
    of a trained run, loaded in this order."""
    from . import trainer

    learned, groundings = _ground_rule_file(run, kb)
    rotate_model = _ensure_rotate(cfg, run, kb, train_if_missing=False)
    params_path = os.path.join(run, "checkpoints", "params.json")
    if not os.path.exists(params_path):
        raise CLIError("no parameter checkpoint at %s; run train first" % params_path)
    params = trainer.load_params(params_path, kb)
    trainer.check_checkpoint_rules(params, kb, groundings)
    return learned, groundings, rotate_model, params


def cmd_rotate_train(cfg: PipelineConfig, run: str, kb: KnowledgeBase, args: argparse.Namespace) -> int:
    if not cfg.rotate.enabled:
        raise CLIError("rotate.enabled is false; nothing to train")
    path = _rotate_checkpoint(run)
    if os.path.exists(path):
        os.unlink(path)
    _ensure_rotate(cfg, run, kb, train_if_missing=True)
    print("embedding checkpoint: %s" % path)
    return 0


def cmd_train(cfg: PipelineConfig, run: str, kb: KnowledgeBase, args: argparse.Namespace) -> int:
    from . import trainer

    _, groundings = _ground_rule_file(run, kb)
    total_grounded = sum(len(v) for v in groundings.values())
    if total_grounded == 0 and not cfg.rotate.enabled:
        raise CLIError("no classifiable rules and embeddings are disabled; nothing to train")
    rotate_model = _ensure_rotate(cfg, run, kb, train_if_missing=True)
    params_path = os.path.join(run, "checkpoints", "params.json")
    params, traces = trainer.train(kb, groundings, rotate_model, cfg.trainer)
    os.makedirs(os.path.dirname(params_path), exist_ok=True)
    trainer.save_params(params_path, params, kb)
    write_json(os.path.join(run, "reports", "train_trace.json"), traces)
    trained = sum(1 for t in traces.values() if t["loss"])
    print("trained %d relations (%d grounded rules); checkpoint: %s" % (trained, total_grounded, params_path))
    return 0


def cmd_eval(cfg: PipelineConfig, run: str, kb: KnowledgeBase, args: argparse.Namespace) -> int:
    from . import evaluation

    # read before evaluating, so a bad path fails before any report is written
    annotations = evaluation.load_annotations(args.rules_annotations) if args.rules_annotations else None
    learned, groundings, rotate_model, params = _load_trained(cfg, run, kb)
    report = evaluation.evaluate_model(params, kb, groundings, rotate_model, split=args.split)
    print(report.render_text())
    write_json(os.path.join(run, "reports", "metrics_%s.json" % args.split), report.to_dict())
    with open(os.path.join(run, "reports", "metrics_%s.txt" % args.split), "w", encoding="utf-8") as fh:
        fh.write(report.render_text() + "\n")
    if args.emit_csv:
        import csv

        csv_path = os.path.join(run, "reports", "metrics_%s.csv" % args.split)
        with open(csv_path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["metric", "value"])
            writer.writerow(["queries", report.query_count])
            writer.writerow(["mr", "%.6f" % report.mr])
            writer.writerow(["mrr", "%.6f" % report.mrr])
            for k in sorted(report.hits):
                writer.writerow(["hits@%d" % k, "%.6f" % report.hits[k]])
    if annotations is not None:
        quality = evaluation.compute_rule_quality(learned, annotations, kb)
        print(quality.render_text())
        write_json(os.path.join(run, "reports", "rule_quality.json"), quality.to_dict())
    return 0


def _nearest_names(name: str, candidates: List[str], limit: int = 5) -> List[str]:
    provider = rules.TrigramSimilarity()
    return sorted(candidates, key=lambda c: (-provider.score(name, c), c))[:limit]


def cmd_explain(cfg: PipelineConfig, run: str, kb: KnowledgeBase, args: argparse.Namespace) -> int:
    from . import grounding, trainer

    for name, vocab in ((args.head, kb.entities), (args.relation, kb.relations)):
        if name not in vocab:
            shown = ", ".join(_nearest_names(name, vocab.names))
            print("unknown %s %r; nearest names: %s" % (vocab.kind, name, shown), file=sys.stderr)
            return 2
    head = kb.entities.id(args.head)
    relation = kb.relations.id(args.relation)
    learned, groundings, rotate_model, params = _load_trained(cfg, run, kb)
    result = trainer.rank(params, kb, groundings, rotate_model, head, relation, top_k=args.top)
    print("query: (%s, %s, ?)" % (args.head, args.relation))
    for pos, entry in enumerate(result.entries, start=1):
        print("%2d. %-30s score=%.6f" % (pos, kb.entity_name(entry.tail), entry.score))
        for label, value in sorted(entry.contributions, key=lambda lv: -abs(lv[1])):
            print("      %+.6f  %s" % (value, label))
            if label != "embedding":
                paths = grounding.witness_paths(
                    kb, _rule_by_text(learned, label, kb), head, entry.tail, limit=2
                )
                for p in paths:
                    print("                 via %s" % " ; ".join(map(kb.triple_text, p)))
    return 0


def _rule_by_text(learned: List[rules.Rule], text: str, kb: KnowledgeBase) -> rules.Rule:
    for rule in learned:
        if rules.format_rule(rule, kb) == text:
            return rule
    raise CLIError("rule %r not found in the rule file" % text)


# (subcommand, its handler, its help)
_COMMANDS = (
    ("extract", cmd_extract, "sample targets and dump subgraphs per relation"),
    ("propose", cmd_propose, "generate, filter and classify candidate rules"),
    ("train", cmd_train, "ground rules and fit significance weights"),
    ("eval", cmd_eval, "filtered ranking metrics on a split"),
    ("explain", cmd_explain, "rank tails for one query with attributions"),
    ("rotate-train", cmd_rotate_train, "pretrain the frozen embedding model"),
)


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rulekbc",
        description="Knowledge-base completion with learned logic rules and rotation embeddings.",
    )
    parser.add_argument("--config", required=True, help="path to the INI pipeline config")
    sub = parser.add_subparsers(dest="command", required=True)
    # each subcommand carries the handler that `main` calls
    for name, handler, text in _COMMANDS:
        sub.add_parser(name, help=text).set_defaults(handler=handler)
    eval_p, explain_p = sub.choices["eval"], sub.choices["explain"]
    eval_p.add_argument("--split", choices=("valid", "test"), default="test")
    eval_p.add_argument("--rules-annotations", default=None, help="path score annotations file")
    eval_p.add_argument("--emit-csv", action="store_true")
    explain_p.add_argument("head", help="entity name")
    explain_p.add_argument("relation", help="relation name")
    explain_p.add_argument("--top", type=int, default=10)
    return parser


def _check_global_options(parser: argparse.ArgumentParser, argv: List[str]) -> None:
    """Exit 2 naming the first `-`-prefixed token before the subcommand that
    the top-level parser does not define. argparse would skip it and report
    the token after it, the option's value, as an invalid subcommand."""
    defined = parser._option_string_actions  # option string -> action
    commands = {name for name, _, _ in _COMMANDS}
    i = 0
    while i < len(argv) and argv[i] not in commands and argv[i] != "--":
        token = argv[i]
        i += 1
        if not token.startswith("-") or token == "-":
            continue
        name = token.split("=", 1)[0]
        # argparse also takes a unique prefix of a long option
        prefixed = [o for o in defined if name.startswith("--") and o.startswith(name)]
        option = name if name in defined else prefixed[0] if len(prefixed) == 1 else None
        if option is None:
            parser.error("unrecognized arguments: %s" % token)
        if defined[option].nargs != 0 and "=" not in token:
            i += 1  # the option's value


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_arg_parser()
    argv = sys.argv[1:] if argv is None else argv
    _check_global_options(parser, argv)
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr)
    try:
        cfg = load_config(args.config)
        run = _prepare_run_dir(cfg)
        return args.handler(cfg, run, _load_kb(cfg), args)
    except (CLIError, KBError, settings.ProposerError, ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
