"""Command-line pipeline: config handling, artifacts, determinism, explain."""

import configparser
import json
import os
import re
import shutil

import numpy as np
import pytest

from conftest import run_cli, write_toy_dataset
from rulekbc import cli, rules, trainer
from rulekbc.grounding import _cache_key
from rulekbc.kb import load_kb


def minimal_config(tmp_path, extra=""):
    write_toy_dataset(str(tmp_path / "data"))
    path = tmp_path / "cfg.ini"
    path.write_text(
        "[run]\noutput_dir = %s\n[kb]\ntrain = %s\nvalid = %s\ntest = %s\n%s"
        % (
            tmp_path / "runs",
            tmp_path / "data" / "train.txt",
            tmp_path / "data" / "valid.txt",
            tmp_path / "data" / "test.txt",
            extra,
        )
    )
    return path


def private_run(cli_pipeline, tmp_path):
    """(config, run dir) of a copy of the built run: the session's run must
    stay intact."""
    config = tmp_path / "pipeline.ini"
    config.write_text(
        cli_pipeline["config"].read_text().replace(str(cli_pipeline["base"] / "runs"), str(tmp_path))
    )
    run = tmp_path / cli.load_config(str(config)).hash()
    shutil.copytree(str(cli_pipeline["run_dir"]), str(run))
    return config, run


class TestConfig:
    def test_example_config_is_loadable(self, tmp_path):
        path = tmp_path / "example.ini"
        path.write_text(cli.CONFIG_EXAMPLE)
        cfg = cli.load_config(str(path))
        assert cfg.seed == 0
        assert cfg.trainer.max_epochs == 500
        assert cfg.rotate.dim == 64
        assert cfg.extract.max_hops == 3
        assert cfg.backend.kind == "offline-miner"

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(cli.CLIError, match="does not exist"):
            cli.load_config(str(tmp_path / "nope.ini"))

    def test_unknown_section_rejected(self, tmp_path):
        path = minimal_config(tmp_path, extra="[bogus]\nx = 1\n")
        with pytest.raises(cli.CLIError, match=r"unknown config section \[bogus\]"):
            cli.load_config(str(path))

    def test_unknown_key_rejected(self, tmp_path):
        path = minimal_config(tmp_path, extra="[trainer]\nbogus = 1\n")
        with pytest.raises(cli.CLIError, match="unknown key 'bogus'"):
            cli.load_config(str(path))

    def test_bad_value_type_rejected(self, tmp_path):
        path = minimal_config(tmp_path, extra="[trainer]\nmax_epochs = soon\n")
        with pytest.raises(cli.CLIError, match="trainer.max_epochs"):
            cli.load_config(str(path))

    def test_train_path_required(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text("[run]\nseed = 1\n")
        with pytest.raises(cli.CLIError, match="train path is required"):
            cli.load_config(str(path))

    def test_unknown_similarity_provider_rejected(self, tmp_path):
        path = minimal_config(tmp_path, extra="[similarity]\nprovider = exact\n")
        with pytest.raises(cli.CLIError, match="similarity provider"):
            cli.load_config(str(path))

    def test_seed_override_changes_run_dir(self, tmp_path):
        path = minimal_config(tmp_path)
        base = cli.load_config(str(path))
        other = cli.load_config(str(path), seed=99)
        assert base.hash() != other.hash()
        assert base.run_dir() != other.run_dir()

    def test_stage_seeds_are_distinct(self, tmp_path):
        cfg = cli.load_config(str(minimal_config(tmp_path)))
        seeds = {cfg.extract.rng_seed, cfg.rotate.seed, cfg.trainer.seed}
        assert len(seeds) == 3

    def test_hash_stable_across_loads(self, tmp_path):
        path = minimal_config(tmp_path)
        assert cli.load_config(str(path)).hash() == cli.load_config(str(path)).hash()

    @pytest.mark.parametrize(
        "text, digest",
        [(cli.CONFIG_EXAMPLE, "ddd85b4c6d85"), ("[kb]\ntrain = t.txt\n", "628f3e07b743")],
        ids=["example", "train-only"],
    )
    def test_hash_is_pinned(self, tmp_path, text, digest):
        # the hash names the run directory, so a change to the resolved text
        # would orphan every existing run
        path = tmp_path / "cfg.ini"
        path.write_text(text)
        assert cli.load_config(str(path)).hash() == digest

    def test_empty_values(self, tmp_path):
        path = minimal_config(tmp_path, extra="[rotate]\ndim =\n[proposer]\nendpoint =\nmodel =\n")
        path.write_text(path.read_text().replace("valid = %s" % (tmp_path / "data" / "valid.txt"), "valid ="))
        cfg = cli.load_config(str(path))
        assert cfg.rotate.dim == 64  # a non-string setting keeps its default
        assert cfg.backend.endpoint == ""
        assert cfg.backend.model_name == ""  # a string setting takes the empty value
        assert cfg.valid_path is None
        assert ("kb.valid", "") in cfg.items and ("rotate.dim", "64") in cfg.items

    def test_readme_default_block_is_the_example(self):
        readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
        with open(readme, encoding="utf-8") as fh:
            text = fh.read()
        block = re.search(r"## Default configuration\n\n```ini\n(.*?)```", text, re.S)
        assert block is not None
        assert block.group(1) == cli.CONFIG_EXAMPLE


class TestArgumentErrors:
    def test_missing_config_flag(self):
        with pytest.raises(SystemExit):
            cli.main(["extract"])

    def test_unknown_split_choice(self, tmp_path):
        path = minimal_config(tmp_path)
        with pytest.raises(SystemExit):
            cli.main(["--config", str(path), "eval", "--split", "train"])

    def test_missing_kb_file_exits_nonzero(self, tmp_path, capsys):
        path = tmp_path / "cfg.ini"
        path.write_text(
            "[run]\noutput_dir = %s\n[kb]\ntrain = %s\n"
            % (tmp_path / "runs", tmp_path / "absent.txt")
        )
        code = cli.main(["--config", str(path), "extract"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_propose_before_extract_exits_nonzero(self, tmp_path, capsys):
        path = minimal_config(tmp_path)
        code = cli.main(["--config", str(path), "propose"])
        assert code == 2
        assert "run extract first" in capsys.readouterr().err

    def test_eval_before_propose_exits_nonzero(self, tmp_path, capsys):
        path = minimal_config(tmp_path)
        code = cli.main(["--config", str(path), "eval"])
        assert code == 2
        assert "run propose first" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, key, value, command",
        [
            ("rotate", "lr", "nan", "rotate-train"),
            ("rotate", "margin", "inf", "rotate-train"),
            ("trainer", "lr", "nan", "train"),
            ("trainer", "weight_decay", "inf", "train"),
            ("trainer", "step_gamma", "-inf", "train"),
        ],
    )
    def test_non_finite_float_setting_exits_nonzero(self, tmp_path, capsys, section, key, value, command):
        path = minimal_config(tmp_path, extra="[%s]\n%s = %s\n" % (section, key, value))
        code = cli.main(["--config", str(path), command])
        assert code == 2
        err = capsys.readouterr().err
        assert "error: %s.%s must be finite, got %s" % (section, key, value) in err
        assert "Traceback" not in err

    def test_resume_without_checkpoint_exits_nonzero(self, tmp_path, capsys):
        path = minimal_config(tmp_path)
        code, _ = run_cli(["--config", str(path), "extract"])
        assert code == 0
        code, _ = run_cli(["--config", str(path), "propose"])
        assert code == 0
        code = cli.main(["--config", str(path), "train", "--resume"])
        assert code == 2
        assert "cannot resume" in capsys.readouterr().err


class TestPipelineArtifacts:
    def test_run_dir_has_config_records(self, cli_pipeline):
        run = cli_pipeline["run_dir"]
        example = run / "config.example"
        assert example.read_text() == cli.CONFIG_EXAMPLE
        parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
        parser.read(str(example))  # the shipped example must stay parseable
        resolved = (run / "config.resolved").read_text().splitlines()
        assert "run.seed = 7" in resolved
        assert resolved == sorted(resolved)

    def test_subgraph_dumps_exist(self, cli_pipeline):
        run = cli_pipeline["run_dir"]
        dumps = sorted((run / "subgraphs").glob("relation_*.txt"))
        assert len(dumps) == 2  # one per relation
        assert all(d.stat().st_size > 0 for d in dumps)

    def test_proposals_and_rules_written(self, cli_pipeline):
        run = cli_pipeline["run_dir"]
        records = (run / "proposals" / "records.jsonl").read_text().splitlines()
        assert records
        assert all(json.loads(line) for line in records)
        rule_lines = (run / "rules" / "rules.jsonl").read_text().splitlines()
        assert rule_lines
        texts = [json.loads(line)["text"] for line in rule_lines]
        assert (
            "IF (A, parent, B) AND (B, parent, C) THEN (A, grandparent, C)" in texts
        )

    def test_propose_stats_conservation(self, cli_pipeline):
        out = cli_pipeline["outputs"][0]["propose"]
        m = re.search(
            r"totals: lines=(\d+) parse_rejected=(\d+) stage1_rejected=(\d+) "
            r"mapped=(\d+) unclassified=(\d+) unique=(\d+)",
            out,
        )
        assert m, out
        lines, parse_rej, stage1_rej, mapped, unclassified, unique = map(int, m.groups())
        assert lines == parse_rej + stage1_rej + mapped
        assert unclassified <= mapped
        assert 1 <= unique <= mapped

    def test_checkpoints_written(self, cli_pipeline):
        run = cli_pipeline["run_dir"]
        assert (run / "checkpoints" / "rotate.bin").stat().st_size > 0
        params = json.loads((run / "checkpoints" / "params.json").read_text())
        assert "grandparent" in params
        block = params["grandparent"]
        assert set(block) >= {"alpha", "logits", "mix_logit", "rules", "w_emb"}
        weights = [r["weight"] for r in block["rules"]] + [block["w_emb"]]
        assert sum(weights) == pytest.approx(1.0, abs=1e-9)

    def test_grounding_cache_holds_c_of_each_grounded_rule(self, cli_pipeline):
        # the benchmark counts these entries after every build
        run = cli_pipeline["run_dir"]
        grounded = re.search(r"\((\d+) grounded rules\)", cli_pipeline["outputs"][0]["train"])
        data = cli_pipeline["data"]
        kb = load_kb(*(str(data / ("%s.txt" % split)) for split in ("train", "valid", "test")))
        learned = rules.load_rules(str(run / "rules" / "rules.jsonl"), kb)
        keys = [_cache_key(kb, r) + ".npz" for r in learned if r.case != rules.UNCLASSIFIED]
        assert len(set(keys)) == len(keys) == int(grounded.group(1)) > 0
        entries = sorted(p.name for p in (run / "groundings").iterdir())
        assert entries == sorted(keys)
        for name in entries:
            with np.load(str(run / "groundings" / name)) as z:
                assert sorted(z.files) == ["data", "indices", "indptr"]

    def test_metrics_reports_written(self, cli_pipeline):
        run = cli_pipeline["run_dir"]
        metrics = json.loads((run / "reports" / "metrics_test.json").read_text())
        assert metrics["queries"] == 2
        assert 0.0 < metrics["mrr"] <= 1.0
        text = (run / "reports" / "metrics_test.txt").read_text()
        assert "MRR" in text
        csv_lines = (run / "reports" / "metrics_test.csv").read_text().splitlines()
        assert csv_lines[0] == "metric,value"
        assert any(line.startswith("mrr,") for line in csv_lines)

    def test_toy_kb_is_solved(self, cli_pipeline):
        metrics = json.loads(
            (cli_pipeline["run_dir"] / "reports" / "metrics_test.json").read_text()
        )
        assert metrics["hits"]["1"] == 1.0  # chain closure is fully explained

    def test_train_trace_written(self, cli_pipeline):
        run = cli_pipeline["run_dir"]
        traces = json.loads((run / "reports" / "train_trace.json").read_text())
        assert set(traces) == {"parent", "grandparent"}
        assert traces["grandparent"]["loss"]


class TestDeterminism:
    def test_second_pass_is_byte_identical(self, cli_pipeline):
        snap_a, snap_b = cli_pipeline["snapshots"]
        keys_a = {k for k in snap_a if not k.startswith("groundings")}
        keys_b = {k for k in snap_b if not k.startswith("groundings")}
        assert keys_a == keys_b
        diffs = [k for k in keys_a if snap_a[k] != snap_b[k]]
        assert diffs == []

    def test_stdout_identical_across_passes(self, cli_pipeline):
        outputs_a, outputs_b = cli_pipeline["outputs"]
        assert outputs_a == outputs_b


class TestExplainAndResume:
    def test_explain_ranks_with_attributions(self, cli_pipeline):
        code, out = run_cli(
            ["--config", str(cli_pipeline["config"]), "explain", "e00", "grandparent", "--top", "3"]
        )
        assert code == 0
        assert "query: (e00, grandparent, ?)" in out
        first = out.splitlines()
        top = next(line for line in first if line.startswith(" 1. "))
        assert "e02" in top  # two chain steps from e00
        score = float(re.search(r"score=(-?\d+\.\d+)", top).group(1))
        contribs = [
            float(m.group(1))
            for m in re.finditer(r"^      ([+-]\d+\.\d+)  ", out, re.MULTILINE)
        ]
        # contributions printed under the top entry come first; the block for
        # one entry ends where the next "N." line starts
        per_entry = re.split(r"^ ?\d+\. ", out, flags=re.MULTILINE)[1:]
        top_contribs = [
            float(m.group(1))
            for m in re.finditer(r"([+-]\d+\.\d+)  \S", per_entry[0])
        ]
        assert top_contribs
        assert sum(top_contribs) == pytest.approx(score, abs=1e-4)
        assert "via (" in out  # witness path for the rule contribution

    def test_explain_unknown_entity_suggests_names(self, cli_pipeline, capsys):
        code = cli.main(
            ["--config", str(cli_pipeline["config"]), "explain", "e0", "grandparent"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown entity 'e0'" in err
        assert "nearest names:" in err
        assert "e00" in err

    def test_explain_unknown_relation_suggests_names(self, cli_pipeline, capsys):
        code = cli.main(
            ["--config", str(cli_pipeline["config"]), "explain", "e00", "grandma"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown relation 'grandma'" in err
        assert "grandparent" in err

    def test_unknown_relation_in_checkpoint_exits_cleanly(self, cli_pipeline, tmp_path, capsys):
        config, run = private_run(cli_pipeline, tmp_path)
        params = run / "checkpoints" / "params.json"
        doc = json.loads(params.read_text())
        doc["no_such_rel"] = doc.pop("grandparent")
        params.write_text(json.dumps(doc))
        code = cli.main(["--config", str(config), "explain", "e00", "grandparent"])
        assert code == 2
        err = capsys.readouterr().err
        assert "error: unknown relation 'no_such_rel'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda b: b.pop("logits"), "relation 'grandparent': missing key 'logits'"),
            (lambda b: b.update(mix_logit=None), "relation 'grandparent': 'mix_logit' must be a number"),
            (lambda b: b["logits"].pop(), "relation 'grandparent': %d logits for %d rules"),
            (lambda b: b["rules"][0].update(text="IF (A, parent, B) THEN (A, grandparent, B)"),
             "checkpoint rules for 'grandparent' do not match the rule file"),
            (lambda b: b["logits"].__setitem__(0, float("nan")), "relation 'grandparent': 'logits' must be finite"),
            (lambda b: b.update(mix_logit=float("-inf")), "relation 'grandparent': 'mix_logit' must be finite"),
        ],
        ids=["missing-key", "wrong-type", "short-logits", "changed-rule-text", "nan-logit", "inf-mix"],
    )
    @pytest.mark.parametrize("command", [["eval"], ["explain", "e00", "grandparent"]], ids=["eval", "explain"])
    def test_bad_checkpoint_exits_cleanly(self, cli_pipeline, tmp_path, capsys, command, edit, message):
        config, run = private_run(cli_pipeline, tmp_path)
        params = run / "checkpoints" / "params.json"
        doc = json.loads(params.read_text())
        block = doc["grandparent"]
        n_rules = len(block["rules"])
        edit(block)
        params.write_text(json.dumps(doc))
        code = cli.main(["--config", str(config)] + command)
        assert code == 2
        err = capsys.readouterr().err
        if "logits for" in message:
            message = message % (n_rules, n_rules)
        assert "error: " in err and message in err
        assert "Traceback" not in err

    def test_non_finite_embedding_exits_cleanly(self, cli_pipeline, tmp_path, capsys):
        config, run = private_run(cli_pipeline, tmp_path)
        path = run / "checkpoints" / "rotate.bin"
        data = bytearray(path.read_bytes())
        data[36:44] = np.array([np.nan], dtype="<f8").tobytes()  # first entity value
        path.write_bytes(bytes(data))
        code = cli.main(["--config", str(config), "explain", "e00", "grandparent"])
        assert code == 2
        err = capsys.readouterr().err
        assert "error: %s has a non-finite entity value" % path in err
        assert "Traceback" not in err

    def test_explain_negative_top_exits_cleanly(self, cli_pipeline, capsys):
        code = cli.main(
            ["--config", str(cli_pipeline["config"]), "explain", "e00", "grandparent", "--top=-1"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "error: top_k must be >= 0, got -1" in err
        assert "Traceback" not in err

    def test_rule_file_with_unknown_relation_id_exits_cleanly(self, tmp_path, capsys):
        path = minimal_config(tmp_path)
        rules_dir = tmp_path / cli.load_config(str(path)).run_dir() / "rules"
        rules_dir.mkdir(parents=True)
        record = {"text": "IF (A, parent, B) THEN (A, parent, B)", "relations": [0, 99], "case": "0-1"}
        (rules_dir / "rules.jsonl").write_text(json.dumps(record) + "\n")
        code = cli.main(["--config", str(path), "train"])
        assert code == 2
        err = capsys.readouterr().err
        assert "error: " in err and "rules.jsonl:1: bad rule record: relation id 99" in err
        assert "Traceback" not in err

    def test_resume_of_finished_run_builds_no_evidence(self, cli_pipeline, tmp_path, monkeypatch):
        config, run = private_run(cli_pipeline, tmp_path)
        params = run / "checkpoints" / "params.json"
        before = params.read_bytes()
        calls = []
        evidence = trainer._evidence
        monkeypatch.setattr(trainer, "_evidence", lambda *a, **k: calls.append(a) or evidence(*a, **k))
        code, out = run_cli(["--config", str(config), "train", "--resume"])
        assert code == 0
        assert "trained 0 relations" in out
        assert calls == []
        assert params.read_bytes() == before

    def test_resume_after_checkpoint_succeeds(self, cli_pipeline):
        code, out = run_cli(
            ["--config", str(cli_pipeline["config"]), "train", "--resume"]
        )
        assert code == 0
        assert "checkpoint" in out
