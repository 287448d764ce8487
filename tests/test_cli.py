"""Command-line pipeline: config handling, artifacts, determinism, explain."""

import json
import os
import re
import shutil
import socket
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import synthetic
from conftest import run_cli, snapshot_tree, write_toy_dataset
from loopback import ChatServer, completion
from rulekbc import cli, rules
from rulekbc.grounding import _cache_key, ground
from rulekbc.kb import load_kb
from rulekbc.settings import KBConfig


def minimal_config(tmp_path, extra="", triples=None):
    """A config over the toy KB, or over the KB of `triples` (split -> name
    triples) when given, with `extra` appended."""
    if triples is None:
        write_toy_dataset(str(tmp_path / "data"))
    else:
        synthetic.write_kb_files(str(tmp_path / "data"), triples=triples)
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


def config_with(tmp_path, section, key, value):
    """A minimal config with one setting added to its section, which may be
    one the minimal config has already."""
    path = minimal_config(tmp_path)
    header = "[%s]\n" % section
    text = path.read_text()
    text = text if header in text else text + header
    path.write_text(text.replace(header, "%s%s = %s\n" % (header, key, value), 1))
    return path


def readme_default_config() -> str:
    """README's "Default configuration" block, the one annotated default
    config."""
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        block = re.search(r"## Default configuration\n\n```ini\n(.*?)```", fh.read(), re.S)
    assert block is not None, "README has no Default configuration block"
    return block.group(1)


DEFAULT_CONFIG = readme_default_config()

# (section, key) of every bounded numeric setting -> (its first invalid
# value, the valid value next to it): one below an integer's least value,
# the float next to 0 on the wrong side, and infinity for a setting that
# must only be finite
BOUNDS = {
    ("run", "seed"): ("-1", "0"),
    ("extract", "max_hops"): ("0", "1"),
    ("extract", "max_neighbors_per_entity"): ("0", "1"),
    ("extract", "max_subgraphs_per_relation"): ("0", "1"),
    ("proposer", "request_timeout"): ("0", "5e-324"),
    ("proposer", "max_retries"): ("-1", "0"),
    ("proposer", "retry_backoff"): ("-5e-324", "0"),
    ("proposer", "temperature"): ("inf", "1e308"),
    ("rotate", "dim"): ("0", "1"),
    ("rotate", "margin"): ("-inf", "-1e308"),
    ("rotate", "negatives"): ("0", "1"),
    ("rotate", "epochs"): ("-1", "0"),
    ("rotate", "lr"): ("-5e-324", "0"),
    ("rotate", "batch_size"): ("0", "1"),
    ("trainer", "lr"): ("-5e-324", "0"),
    ("trainer", "weight_decay"): ("-5e-324", "0"),
    ("trainer", "step_size"): ("0", "1"),
    ("trainer", "step_gamma"): ("-5e-324", "0"),
    ("trainer", "patience"): ("0", "1"),
    ("trainer", "max_epochs"): ("-1", "0"),
}


def config_sections(text):
    """[(section header, its setting lines)] of a config, comments and blank
    lines dropped."""
    sections = []
    for line in text.splitlines():
        line = line.split(";")[0].strip()
        if line.startswith("["):
            sections.append((line, []))
        elif line and not line.startswith("#"):
            sections[-1][1].append(line)
    return sections


# every key of the default config, each set to a value other than its default
NON_DEFAULT_CONFIG = """
[run]
seed = 7
output_dir = elsewhere
[kb]
train = t.txt
valid =
test = s.txt
[extract]
max_hops = 2
max_neighbors_per_entity = 5
max_subgraphs_per_relation = 4
[proposer]
backend = remote-chat
endpoint = http://localhost:1/v1
model = m
request_timeout = 1.5
max_retries = 0
retry_backoff = 0.25
temperature = 0.7
api_key_env = KEY
[rotate]
dim = 8
margin = 4.5
negatives = 3
epochs = 2
lr = 0.01
batch_size = 16
enabled = false
[trainer]
lr = 0.05
weight_decay = 0.0
step_size = 7
step_gamma = 0.5
patience = 2
max_epochs = 9
uniform_weights = true
"""


# the toy KB's planted rule, as `propose` files it
CHAIN_RULE = "IF (A, parent, B) AND (B, parent, C) THEN (A, grandparent, C)"


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


def remote_propose(tmp_path, capsys, endpoint):
    """(exit code, stderr, proposal records or None if there is no record
    file, run directory) of `propose` with the remote backend at `endpoint`,
    after `extract`; neither may print a traceback."""
    path = minimal_config(
        tmp_path, extra="[proposer]\nbackend = remote-chat\nendpoint = %s\nmax_retries = 0\n" % endpoint
    )
    codes = [cli.main(["--config", str(path), stage]) for stage in ("extract", "propose")]
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if codes[0] != 0:
        return codes[0], err, None, None
    run = cli.load_config(str(path)).run_dir()
    records = os.path.join(run, "proposals", "records.jsonl")
    if not os.path.exists(records):
        return codes[-1], err, None, run
    with open(records, encoding="utf-8") as fh:
        return codes[-1], err, [json.loads(line) for line in fh], run


def assert_no_completion(code, err, records, run, endpoint):
    """`propose` stopped after the first relation, every one of whose
    subgraphs failed: exit 2, the failures recorded, no rule file."""
    assert code == 2 and records
    assert {r["relation"] for r in records} == {records[0]["relation"]}
    assert "error: no subgraph got a completion from %s; last error: %s" % (endpoint, records[-1]["error"]) in err
    assert not os.path.exists(os.path.join(run, "rules", "rules.jsonl"))


class TestRemoteProposer:
    def test_content_null_is_recorded(self, tmp_path, capsys, chat_server):
        server = chat_server(completion(None))
        code, err, records, run = remote_propose(tmp_path, capsys, server.url)
        assert_no_completion(code, err, records, run, server.url)
        assert all(r["error"].startswith("malformed completion payload") for r in records)
        assert len(server.received) == len(records)

    @pytest.mark.usefixtures("without_proxies")
    def test_refused_port_is_recorded(self, tmp_path, capsys):
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))  # bound, never listening: connections are refused
            endpoint = "http://127.0.0.1:%d/v1" % sock.getsockname()[1]
            code, err, records, run = remote_propose(tmp_path, capsys, endpoint)
        assert_no_completion(code, err, records, run, endpoint)
        assert all(r["error"].startswith("backend failed after 1 attempts") for r in records)

    def test_later_failures_do_not_stop_a_run_that_got_a_completion(self, tmp_path, capsys, chat_server):
        server = chat_server(completion(CHAIN_RULE), completion(None))  # the last reply repeats
        code, _, records, run = remote_propose(tmp_path, capsys, server.url)
        assert code == 0
        assert records[0]["error"] is None and all(r["error"] for r in records[1:])
        assert len({r["relation"] for r in records}) > 1
        assert os.path.exists(os.path.join(run, "rules", "rules.jsonl"))

    def test_rule_over_a_relation_named_with_parentheses_loads(self, tmp_path, capsys, chat_server):
        # the reply's "located in" maps onto `located in (country)`, so the
        # rule's text cannot be parsed back; its record is read from its case
        # and relation ids
        located = [("x%d" % i, "located in (country)", "c%d" % i) for i in range(6)]
        capital = [("x%d" % i, "capital of", "c%d" % i) for i in range(6)]
        server = chat_server(completion("IF (A, located in, B) THEN (A, capital of, B)"))
        path = minimal_config(
            tmp_path,
            extra="[rotate]\nenabled = false\n[proposer]\nbackend = remote-chat\nendpoint = %s\nmax_retries = 0\n"
            % server.url,
            triples={"train": located + capital[:4], "valid": capital[4:5], "test": capital[5:]},
        )
        for stage in ("extract", "propose", "train", "eval"):
            assert cli.main(["--config", str(path), stage]) == 0, capsys.readouterr().err
        rule_file = os.path.join(cli.load_config(str(path)).run_dir(), "rules", "rules.jsonl")
        with open(rule_file, encoding="utf-8") as fh:
            texts = [json.loads(line)["text"] for line in fh]
        assert texts == ["IF (A, located in (country), B) THEN (A, capital of, B)"]

    @pytest.mark.usefixtures("without_proxies")
    def test_failed_propose_removes_an_earlier_rule_file(self, tmp_path, capsys):
        with ChatServer([completion(CHAIN_RULE)]) as server:
            code, _, _, run = remote_propose(tmp_path, capsys, server.url)
        assert code == 0 and os.path.exists(os.path.join(run, "rules", "rules.jsonl"))
        # the server is stopped, so its port refuses every connection
        code, err, records, run = remote_propose(tmp_path, capsys, server.url)
        assert_no_completion(code, err, records, run, server.url)
        code = cli.main(["--config", str(tmp_path / "cfg.ini"), "train"])
        err = capsys.readouterr().err
        assert code == 2
        assert "error: no rule file at %s; run propose first" % os.path.join(run, "rules", "rules.jsonl") in err

    @pytest.mark.parametrize("endpoint", ["file:///etc/hostname", "ftp://example.com/x", "localhost:8000/v1", ""])
    def test_endpoint_that_is_not_http_exits_2(self, tmp_path, capsys, endpoint):
        code, err, _, _ = remote_propose(tmp_path, capsys, endpoint)
        assert code == 2
        assert "error: proposer.endpoint must be an http:// or https:// URL, got %r" % endpoint in err


class TestConfig:
    def test_example_config_is_loadable(self, tmp_path):
        path = tmp_path / "example.ini"
        path.write_text(DEFAULT_CONFIG)
        cfg = cli.load_config(str(path))
        assert cfg.run.seed == 0
        assert cfg.trainer.max_epochs == 500
        assert cfg.rotate.dim == 64
        assert cfg.extract.max_hops == 3
        assert cfg.proposer.backend == "offline-miner"

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(cli.CLIError, match="does not exist"):
            cli.load_config(str(tmp_path / "nope.ini"))

    def test_non_utf8_config_names_file_and_line(self, tmp_path, capsys):
        path = minimal_config(tmp_path)
        path.write_bytes(path.read_bytes() + b"# caf\xe9\n")
        line = len(path.read_bytes().splitlines())
        code = cli.main(["--config", str(path), "extract"])
        assert code == 2
        err = capsys.readouterr().err
        assert "error: %s:%d: not UTF-8 text: " % (path, line) in err
        assert "Traceback" not in err

    def test_config_that_cannot_be_parsed_exits_2(self, tmp_path, capsys):
        path = tmp_path / "cfg.ini"
        path.write_text("seed = 1\n[run]\n")  # a key before any section
        assert cli.main(["--config", str(path), "extract"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot parse %s: File contains no section headers." % path), err
        assert err.count("\n") == 1 and "line: 1" in err and "Traceback" not in err
        path.write_text("[run]\nnot a key\n")
        assert cli.main(["--config", str(path), "extract"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot parse %s: Source contains parsing errors" % path), err
        assert err.count("\n") == 1 and "[line  2]: 'not a key" in err and "Traceback" not in err

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
        with pytest.raises(ValueError, match=r"^config \[kb\] train path is required$"):
            cli.load_config(str(path))

    def test_unknown_similarity_provider_rejected(self, tmp_path, capsys):
        # relation names are matched by trigrams, which no setting selects
        path = minimal_config(tmp_path, extra="[similarity]\nprovider = trigram\n")
        assert cli.main(["--config", str(path), "extract"]) == 2
        err = capsys.readouterr().err
        assert "error: unknown config section [similarity]" in err
        assert "Traceback" not in err

    def test_seed_override_changes_run_dir(self, tmp_path):
        path = minimal_config(tmp_path)
        base = cli.load_config(str(path))
        path.write_text(path.read_text().replace("[run]\n", "[run]\nseed = 99\n"))
        other = cli.load_config(str(path))
        assert other.run.seed == 99
        assert base.hash() != other.hash()
        assert base.run_dir() != other.run_dir()

    def test_stage_seeds_are_distinct(self, tmp_path):
        cfg = cli.load_config(str(minimal_config(tmp_path)))
        assert cfg.extract.rng_seed != cfg.rotate.seed

    def test_hash_stable_across_loads(self, tmp_path):
        path = minimal_config(tmp_path)
        assert cli.load_config(str(path)).hash() == cli.load_config(str(path)).hash()

    @pytest.mark.parametrize(
        "text, digest",
        [(DEFAULT_CONFIG, "b1d77c9046b0"), ("[kb]\ntrain = t.txt\n", "63427a9cd8fa")],
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
        assert cfg.proposer.endpoint == ""
        assert cfg.proposer.model == ""  # a string setting takes the empty value
        assert cfg.kb.valid == ""
        assert ("kb.valid", "") in cfg.items and ("rotate.dim", "64") in cfg.items

    def test_negative_seed_names_the_setting(self, tmp_path, capsys):
        # the seed is set in the config only, where BOUNDS covers run.seed:
        # --seed is no option
        path = minimal_config(tmp_path)
        with pytest.raises(SystemExit) as exit_:
            cli.main(["--config", str(path), "extract", "--seed", "-1"])
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --seed -1" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("text", [DEFAULT_CONFIG, NON_DEFAULT_CONFIG], ids=["example", "non-default"])
    def test_items_are_the_section_settings(self, tmp_path, text):
        # one name per setting: cfg.<section>.<field> holds what
        # config.resolved and the run hash read
        def load(text):
            path = tmp_path / "cfg.ini"
            path.write_text(text)
            return cli.load_config(str(path))

        cfg = load(text)
        for name, value in cfg.items:
            section, key = name.split(".")
            assert value == str(getattr(getattr(cfg, section), key)), name
        defaults = dict(load(DEFAULT_CONFIG).items)
        same = {name for name, value in cfg.items if defaults[name] == value}
        assert same == (set(defaults) if text == DEFAULT_CONFIG else set())

    def test_each_key_is_its_field_name(self):
        # the sections are PipelineConfig's fields less `items`; a section's
        # INI keys are its settings' fields, less the stage seed that its
        # field's metadata marks
        sections = [s for s in fields(cli.PipelineConfig) if s.name != "items"]
        assert list(cli._KEYS) == [s.name for s in sections]
        stages = {}
        for section in sections:
            for f in fields(section.type):
                if "stage" in f.metadata:
                    stages["%s.%s" % (section.name, f.name)] = f.metadata["stage"]
                else:
                    assert f in cli._KEYS[section.name], (section.name, f.name)
        # each stage number picks a seed of the artifacts: changing one
        # would change every run's subgraphs or embeddings
        assert stages == {"extract.rng_seed": 1, "rotate.seed": 2}

    def test_readme_default_block_is_the_example(self, tmp_path):
        # every setting once, in load order, at its default; [kb] paths have
        # no default, so the block shows example paths
        path = tmp_path / "default.ini"
        path.write_text(DEFAULT_CONFIG)
        cfg = cli.load_config(str(path))
        named = [
            "%s.%s" % (header.strip("[]"), line.split("=")[0].strip())
            for header, lines in config_sections(DEFAULT_CONFIG)
            for line in lines
        ]
        assert named == ["%s.%s" % (section, f.name) for section, keys in cli._KEYS.items() for f in keys]
        for section, keys in cli._KEYS.items():
            if section != "kb":
                for f in keys:
                    assert getattr(getattr(cfg, section), f.name) == f.default, "%s.%s" % (section, f.name)
        assert cfg.kb == KBConfig("data/train.txt", "data/valid.txt", "data/test.txt")
        assert cfg.hash() == "b1d77c9046b0"

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_default_block_in_any_order_without_comments(self, tmp_path_factory, data):
        path = tmp_path_factory.getbasetemp() / "shuffled.ini"
        path.write_text(DEFAULT_CONFIG)
        expected = cli.load_config(str(path))
        shuffled = [
            "\n".join([header] + data.draw(st.permutations(lines)))
            for header, lines in data.draw(st.permutations(config_sections(DEFAULT_CONFIG)))
        ]
        path.write_text("\n".join(shuffled) + "\n")
        cfg = cli.load_config(str(path))
        assert cfg.items == expected.items
        assert cfg.hash() == expected.hash()


class TestArgumentErrors:
    def test_missing_config_flag(self):
        with pytest.raises(SystemExit):
            cli.main(["extract"])

    @pytest.mark.parametrize(
        "option, named",
        [
            (["--seed", "1"], "--seed"),
            (["--seed", "-1"], "--seed"),
            (["--seed=1"], "--seed=1"),
            (["--output-dir", "x"], "--output-dir"),
            (["--verbose"], "--verbose"),
            (["-x"], "-x"),
        ],
        ids=["seed", "negative-seed", "seed=1", "output-dir", "verbose", "short"],
    )
    @pytest.mark.parametrize("where", ["before-config", "after-config", "after-command"])
    def test_unknown_option_is_named_wherever_it_stands(self, tmp_path, capsys, option, named, where):
        config = ["--config", str(minimal_config(tmp_path))]
        argv = {
            "before-config": option + config + ["extract"],
            "after-config": config + option + ["extract"],
            "after-command": config + ["extract"] + option,
        }[where]
        with pytest.raises(SystemExit) as exit_:
            cli.main(argv)
        err = capsys.readouterr().err
        assert exit_.value.code == 2
        # after the subcommand, argparse names the option and its value
        expected = " ".join(option) if where == "after-command" else named
        assert "error: unrecognized arguments: %s\n" % expected in err
        assert "invalid choice" not in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [["--config={cfg}", "extract"], ["--conf", "{cfg}", "extract"]])
    def test_global_option_forms_are_accepted(self, tmp_path, argv):
        cfg = str(minimal_config(tmp_path))
        assert cli.main([a.format(cfg=cfg) for a in argv]) == 0

    def test_config_value_that_names_a_subcommand(self, tmp_path, monkeypatch):
        shutil.copy(str(minimal_config(tmp_path)), str(tmp_path / "extract"))
        monkeypatch.chdir(tmp_path)
        assert cli.main(["--config", "extract", "extract"]) == 0

    def test_unknown_split_choice(self, tmp_path):
        path = minimal_config(tmp_path)
        with pytest.raises(SystemExit):
            cli.main(["--config", str(path), "eval", "--split", "train"])

    def test_directory_as_config_is_named(self, tmp_path, capsys):
        code = cli.main(["--config", str(tmp_path), "extract"])
        assert code == 2
        err = capsys.readouterr().err
        assert "error: cannot read config file %s: " % tmp_path in err
        assert "train path is required" not in err and "Traceback" not in err

    def test_missing_config_points_at_the_readme(self, tmp_path, capsys):
        code = cli.main(["--config", str(tmp_path / "nope.ini"), "extract"])
        assert code == 2
        err = capsys.readouterr().err
        assert "does not exist (see README: Default configuration)" in err
        assert "config.example" not in err

    def test_missing_kb_file_exits_nonzero(self, tmp_path, capsys):
        path = tmp_path / "cfg.ini"
        path.write_text(
            "[run]\noutput_dir = %s\n[kb]\ntrain = %s\n"
            % (tmp_path / "runs", tmp_path / "absent.txt")
        )
        code = cli.main(["--config", str(path), "extract"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["extract", "train"])
    def test_run_dir_that_cannot_be_made_exits_2(self, tmp_path, capsys, command):
        # output_dir names a file, so the run directory cannot be made under it
        path = minimal_config(tmp_path)
        path.write_text(path.read_text().replace(str(tmp_path / "runs"), str(tmp_path / "data" / "train.txt")))
        code = cli.main(["--config", str(path), command])
        assert code == 2
        out, err = capsys.readouterr()
        assert "error: cannot write run directory %s: " % cli.load_config(str(path)).run_dir() in err
        assert "Traceback" not in err and out == ""

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

    @pytest.mark.parametrize(
        "section, key, command",
        [
            ("rotate", "lr", "rotate-train"),
            ("trainer", "lr", "train"),
            ("trainer", "weight_decay", "train"),
            ("trainer", "step_gamma", "train"),
        ],
    )
    def test_negative_learning_setting_exits_nonzero(self, tmp_path, capsys, section, key, command):
        path = minimal_config(tmp_path, extra="[%s]\n%s = -0.5\n" % (section, key))
        code = cli.main(["--config", str(path), command])
        assert code == 2
        err = capsys.readouterr().err
        assert "error: %s.%s must be >= 0, got -0.5" % (section, key) in err
        assert "Traceback" not in err
        # zero is a legal value
        path = minimal_config(tmp_path, extra="[%s]\n%s = 0\n" % (section, key))
        assert getattr(getattr(cli.load_config(str(path)), section), key) == 0.0

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("max_retries", "-1", "must be >= 0, got -1"),
            ("request_timeout", "0", "must be > 0, got 0.0"),
            ("request_timeout", "-1", "must be > 0, got -1.0"),
            ("request_timeout", "inf", "must be finite, got inf"),
            ("retry_backoff", "-0.5", "must be >= 0, got -0.5"),
            ("retry_backoff", "nan", "must be finite, got nan"),
            ("temperature", "-inf", "must be finite, got -inf"),
            # the longest waits that sockets and time.sleep take
            ("request_timeout", "1e10", "must be <= 9223372036.0, got 10000000000.0"),
            ("retry_backoff", "1e10", "* max_retries must be <= 9223372036.0, got 10000000000.0 * 2"),
            ("backend", "bogus", "must be 'offline-miner' or 'remote-chat', got 'bogus'"),
        ],
    )
    def test_invalid_proposer_setting_exits_nonzero(self, tmp_path, capsys, key, value, message):
        path = minimal_config(tmp_path, extra="[proposer]\n%s = %s\n" % (key, value))
        code = cli.main(["--config", str(path), "propose"])
        assert code == 2
        err = capsys.readouterr().err
        assert "error: proposer.%s %s" % (key, message) in err
        assert "Traceback" not in err

    def test_longest_wait_that_python_accepts_loads(self, tmp_path):
        # threading.TIMEOUT_MAX bounds both waits: a socket takes it as its
        # timeout, and refuses a little more, as time.sleep does
        extra = "[proposer]\nrequest_timeout = 9223372036.0\nmax_retries = 2\nretry_backoff = 4611686018.0\n"
        cfg = cli.load_config(str(minimal_config(tmp_path, extra=extra)))
        with socket.socket() as sock:
            sock.settimeout(cfg.proposer.request_timeout)
            with pytest.raises(OverflowError):
                sock.settimeout(cfg.proposer.request_timeout * 1.001)

    def test_every_numeric_stage_setting_is_bounded(self):
        numeric = {
            (section, f.name)
            for section, keys in cli._KEYS.items()
            for f in keys
            if f.type in (int, float)
        }
        assert set(BOUNDS) == numeric

    @pytest.mark.parametrize("section, key", sorted(BOUNDS), ids=["%s.%s" % k for k in sorted(BOUNDS)])
    def test_setting_at_its_first_invalid_value_exits_2(self, tmp_path, capsys, section, key):
        invalid, valid = BOUNDS[section, key]
        path = config_with(tmp_path, section, key, invalid)
        assert cli.main(["--config", str(path), "extract"]) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error: %s.%s must be " % (section, key)), line
        path = config_with(tmp_path, section, key, valid)
        assert getattr(getattr(cli.load_config(str(path)), section), key) == float(valid)

    # numpy refuses an array of petabytes or more before it touches memory,
    # so these runs allocate nothing; `train` trains the embeddings when
    # none exist. An array too big to size at all, as the negatives' buffer
    # at dim = 64, or a dimension beyond numpy's, is a ValueError instead
    @pytest.mark.parametrize(
        "rotate, numpy_text",
        [
            ({"dim": "1000000000000000"}, "Unable to allocate "),
            ({"negatives": "1000000000000000"}, "Unable to allocate "),
            ({"dim": "64", "negatives": "1000000000000000"}, "array is too big; "),
            ({"dim": "100000000000000000000"}, "Maximum allowed dimension exceeded"),
            ({"negatives": "100000000000000000000"}, "Maximum allowed dimension exceeded"),
        ],
        ids=["dim", "negatives", "negatives-at-dim-64", "dim-1e20", "negatives-1e20"],
    )
    @pytest.mark.parametrize("command", ["rotate-train", "train"])
    def test_allocation_that_cannot_succeed_exits_2(self, tmp_path, capsys, command, rotate, numpy_text):
        rotate = {"dim": "8", "epochs": "1", **rotate}
        path = minimal_config(tmp_path, extra="[rotate]\n" + "".join("%s = %s\n" % kv for kv in rotate.items()))
        for stage in ("extract", "propose"):
            assert run_cli(["--config", str(path), stage])[0] == 0
        capsys.readouterr()
        assert cli.main(["--config", str(path), command]) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error: " + numpy_text), line
        assert line.endswith("; lower [rotate] dim, negatives or batch_size"), line

    # the settings at which training used to write NaN or Infinity into
    # params.json or rotate.bin and exit 0, or end in a traceback. `train`
    # runs in a process of its own, so its stderr is what a user sees: the
    # error line alone, no numpy overflow warning before it
    @pytest.mark.parametrize(
        "settings, message",
        [
            ("[rotate]\nenabled = false\n[trainer]\nlr = 1e300\n", "lower [trainer] lr, weight_decay or step_gamma"),
            ("[rotate]\nenabled = false\n[trainer]\nlr = 1\nweight_decay = 1e308\n", "lower [trainer] lr, weight_decay or step_gamma"),
            # the decay factor's power is a Python float, which raises OverflowError
            ("[rotate]\nenabled = false\n[trainer]\nstep_size = 1\nstep_gamma = 1e200\n", "lower [trainer] lr, weight_decay or step_gamma"),
            ("[rotate]\ndim = 8\nepochs = 3\nmargin = 1e308\n", "lower [rotate] lr or margin"),
            ("[rotate]\ndim = 8\nepochs = 3\nlr = 1e300\n", "lower [rotate] lr or margin"),
        ],
        ids=["trainer-lr", "trainer-weight_decay", "trainer-step_gamma", "rotate-margin", "rotate-lr"],
    )
    def test_diverged_training_exits_2_and_writes_no_checkpoint(self, tmp_path, settings, message):
        path = minimal_config(tmp_path, extra=settings)
        for stage in ("extract", "propose"):
            assert run_cli(["--config", str(path), stage])[0] == 0
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
        got = subprocess.run(
            [sys.executable, "-m", "rulekbc.cli", "--config", str(path), "train"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert got.returncode == 2
        [line] = got.stderr.splitlines()
        assert re.match(r"error: (RotatE training|training of relation '\w+') diverged at epoch \d+: ", line), line
        assert line.endswith(message)
        run = tmp_path / cli.load_config(str(path)).run_dir()
        assert not (run / "checkpoints").exists() or not os.listdir(run / "checkpoints")
        assert not (run / "reports" / "train_trace.json").exists()

    def test_random_bytes_as_train_file_name_the_file(self, tmp_path, capsys):
        path = minimal_config(tmp_path)
        train = tmp_path / "data" / "train.txt"
        noise = np.random.default_rng(0).integers(0, 256, size=300, dtype=np.uint8).tobytes()
        train.write_bytes(b"\xeb" + noise[1:])
        code = cli.main(["--config", str(path), "extract"])
        assert code == 2
        err = capsys.readouterr().err
        assert "error: %s:" % train in err and "not UTF-8 text" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("split", ["train", "valid", "test"])
    def test_non_utf8_triple_line_is_named(self, tmp_path, capsys, split):
        path = minimal_config(tmp_path)
        data = tmp_path / "data" / ("%s.txt" % split)
        lines = data.read_bytes().splitlines(keepends=True)
        lines[1] = b"e00\tparent\t\xe9t\xe9\n"  # Latin-1, not UTF-8
        data.write_bytes(b"".join(lines))
        code = cli.main(["--config", str(path), "extract"])
        assert code == 2
        err = capsys.readouterr().err
        assert "error: %s:2: not UTF-8 text: " % data in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "field, value, message",
        [
            (1, b"x", "invalid literal for int() with base 10: 'x'"),
            (2, b"nobody", "unknown entity 'nobody'"),
            (5, b"junk", "malformed subgraph dump line "),
            (2, b"\xff", "not UTF-8 text: "),
        ],
        ids=["hop", "entity", "malformed", "utf8"],
    )
    def test_bad_subgraph_dump_line_is_named(self, tmp_path, capsys, field, value, message):
        path = minimal_config(tmp_path)
        code, _ = run_cli(["--config", str(path), "extract"])
        assert code == 0
        dump = tmp_path / cli.load_config(str(path)).run_dir() / "subgraphs" / "relation_000.txt"
        lines = dump.read_bytes().splitlines()
        line = next(i for i, raw in enumerate(lines, start=1) if raw.startswith(b"triple\t"))
        parts = lines[line - 1].split(b"\t")  # triple, hop, head, relation, tail
        parts[field : field + 1] = [value]  # field 5 appends a sixth, one too many
        lines[line - 1] = b"\t".join(parts)
        dump.write_bytes(b"\n".join(lines) + b"\n")
        code = cli.main(["--config", str(path), "propose"])
        assert code == 2
        err = capsys.readouterr().err
        assert "error: %s:%d: %s" % (dump, line, message) in err
        assert "Traceback" not in err


class TestRunner:
    @pytest.mark.parametrize(
        "command, handler, rotate, code, error",
        [
            (["extract"], cli.cmd_extract, "", 0, ""),
            (["propose"], cli.cmd_propose, "", 0, ""),
            (["rotate-train"], cli.cmd_rotate_train, "", 0, ""),
            (["train"], cli.cmd_train, "", 0, ""),
            (["eval"], cli.cmd_eval, "", 0, ""),
            (["explain", "e00", "grandparent"], cli.cmd_explain, "", 0, ""),
            (["rotate-train"], cli.cmd_rotate_train, "enabled = false\n", 2,
             "error: rotate.enabled is false; nothing to train\n"),
        ],
        ids=["extract", "propose", "rotate-train", "train", "eval", "explain", "rotate-train-off"],
    )
    def test_main_prepares_the_run_then_calls_the_handler(
        self, cli_pipeline, tmp_path, capsys, command, handler, rotate, code, error
    ):
        assert cli.build_arg_parser().parse_args(["--config", "cfg.ini"] + command).handler is handler
        config, _ = private_run(cli_pipeline, tmp_path)
        config.write_text(config.read_text().replace("[rotate]\n", "[rotate]\n" + rotate))
        assert cli.main(["--config", str(config)] + command) == code
        out, err = capsys.readouterr()
        assert out.startswith("run artifacts: %s\n" % cli.load_config(str(config)).run_dir())
        assert error in err and ("error:" in err) == bool(error)


class TestPipelineArtifacts:
    def test_train_counts_relations_stopped_after_epoch_1(self, tmp_path, cli_pipeline):
        # rules only: friend joins two entities no path joins, so no rule is
        # mined for it, and it has no validation query; its -loss is the same
        # at any weights
        path = minimal_config(tmp_path, extra="[rotate]\nenabled = false\n[trainer]\nmax_epochs = 20\n")
        with open(tmp_path / "data" / "train.txt", "a", encoding="utf-8") as fh:
            fh.write("x1\tfriend\tx2\n")
        for stage in ("extract", "propose"):
            assert run_cli(["--config", str(path), stage])[0] == 0
        code, out = run_cli(["--config", str(path), "train"])
        assert code == 0
        said = re.search(
            r"^trained 3 relations \(\d+ grounded rules; (\d+) stopped after epoch 1: "
            r"no parameter moves their stopping metric\); checkpoint: ",
            out,
            re.M,
        )
        assert said, out
        run = tmp_path / cli.load_config(str(path)).run_dir()
        params = json.loads((run / "checkpoints" / "params.json").read_text())
        assert params["friend"]["stopped"] and params["friend"]["epochs_trained"] == 1
        assert int(said.group(1)) == sum(b["stopped"] and b["epochs_trained"] == 1 for b in params.values())
        # with embeddings every weight moves the metric: the line has no count
        assert "stopped after epoch 1" not in cli_pipeline["outputs"][0]["train"]

    def test_run_dir_has_config_records(self, cli_pipeline):
        run = cli_pipeline["run_dir"]
        assert not (run / "config.example").exists()
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
        groundable = [r for r in learned if r.case != rules.UNCLASSIFIED]
        assert len(groundable) == int(grounded.group(1)) > 0
        # one entry for the whole rule set: C of every rule, stacked
        entries = [p.name for p in (run / "groundings").iterdir()]
        assert entries == [_cache_key(kb, groundable) + ".npy"]
        entry = np.load(str(run / "groundings" / entries[0]))
        assert entry.dtype == np.int64
        assert entry.shape == (3, sum(ground(kb, r).body_count.nnz for r in groundable))
        assert entry[0].max() < len(groundable) * kb.num_entities

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

    def test_train_rewrites_its_grounding_entry_byte_for_byte(self, cli_pipeline, tmp_path):
        config, run = private_run(cli_pipeline, tmp_path)
        entry = snapshot_tree(run / "groundings")
        assert len(entry) == 1
        shutil.rmtree(str(run / "groundings"))
        code, _ = run_cli(["--config", str(config), "train"])
        assert code == 0
        assert snapshot_tree(run / "groundings") == entry

    def test_config_resolved_is_rewritten_only_when_it_differs(self, tmp_path):
        cfg = cli.load_config(str(minimal_config(tmp_path)))
        path = os.path.join(cli._prepare_run_dir(cfg), "config.resolved")
        want = open(path, "rb").read()
        os.utime(path, ns=(0, 0))
        cli._prepare_run_dir(cfg)
        assert os.stat(path).st_mtime_ns == 0
        with open(path, "w") as fh:
            fh.write("stale\n")
        cli._prepare_run_dir(cfg)
        assert open(path, "rb").read() == want

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
        for command in (["eval"], ["explain", "e00", "grandparent"]):
            code = cli.main(["--config", str(config)] + command)
            assert code == 2
            err = capsys.readouterr().err
            assert "error: %s: relation 'no_such_rel' is not in the KB" % params in err
            assert "Traceback" not in err

    @pytest.mark.parametrize("relation", ["parent", "grandparent"])
    @pytest.mark.parametrize(
        "command",
        [["eval"], ["explain", "e00", "grandparent"]],
        ids=["eval", "explain"],
    )
    def test_checkpoint_without_a_relation_block_exits_cleanly(
        self, cli_pipeline, tmp_path, capsys, command, relation
    ):
        config, run = private_run(cli_pipeline, tmp_path)
        params = run / "checkpoints" / "params.json"
        doc = json.loads(params.read_text())
        del doc[relation]
        params.write_text(json.dumps(doc))
        code = cli.main(["--config", str(config)] + command)
        assert code == 2
        err = capsys.readouterr().err
        assert "error: %s: no block for relation %r" % (params, relation) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", [["eval"]], ids=["eval"])
    def test_negative_epoch_count_in_checkpoint_exits_cleanly(self, cli_pipeline, tmp_path, capsys, command):
        config, run = private_run(cli_pipeline, tmp_path)
        params = run / "checkpoints" / "params.json"
        doc = json.loads(params.read_text())
        doc["grandparent"]["epochs_trained"] = -7
        params.write_text(json.dumps(doc))
        code = cli.main(["--config", str(config)] + command)
        assert code == 2
        err = capsys.readouterr().err
        assert "error: %s: relation 'grandparent': 'epochs_trained' must be an integer >= 0" % params in err
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

    def test_corrupt_embedding_header_exits_cleanly(self, cli_pipeline, tmp_path, capsys):
        config, run = private_run(cli_pipeline, tmp_path)
        path = run / "checkpoints" / "rotate.bin"
        data = bytearray(path.read_bytes())
        data[4:28] = np.array([2**40, 2**20, 1], dtype="<i8").tobytes()  # dim, entities, relations
        path.write_bytes(bytes(data))
        code = cli.main(["--config", str(config), "eval"])
        assert code == 2
        err = capsys.readouterr().err
        assert "error: %s is truncated" % path in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda rec: [dict(rec, case="1-4")],
             "case 1-4 over relation ids [0, 0, 1] reads "
             "'IF (B, parent, A) AND (C, parent, B) THEN (A, grandparent, C)', not the text"),
            (lambda rec: [dict(rec, text="IF (B, parent, C) AND (A, parent, B) THEN (A, grandparent, C)")],
             "case 1-1 over relation ids [0, 0, 1] reads %r, not the text" % CHAIN_RULE),
            (lambda rec: [dict(rec, relations=[0, 1, 1])],
             "case 1-1 over relation ids [0, 1, 1] reads "
             "'IF (A, parent, B) AND (B, grandparent, C) THEN (A, grandparent, C)', not the text"),
            (lambda rec: [dict(rec, target_relation="parent")],
             "target_relation 'parent' is not the head relation 'grandparent'"),
            (lambda rec: [dict(rec, similarity="abc")], "similarity must be null or 3 finite numbers"),
            (lambda rec: [dict(rec, provenance="xyz")], "provenance must be a list of strings"),
            (lambda rec: [rec, rec], "repeats the rule of line {line}"),
        ],
        ids=["other-case", "swapped-body", "relation-ids", "target-relation", "similarity", "provenance",
             "repeated"],
    )
    def test_tampered_rule_record_is_named(self, cli_pipeline, tmp_path, capsys, edit, message):
        # every record is rebuilt and checked against its text on load, so a
        # warm grounding cache cannot hide an edited field or a second copy
        config, run = private_run(cli_pipeline, tmp_path)
        path = run / "rules" / "rules.jsonl"
        records = [json.loads(line) for line in path.read_text().splitlines()]
        line = next(i for i, rec in enumerate(records, start=1) if rec["text"] == CHAIN_RULE)
        assert records[line - 1]["relations"] == [0, 0, 1]
        # each edit gives the records that take the rule's place
        records[line - 1 : line] = edited = edit(records[line - 1])
        path.write_text("".join(json.dumps(rec, sort_keys=True) + "\n" for rec in records))
        code = cli.main(["--config", str(config), "train"])
        assert code == 2
        err = capsys.readouterr().err
        bad = line + len(edited) - 1  # the last of them is the one named
        assert "error: %s:%d: bad rule record: %s" % (path, bad, message.format(line=line)) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_bad_annotations_path_exits_before_any_report(self, cli_pipeline, tmp_path, capsys, kind):
        config, run = private_run(cli_pipeline, tmp_path)
        for old in (run / "reports").glob("metrics_test.*"):
            old.unlink()
        path = tmp_path / "annotations"
        if kind == "directory":
            path.mkdir()
        code = cli.main(["--config", str(config), "eval", "--rules-annotations", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "error: cannot open annotation file %s" % path in err
        assert "Traceback" not in err
        assert not list((run / "reports").glob("metrics_test.*"))

    def test_non_utf8_annotations_exit_before_any_report(self, cli_pipeline, tmp_path, capsys):
        config, run = private_run(cli_pipeline, tmp_path)
        for old in (run / "reports").glob("metrics_test.*"):
            old.unlink()
        path = tmp_path / "annotations.tsv"
        path.write_bytes(b"IF (A, parent, B) THEN (A, grandparent, B)\t1\n\xff\t0.5\n")
        code = cli.main(["--config", str(config), "eval", "--rules-annotations", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "error: %s:2: not UTF-8 text: " % path in err
        assert "Traceback" not in err
        assert not list((run / "reports").glob("metrics_test.*"))

    def test_non_utf8_rule_file_is_named(self, cli_pipeline, tmp_path, capsys):
        config, run = private_run(cli_pipeline, tmp_path)
        path = run / "rules" / "rules.jsonl"
        path.write_bytes(path.read_bytes() + b'{"text": "\xc3("}\n')
        line = len(path.read_bytes().splitlines())
        code = cli.main(["--config", str(config), "train"])
        assert code == 2
        err = capsys.readouterr().err
        assert "error: %s:%d: not UTF-8 text: " % (path, line) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "command, broken",
        [
            ("eval", "checkpoints/params.json"),
            ("eval", "checkpoints/rotate.bin"),
            ("eval", "reports"),
            ("train", "groundings"),
        ],
        ids=["params-directory", "rotate-directory", "reports-file", "groundings-file"],
    )
    def test_broken_run_directory_exits_cleanly(self, cli_pipeline, tmp_path, capsys, command, broken):
        # the artifact's file becomes a directory, its directory a file
        config, run = private_run(cli_pipeline, tmp_path)
        path = run / broken
        if path.is_dir():
            shutil.rmtree(str(path))
            path.write_text("")
        else:
            path.unlink()
            path.mkdir()
        code = cli.main(["--config", str(config), command])
        assert code == 2
        err = capsys.readouterr().err
        assert "error: " in err and "'%s'" % path in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", [["eval"], ["explain", "e00", "grandparent"]], ids=["eval", "explain"])
    def test_non_utf8_checkpoint_is_named(self, cli_pipeline, tmp_path, capsys, command):
        config, run = private_run(cli_pipeline, tmp_path)
        params = run / "checkpoints" / "params.json"
        params.write_bytes(params.read_bytes().replace(b"grandparent", b"grandp\xe4rent", 1))
        code = cli.main(["--config", str(config)] + command)
        assert code == 2
        err = capsys.readouterr().err
        assert "error: %s:" % params in err and "not UTF-8 text" in err
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
