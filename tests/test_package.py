"""Package surface: lazily resolved public names, and what each stage imports."""

import importlib
import os
import re
import subprocess
import sys
import textwrap

import pytest

import rulekbc
from conftest import TOY_CONFIG, write_toy_dataset
from rulekbc import proposer, rotate, settings, subgraph, trainer


class TestPublicNames:
    def test_every_name_resolves_to_its_submodule_object(self):
        for name in rulekbc.__all__:
            if name == "__version__":
                continue
            home = importlib.import_module("rulekbc." + rulekbc._MODULE_OF[name])
            assert getattr(rulekbc, name) is getattr(home, name), name

    def test_readme_import_line(self):
        # the `from rulekbc import (...)` statement of README's library snippet
        readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
        with open(readme, encoding="utf-8") as fh:
            block = re.search(r"## Library use\n\n```python\n(from rulekbc import \(.*?\))", fh.read(), re.S)
        assert block is not None, "README's library snippet has no rulekbc import"
        names = {}
        exec(block.group(1), names)
        del names["__builtins__"]
        assert {"TrainerConfig", "load_rules", "rank"} <= set(names)
        for name, value in names.items():
            assert value is getattr(rulekbc, name), name

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            rulekbc.no_such_name

    def test_configs_are_the_settings_classes(self):
        assert trainer.TrainerConfig is settings.TrainerConfig
        assert rotate.RotateConfig is settings.RotateConfig
        assert subgraph.ExtractorConfig is settings.ExtractorConfig
        assert proposer.ProposerConfig is settings.ProposerConfig
        assert proposer.ProposerError is settings.ProposerError


def test_offline_stages_load_no_scipy_or_http_client(tmp_path):
    """Every stage of the offline pipeline, run in one fresh process, and
    the reasoning modules themselves load no scipy; nor do they load the
    HTTP client, which only the remote proposer imports, when it posts."""
    write_toy_dataset(str(tmp_path / "data"))
    config = tmp_path / "cfg.ini"
    config.write_text(TOY_CONFIG.format(out=tmp_path / "runs", data=tmp_path / "data"))
    code = textwrap.dedent(
        """
        import sys
        import rulekbc.cli as cli
        from rulekbc import evaluation, grounding, rotate, trainer

        for stage in (
            ["extract"], ["propose"], ["rotate-train"], ["train"], ["eval"], ["explain", "e00", "grandparent"]
        ):
            assert cli.main(["--config", sys.argv[1]] + stage) == 0, stage
        print(sorted(m for m in ("scipy", "urllib.request", "http.client") if m in sys.modules))
        """
    )
    src = os.path.dirname(os.path.dirname(rulekbc.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    got = subprocess.run(
        [sys.executable, "-c", code, str(config)], env=env, capture_output=True, text=True, timeout=120
    )
    assert got.returncode == 0, got.stderr
    lines = got.stdout.splitlines()
    assert lines[-1] == "[]", got.stdout
    assert any(line.startswith("totals: ") and " mapped=0 " not in line for line in lines), got.stdout
    assert any(line.startswith(" 1. ") for line in lines), got.stdout  # explain ranked a tail


def test_reasoning_modules_load_no_proposer_or_subgraph():
    """Training and evaluation read rules already on disk: importing them,
    and the CLI that runs them, in a fresh process loads neither the rule
    proposer nor the extractor, nor `csv`, which only `eval --emit-csv`
    imports."""
    code = textwrap.dedent(
        """
        import sys
        from rulekbc import cli, evaluation, grounding, rotate, trainer

        print(sorted(m for m in ("rulekbc.proposer", "rulekbc.subgraph", "csv") if m in sys.modules))
        """
    )
    src = os.path.dirname(os.path.dirname(rulekbc.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    got = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert got.returncode == 0, got.stderr
    assert got.stdout.splitlines()[-1] == "[]", got.stdout
