"""Package surface: lazily resolved public names, and what each stage imports."""

import importlib
import os
import subprocess
import sys
import textwrap

import pytest

import rulekbc
from conftest import write_toy_dataset
from rulekbc import rotate, settings, trainer


class TestPublicNames:
    def test_every_name_resolves_to_its_submodule_object(self):
        for name in rulekbc.__all__:
            if name == "__version__":
                continue
            home = importlib.import_module("rulekbc." + rulekbc._MODULE_OF[name])
            assert getattr(rulekbc, name) is getattr(home, name), name

    def test_readme_import_line(self):
        from rulekbc import TrainerConfig, ground_all, load_kb, rank, train  # noqa: F401

        assert TrainerConfig is trainer.TrainerConfig
        assert rank is trainer.rank

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            rulekbc.no_such_name

    def test_configs_are_the_settings_classes(self):
        assert trainer.TrainerConfig is settings.TrainerConfig
        assert rotate.RotateConfig is settings.RotateConfig


def test_mining_stages_load_neither_scipy_nor_requests(tmp_path):
    """`extract` and `propose` run without scipy or requests; importing the
    trainer still loads scipy, so a set-up timed after that import (as in
    perfbench/query.py) does not pay for it."""
    write_toy_dataset(str(tmp_path / "data"))
    config = tmp_path / "cfg.ini"
    config.write_text(
        "[run]\noutput_dir = %s\n[kb]\ntrain = %s\n" % (tmp_path / "runs", tmp_path / "data" / "train.txt")
    )
    code = textwrap.dedent(
        """
        import sys
        import rulekbc.cli as cli

        for stage in ("extract", "propose"):
            assert cli.main(["--config", sys.argv[1], stage]) == 0, stage
        print(sorted(m for m in ("scipy", "requests") if m in sys.modules))
        import rulekbc.trainer

        print("scipy" in sys.modules)
        """
    )
    src = os.path.dirname(os.path.dirname(rulekbc.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    got = subprocess.run(
        [sys.executable, "-c", code, str(config)], env=env, capture_output=True, text=True, timeout=120
    )
    assert got.returncode == 0, got.stderr
    lines = got.stdout.splitlines()
    assert lines[-2:] == ["[]", "True"], got.stdout
    assert any(line.startswith("totals: ") and " mapped=0 " not in line for line in lines), got.stdout
