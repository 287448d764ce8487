"""Session fixtures shared between trainer tests and the acceptance gate."""

import contextlib
import io
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import loopback  # noqa: E402
import synthetic  # noqa: E402
from rulekbc import cli, evaluation, grounding, trainer  # noqa: E402

PLANTED_SEEDS = tuple(range(10))


@pytest.fixture(scope="session")
def planted_results():
    """Train learned vs equal weights on ten planted-rule KBs.

    Returns one record per seed with validation metrics for both modes plus the
    learned logits, and the wall time of the whole sweep.
    """
    records = []
    started = time.monotonic()
    for seed in PLANTED_SEEDS:
        kb, pool, planted_idx = synthetic.planted_kb(seed)
        groundings = grounding.ground_all(kb, pool)
        cfg = trainer.TrainerConfig(lr=0.1, max_epochs=300, patience=30)
        learned_params, _ = trainer.train(kb, groundings, None, cfg)
        uniform_cfg = trainer.TrainerConfig(
            lr=0.1, max_epochs=300, patience=30, uniform_weights=True
        )
        uniform_params, _ = trainer.train(kb, groundings, None, uniform_cfg)
        learned_report = evaluation.evaluate_model(learned_params, kb, groundings, None, split="valid")
        uniform_report = evaluation.evaluate_model(uniform_params, kb, groundings, None, split="valid")
        rel = kb.relations.id("grandparent")
        rp = learned_params[rel]
        records.append(
            {
                "seed": seed,
                "planted_idx": planted_idx,
                "rule_logits": list(rp.logits[: len(pool)]),
                "learned_hits1": learned_report.hits[1],
                "learned_mrr": learned_report.mrr,
                "uniform_mrr": uniform_report.mrr,
                "valid_queries": learned_report.query_count,
            }
        )
    elapsed = time.monotonic() - started
    return {"records": records, "elapsed": elapsed}


TOY_CONFIG = """\
[run]
seed = 7
output_dir = {out}

[kb]
train = {data}/train.txt
valid = {data}/valid.txt
test = {data}/test.txt

[extract]
max_subgraphs_per_relation = 20

[rotate]
dim = 8
negatives = 8
epochs = 15
lr = 0.05
batch_size = 32

[trainer]
lr = 0.05
patience = 10
max_epochs = 40
"""

PIPELINE_PASS = (
    ["extract"],
    ["propose"],
    ["rotate-train"],
    ["train"],
    ["eval", "--split", "test", "--emit-csv"],
)


def write_toy_dataset(directory: str) -> None:
    """Chain KB whose target relation is the two-step closure of the chain."""
    parent = [("e%02d" % i, "parent", "e%02d" % (i + 1)) for i in range(11)]
    gp = [("e%02d" % i, "grandparent", "e%02d" % (i + 2)) for i in range(10)]
    synthetic.write_kb_files(
        directory,
        triples={"train": parent + gp[:6], "valid": gp[6:8], "test": gp[8:]},
    )


def run_cli(argv):
    """Invoke the command line in-process, capturing stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def snapshot_tree(root: Path):
    """Relative path -> file bytes for every artifact under root."""
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


@pytest.fixture(scope="session")
def cli_pipeline(tmp_path_factory):
    """Run the full offline pipeline twice against one toy KB.

    Returns the run directory, per-command stdout of both passes, wall time of
    each pass, and byte snapshots taken after each pass for determinism checks.
    """
    base = tmp_path_factory.mktemp("cli")
    data = base / "data"
    write_toy_dataset(str(data))
    config = base / "pipeline.ini"
    config.write_text(TOY_CONFIG.format(out=base / "runs", data=data))

    def one_pass():
        outputs = {}
        started = time.monotonic()
        for argv in PIPELINE_PASS:
            code, out = run_cli(["--config", str(config)] + argv)
            assert code == 0, "%s failed:\n%s" % (argv[0], out)
            outputs[argv[0]] = out
        return outputs, time.monotonic() - started

    outputs_a, time_a = one_pass()
    run_dirs = [p for p in (base / "runs").iterdir() if p.is_dir()]
    assert len(run_dirs) == 1
    run_dir = run_dirs[0]
    snap_a = snapshot_tree(run_dir)
    outputs_b, time_b = one_pass()
    snap_b = snapshot_tree(run_dir)
    return {
        "base": base,
        "config": config,
        "data": data,
        "run_dir": run_dir,
        "outputs": (outputs_a, outputs_b),
        "times": (time_a, time_b),
        "snapshots": (snap_a, snap_b),
    }


@pytest.fixture
def without_proxies(monkeypatch):
    """urllib takes proxies from the environment, which would send a request
    for 127.0.0.1 to a proxy, so a test that connects runs without them."""
    for name in ("http_proxy", "https_proxy", "no_proxy"):
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)


@pytest.fixture
def chat_server(without_proxies):
    """start(*replies) serves a loopback chat endpoint until the test ends."""
    with contextlib.ExitStack() as stack:
        yield lambda *replies: stack.enter_context(loopback.ChatServer(replies))
