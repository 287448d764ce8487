"""Build-and-explain benchmark of rulekbc on generated knowledge bases.

usage: python3 perfbench/run.py --workload {dense,wide} --seed N --seconds S --trace {0,1}

Run it from the root of a rulekbc checkout; it imports the program from
./src and writes only under ./.bench_work. One run generates the workload's
KB from the seed, then runs the real CLI build stages one at a time, each in
a fresh process (extract, propose, rotate-train when embeddings are on,
train), each build followed by one more process (query.py) that times
the query phase's set-up, the whole sequence four times; after the last
build that process runs the full query phase. Wall time, CPU time and max
RSS of every child are read with os.wait4.

--trace 0 prints the end-to-end metrics. --trace 1 runs an untraced pass
with one build, then the whole pipeline again with timing wrappers
(tracing.py) and a fixed query count, and prints the per-layer metrics and
the tracing overhead. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Dict, List

import gen
import query
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
WORK_ROOT = ".bench_work"
DEADLINE_S = 170.0  # the whole run, both passes
DENSE_BUDGET_BYTES = 2 * 1024**3  # well under the 7 GB of the 2-core reference machine
BLAS_THREADS = "1"
ROUNDS = 4  # builds of a --trace 0 run; stage and set-up times are medians
TRACED_QUERIES = 200  # fixed, so traced call counts repeat exactly
COVERAGE_TOLERANCE = 0.01  # share of a traced process's wall time that spans may miss
# plus writing the spans, process exit and reaping, which no span in the
# process can cover: 3-13 ms for the sub-second stages on a 2-core VM
EXIT_ALLOWANCE_S = 0.02


@dataclass(frozen=True)
class Workload:
    shape: gen.Shape
    config: str  # INI sections appended to [run] and [kb]
    rotate: bool
    # extract + propose runs per round of the untraced pass: short stages
    # need more samples for a steady median on a machine whose speed wobbles
    mine_repeats: int


# Both configs set patience = max_epochs, so early stopping cannot make the
# trained work differ between seeds, and a learning rate at which the rule
# weights move within those epochs. Sampling many small subgraphs per relation
# keeps the number of mined rules steadier across seeds than a few large ones.
WORKLOADS = {
    # Rule-dense: many mined rules per relation over a small entity set, with
    # embeddings on. The trainer's dense (heads, rules, entities) tensor, the
    # per-head rotate.score_tails rows, RotatE training and witness-path search
    # are all on the critical path.
    "dense": Workload(
        shape=gen.Shape(
            entities=400,
            base_relations=5,
            derived_relations=9,
            base_out_degree=1.5,
            max_pairs=400,
            noise=0.05,
            valid_share=0.08,
            test_share=0.2,
        ),
        config="""
[extract]
max_subgraphs_per_relation = 30
max_neighbors_per_entity = 3

[rotate]
dim = 32
negatives = 32
epochs = 3
batch_size = 512

[trainer]
lr = 0.05
max_epochs = 20
patience = 20
""",
        rotate=True,
        mine_repeats=2,  # extract + propose take about 1.5 s here
    ),
    # Relation-wide: 100 relations with few rules each and embeddings off.
    # rotate is bypassed entirely; the time goes to costs paid per relation
    # and per rule (train_by_relation scans, trigram mapping of every rule
    # atom against every relation, kb_fingerprint hashes in the grounding
    # cache). An embedding change must read "no change" here.
    "wide": Workload(
        shape=gen.Shape(
            entities=600,
            base_relations=20,
            derived_relations=80,
            base_out_degree=0.3,
            max_pairs=80,
            noise=0.05,
            valid_share=0.08,
            test_share=0.15,
        ),
        config="""
[extract]
max_subgraphs_per_relation = 6
max_neighbors_per_entity = 3

[rotate]
enabled = false

[trainer]
lr = 0.05
max_epochs = 10
patience = 10
""",
        rotate=False,
        mine_repeats=1,  # propose alone takes about 2 s here
    ),
}


class BenchError(Exception):
    pass


class SkipWorkload(Exception):
    """The trainer's estimated allocation is over DENSE_BUDGET_BYTES."""

    def __init__(self, estimate: int):
        super().__init__(estimate)
        self.estimate = estimate


@dataclass
class Child:
    wall_s: float
    cpu_s: float  # user + system time of the child
    rss_mb: float
    code: int
    stdout: str
    stderr: str

    @property
    def ok(self) -> bool:
        return self.code == 0 and "Traceback (most recent call last)" not in self.stderr


def run_child(cmd: List[str], env: Dict[str, str], log: str, deadline: float) -> Child:
    """Run one process to completion; wall time and max RSS from os.wait4."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time budget spent before %s" % " ".join(cmd[1:3]))
    with open(log + ".out", "w") as out, open(log + ".err", "w") as err:
        t0 = time.perf_counter()
        env = dict(env, **{tracing.START_ENV: repr(t0)})
        proc = subprocess.Popen(cmd, env=env, stdout=out, stderr=err, stdin=subprocess.DEVNULL)
        killer = threading.Timer(remaining, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4 above
    with open(log + ".out") as fh:
        stdout = fh.read()
    with open(log + ".err") as fh:
        stderr = fh.read()
    cpu = usage.ru_utime + usage.ru_stime
    return Child(wall, cpu, usage.ru_maxrss / 1024.0, proc.returncode, stdout, stderr)


def child_env(root: str) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(root, "src"), env.get("PYTHONPATH")) if p
    )
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def write_config(work: str, wl: Workload, paths: Dict[str, str]) -> str:
    cfg = os.path.join(work, "pipeline.ini")
    with open(cfg, "w", encoding="utf-8") as fh:
        fh.write(
            "[run]\nseed = 0\noutput_dir = %s\n\n[kb]\ntrain = %s\nvalid = %s\ntest = %s\n%s"
            % (os.path.join(work, "runs"), paths["train"], paths["valid"], paths["test"], wl.config)
        )
    return cfg


def run_dir(work: str) -> str:
    found = os.listdir(os.path.join(work, "runs"))
    if len(found) != 1:
        raise BenchError("expected one run directory, found %r" % found)
    return os.path.join(work, "runs", found[0])


def artifact_digest(run: str) -> str:
    """sha256 over the relative path and bytes of every artifact but groundings/."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(run):
        dirnames[:] = sorted(d for d in dirnames if not (dirpath == run and d == "groundings"))
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, run).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def dense_bytes(splits: Dict[str, gen.Triples], rules_path: str) -> int:
    """The trainer's largest per-relation allocation, computed from array sizes:
    8 bytes x train heads x (grounded rules + 2) x entities."""
    entities = {e for rows in splits.values() for h, _, t in rows for e in (h, t)}
    heads: Dict[str, set] = {}
    for h, r, _ in splits["train"]:
        heads.setdefault(r, set()).add(h)
    rules: Dict[str, int] = {}
    with open(rules_path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            if rec["case"] != "UNCLASSIFIED":
                rules[rec["target_relation"]] = rules.get(rec["target_relation"], 0) + 1
    return max(8 * len(hs) * (rules.get(r, 0) + 2) * len(entities) for r, hs in heads.items())


def propose_totals(stdout: str) -> Dict[str, int]:
    for line in stdout.splitlines():
        if line.startswith("totals:"):
            return {k: int(v) for k, v in (kv.split("=") for kv in line.split()[1:])}
    raise BenchError("propose printed no totals line")


class Pass:
    """One trip through the build stages and the query phase."""

    def __init__(self, args, wl: Workload, work: str, cfg: str, splits, traced: bool, rounds: int,
                 deadline: float):
        self.args, self.wl, self.work, self.cfg, self.splits = args, wl, work, cfg, splits
        self.traced, self.rounds, self.deadline = traced, rounds, deadline
        self.env = child_env(os.getcwd())
        self.stages: Dict[str, List[Child]] = {}
        self.attempted = self.failed = 0
        self.failures: List[str] = []
        self.span_files: Dict[str, str] = {}
        self.setups: List[dict] = []  # one result per query.py process, set-up only or not
        self.query: dict = {}  # the full query phase: work, explain latencies, eval, MRR
        self.totals: Dict[str, int] = {}
        self.dense_bytes = 0
        self.digest = ""
        self.cache_files = 0

    def _log(self, name: str) -> str:
        return os.path.join(self.work, "%s%s" % ("traced-" if self.traced else "", name))

    def _fail(self, message: str) -> None:
        self.failed += 1
        self.failures.append(message)

    def _child(self, name: str, cmd: List[str]) -> Child:
        child = run_child(cmd, self.env, self._log(name), self.deadline)
        self.stages.setdefault(name, []).append(child)
        self.attempted += 1
        if not child.ok:
            self.failed += 1
            raise BenchError("%s exited %d: %s" % (name, child.code, child.stderr[-2000:]))
        return child

    def _stage(self, name: str) -> Child:
        """Run one build stage in a fresh process."""
        cli_args = ["--config", self.cfg, name]
        if self.traced:
            spans = self._log(name) + ".spans.json"
            self.span_files[name] = spans
            cmd = [sys.executable, os.path.join(HERE, "stage.py"), spans, name, "--"] + cli_args
        else:
            cmd = [sys.executable, "-m", "rulekbc.cli"] + cli_args
        return self._child(name, cmd)

    def _query(self, setup_only: bool) -> dict:
        """One query.py process on the warm grounding cache: the set-up alone,
        or the set-up, the explain loop and the eval."""
        name = "setup" if setup_only else "query"
        out = self._log(name) + ".json"
        cmd = [sys.executable, os.path.join(HERE, "query.py"), "--config", self.cfg,
               "--out", out, "--seed", str(self.args.seed)]
        if setup_only:
            cmd += ["--setup-only"]
        elif self.traced:
            self.span_files[name] = self._log(name) + ".spans.json"
            cmd += ["--queries", str(TRACED_QUERIES), "--trace-out", self.span_files[name]]
        else:
            cmd += ["--seconds", repr(float(self.args.seconds))]
        self._child(name, cmd)
        with open(out, encoding="utf-8") as fh:
            q = json.load(fh)
        self.setups.append(q)
        self.attempted += q["attempted"]
        self.failed += q["failed"]
        self.failures += q["failures"]
        return q

    def run(self) -> None:
        # The whole build and a query.py process run `rounds` times, so the
        # runs of one stage and the set-ups are spread over the pass and a
        # slow spell of a shared machine hits few of them. The last query.py
        # process runs the full query phase, the others only the set-up.
        for rep in range(self.rounds):
            for _ in range(1 if self.traced else self.wl.mine_repeats):
                self._stage("extract")
                self.totals = propose_totals(self._stage("propose").stdout)
            if self.wl.rotate:
                self._stage("rotate-train")
            run = run_dir(self.work)
            if rep == 0:
                self.dense_bytes = dense_bytes(self.splits, os.path.join(run, "rules", "rules.jsonl"))
                if self.dense_bytes > DENSE_BUDGET_BYTES:
                    raise SkipWorkload(self.dense_bytes)
            shutil.rmtree(os.path.join(run, "groundings"), ignore_errors=True)  # train starts cold
            self._stage("train")
            digest = artifact_digest(run)
            if rep:
                self.attempted += 1
                if digest != self.digest:
                    self._fail("build reruns left different artifacts")
            self.digest = digest
            self.cache_files = len(os.listdir(os.path.join(run, "groundings")))
            if rep < self.rounds - 1:
                self._query(setup_only=True)
        self.query = self._query(setup_only=False)
        self.attempted += 1
        if any(q["work"] != self.query["work"] for q in self.setups):
            self._fail("query phases loaded different groundings from the same cache")

    @property
    def build_stages(self) -> List[str]:
        return [s for s in ("extract", "propose", "rotate-train", "train") if s in self.stages]

    def wall_s(self, stage: str) -> float:
        """Median wall time over the runs of one stage."""
        return statistics.median(c.wall_s for c in self.stages[stage])

    def rss_mb(self, stage: str) -> float:
        return max(c.rss_mb for c in self.stages[stage])

    def setup_s(self) -> float:
        """Median set-up over every query.py process of the pass."""
        return statistics.median(q["setup_s"] for q in self.setups)

    def explain_ms(self, pct: float) -> float:
        """Percentile of the explain latency of the full query phase."""
        return query.percentile(self.query["latencies_ms"], pct)

    def end_to_end(self) -> Dict[str, float]:
        return {
            "setup_s": self.setup_s(),
            "build_s": sum(self.wall_s(s) for s in self.build_stages),
            "mine_s": self.wall_s("extract") + self.wall_s("propose"),
            "train_s": self.wall_s("train"),
            "peak_rss_mb": max(self.rss_mb(s) for s in self.stages),
        }

    def eval_qps(self) -> float:
        """Test queries per second of the full query phase's evaluate_model."""
        return self.query["eval_queries"] / self.query["eval_s"]


# per-layer metric -> (traced function name, field); fields are calls or self_s
SPAN_METRICS = {
    "kb.load_kb.self_s": ("kb.load_kb", "self_s"),
    "kb.kb_fingerprint.calls": ("kb.kb_fingerprint", "calls"),
    "kb.kb_fingerprint.self_s": ("kb.kb_fingerprint", "self_s"),
    "kb.train_by_relation.calls": ("kb.KnowledgeBase.train_by_relation", "calls"),
    "kb.train_by_relation.self_s": ("kb.KnowledgeBase.train_by_relation", "self_s"),
    "subgraph.extract_subgraph.calls": ("subgraph.extract_subgraph", "calls"),
    "subgraph.extract_subgraph.self_s": ("subgraph.extract_subgraph", "self_s"),
    "proposer.propose.self_s": ("proposer.propose", "self_s"),
    "rules.map_relations.calls": ("rules.map_relations", "calls"),
    "rules.map_relations.self_s": ("rules.map_relations", "self_s"),
    "grounding.ground.calls": ("grounding.ground", "calls"),
    "grounding.ground.self_s": ("grounding.ground", "self_s"),
    "grounding.witness_paths.calls": ("grounding.witness_paths", "calls"),
    "grounding.witness_paths.self_s": ("grounding.witness_paths", "self_s"),
    "rotate.loss_and_grad.calls": ("rotate.loss_and_grad", "calls"),
    "rotate.loss_and_grad.self_s": ("rotate.loss_and_grad", "self_s"),
    "rotate.score_tails.calls": ("rotate.score_tails", "calls"),
    "rotate.score_tails.self_s": ("rotate.score_tails", "self_s"),
    "trainer.train.self_s": ("trainer.train", "self_s"),
    "trainer.relation_loss_and_grads.calls": ("trainer.relation_loss_and_grads", "calls"),
    "trainer.relation_loss_and_grads.self_s": ("trainer.relation_loss_and_grads", "self_s"),
    "trainer.rank.calls": ("trainer.rank", "calls"),
    "trainer.rank.self_s": ("trainer.rank", "self_s"),
    "evaluation.evaluate_model.self_s": ("evaluation.evaluate_model", "self_s"),
}
COUNT_METRICS = {
    "rules.similarity.calls": "rules.TrigramSimilarity.score",
    "grounding.score_row.calls": "grounding.score_row",
    "grounding.support_row.calls": "grounding.support_row",
    "kb.SparseMatrix.row.calls": "kb.SparseMatrix.row",
}
CLI_STAGES = ("extract", "propose", "rotate-train", "train", "query")


def per_layer(plain: Pass, traced: Pass) -> Dict[str, float]:
    """Per-layer metrics of the traced pass, plus its overhead over the plain one."""
    totals: Dict[str, Dict[str, float]] = {}
    counts: Dict[str, int] = {}
    per_stage: Dict[str, Dict[str, Dict[str, float]]] = {}
    n_spans = 0
    for stage, path in traced.span_files.items():
        spans, stage_counts = tracing.load(path)
        n_spans += len(spans)
        agg = tracing.aggregate(spans)
        per_stage[stage] = agg
        for name, a in agg.items():
            t = totals.setdefault(name, {"calls": 0, "self_s": 0.0})
            t["calls"] += a["calls"]
            t["self_s"] += a["self_s"]
        for name, c in stage_counts.items():
            counts[name] = counts.get(name, 0) + c
        # the spans must account for the process's whole wall time from os.wait4
        own, wall = sum(tracing.self_times(spans)), traced.stages[stage][0].wall_s
        if abs(wall - own) > COVERAGE_TOLERANCE * wall + EXIT_ALLOWANCE_S:
            traced._fail("%s: span self times sum to %.4fs, its wall time is %.4fs" % (stage, own, wall))
    traced.attempted += len(traced.span_files)

    m: Dict[str, float] = {}
    for metric, (name, field) in SPAN_METRICS.items():
        m[metric] = totals.get(name, {}).get(field, 0)
    for metric, name in COUNT_METRICS.items():
        m[metric] = counts.get(name, 0)
    fp = "kb.kb_fingerprint"
    grounded = traced.query["work"]["grounded_rules"]
    setups = len(traced.setups)
    m["kb.kb_fingerprint.train_calls"] = per_stage["train"].get(fp, {}).get("calls", 0)
    query_calls = per_stage["query"].get(fp, {}).get("calls", 0)
    # every set-up loads the same files, so one set-up's share is exact
    m["kb.kb_fingerprint.setup_calls"] = query_calls / setups
    m["proposer.lines"] = traced.totals["lines"]
    m["rules.unique_ratio"] = traced.totals["unique"] / traced.totals["mapped"]
    grounds = m["grounding.ground.calls"]
    m["grounding.cache_hit_ratio"] = (grounds - traced.cache_files) / grounds if grounds else 0.0
    m["grounding.grounded_rules"] = grounded
    m["grounding.body_nnz"] = traced.query["work"]["grounding_body_nnz"]
    m["grounding.witness_paths.found"] = traced.query["witness_paths_found"]
    m["trainer.dense_bytes"] = traced.dense_bytes
    m["evaluation.test_mrr"] = traced.query["test_mrr"]
    m["evaluation.eval_qps"] = plain.eval_qps()
    m["query.explain_p50_ms"] = plain.explain_ms(50)
    m["query.explain_p95_ms"] = plain.explain_ms(95)
    for stage in CLI_STAGES:
        ran = stage in plain.stages
        m["cli.%s.wall_s" % stage] = plain.wall_s(stage) if ran else 0.0
        m["cli.%s.peak_rss_mb" % stage] = plain.rss_mb(stage) if ran else 0.0
    plain_build = sum(plain.wall_s(s) for s in plain.build_stages)
    traced_build = sum(traced.wall_s(s) for s in traced.build_stages)
    m["trace.build_overhead_s"] = traced_build - plain_build
    m["trace.build_overhead_ratio"] = traced_build / plain_build - 1.0
    m["trace.setup_overhead_s"] = traced.setup_s() - plain.setup_s()
    m["trace.spans"] = n_spans

    # Counts that pin the current behaviour. This code meets the kb_fingerprint
    # pins with equality; they are upper bounds, so a change that hashes the
    # KB less often is not counted as failed, while extra hashing is.
    pins = {
        "kb_fingerprint calls in train <= 2 x grounded rules": m["kb.kb_fingerprint.train_calls"] <= 2 * grounded,
        "kb_fingerprint calls per set-up <= grounded rules": query_calls <= setups * grounded,
    }
    if not traced.wl.rotate:
        pins["no rotate calls with embeddings off"] = (
            m["rotate.score_tails.calls"] == m["rotate.loss_and_grad.calls"] == 0
        )
    traced.attempted += len(pins)
    for what, held in pins.items():
        if not held:
            traced._fail("pinned count broken: " + what)
    return m


def metric_units(root: str, kind: str) -> Dict[str, str]:
    """name -> unit of the end_to_end or per_layer metrics in BENCHMARK.json."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def provenance(root: str) -> dict:
    import numpy
    import scipy

    sha = None
    if os.path.isdir(os.path.join(root, ".git")):
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        sha = got.stdout.strip() if got.returncode == 0 else None
    src = hashlib.sha256()
    pkg = os.path.join(root, "src", "rulekbc")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read())
    return {
        "git_sha": sha or "unavailable (not a git checkout)",
        "source_sha256": src.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "stages": "one process at a time",
        "not_controlled": "CPUs are not pinned and the page cache is not dropped, "
        "so no cold-cache numbers are reported",
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="rulekbc build-and-explain benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True, help="length of the explain loop")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    for need in (os.path.join("src", "rulekbc", "cli.py"), "BENCHMARK.json"):
        if not os.path.isfile(os.path.join(root, need)):
            print("error: run from the root of a rulekbc checkout (no %s here)" % need, file=sys.stderr)
            return 2
    deadline = time.monotonic() + DEADLINE_S
    wl = WORKLOADS[args.workload]
    work = os.path.join(WORK_ROOT, "%s-%d" % (args.workload, args.seed))
    shutil.rmtree(work, ignore_errors=True)
    splits = gen.generate(wl.shape, args.seed)
    paths = gen.write_kb(os.path.join(work, "data"), splits)
    cfg = write_config(work, wl, paths)
    print("provenance: %s" % json.dumps(provenance(root), sort_keys=True))

    passes: List[Pass] = []
    metrics: Dict[str, float] = {}
    correct = False
    try:
        # a traced run needs the untraced pass only for the overhead and the
        # cli.* metrics, which have no bound, so it builds once
        plain = Pass(args, wl, work, cfg, splits, traced=False, rounds=1 if args.trace else ROUNDS,
                     deadline=deadline)
        passes.append(plain)
        plain.run()
        e2e = plain.end_to_end()
        print("work: %s" % json.dumps(dict(plain.query["work"], rules_mined=plain.totals["lines"],
                                               rules_unique=plain.totals["unique"]), sort_keys=True))
        print("artifact digest: %s" % plain.digest)
        for stage, children in plain.stages.items():
            print("%s wall/cpu s: %s" % (stage, " ".join("%.3f/%.3f" % (c.wall_s, c.cpu_s) for c in children)))
        print("setup_s: %s" % " ".join("%.3f" % q["setup_s"] for q in plain.setups))
        print("explain: p50 %.4f ms, p95 %.4f ms over %d queries" % (
            plain.explain_ms(50), plain.explain_ms(95), len(plain.query["latencies_ms"])))
        print("test_mrr: %r" % plain.query["test_mrr"])
        print("eval_qps: %.1f queries/s" % plain.eval_qps())
        if args.trace:
            shutil.rmtree(os.path.join(work, "runs"))
            traced = Pass(args, wl, work, cfg, splits, traced=True, rounds=1, deadline=deadline)
            passes.append(traced)
            traced.run()
            metrics = per_layer(plain, traced)
            traced.attempted += 2
            if traced.query["test_mrr"] != plain.query["test_mrr"]:
                traced._fail("test_mrr differs between the traced and untraced passes")
            if traced.digest != plain.digest:
                traced._fail("artifact digest differs between the traced and untraced passes")
        else:
            metrics = e2e
        correct = True
    except SkipWorkload as skip:
        print("workload skipped: trainer.dense_bytes=%d exceeds the budget of %d bytes"
              % (skip.estimate, DENSE_BUDGET_BYTES))
        return 3
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    for p in passes:
        for msg in p.failures[:10]:
            print("failed: %s" % msg, file=sys.stderr)
    units = metric_units(root, "per_layer" if args.trace else "end_to_end")
    if correct and set(metrics) != set(units):
        failed += 1
        print("error: metrics differ from BENCHMARK.json: %s" % sorted(set(metrics) ^ set(units)), file=sys.stderr)
    correct = correct and failed == 0
    for name in sorted(metrics):
        print("%-40s %.6g %s" % (name, metrics[name], units.get(name, "")))
    if correct:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units.get(k, "")} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
