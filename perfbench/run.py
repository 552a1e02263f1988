"""The scdr benchmark: per-stage wall time of the CLI pipeline, and a traced breakdown.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload desk --seed 1 --seconds 30 --trace 0

Each stage runs as a user runs it: ``scdr.cli.main(argv)`` in a fresh
child process (``stage.py``), one at a time, with BLAS pinned to one
thread. Fresh processes keep heap and garbage-collector state from
leaking between stages. ``synth`` is the set-up: it runs several times and
``setup_s`` is its median. The nine later stages then run once as a
pipeline; after that, stages run again (with ``--force``), pass after pass,
shortest first, while their estimated wall times (``WALL_ESTIMATE_S`` in
``workloads.py``) still fit in ``--seconds``, so that short stages collect
several samples. The plan never depends on measured times: a workload, seed
and ``--seconds`` always make the same invocations. Stage times are medians
over their samples; ``pipeline_s`` is the median over the passes that ran
every stage.

Each sample is the stage's wall time scaled by the speed probe that runs
beside it (``stage.py``): on a shared machine the processor's speed swings
by 1.5x within seconds, which repeats alone do not average out. peak RSS
and ``mae_scdr`` (the cold-start MAE in ``eval_scdr.json``) are read as is.

Every stage invocation is one operation. It fails when it exits non-zero,
or when a file that changed in its run directory differs (sha256) from the
same stage's output on an earlier repeat of the same workload, seed and
program sources, in this run or in an earlier one. A failed invocation is not a timing sample; a stage
that failed every time is timed on its failed invocations and flagged.

``--trace 1`` runs one untraced pipeline and then a traced one (set-up
included) and reports the per-layer metrics of ``BENCHMARK.json`` instead
of the end-to-end ones. ``trace.overhead_s`` is the traced ``pipeline_s``
minus the untraced one.

Working files go to ``.perfbench_runs/`` in the checkout: a ``report.json``
per workload and seed with machine facts, stage table, exit codes and the
run-directory digests; span files of the last traced run; and the
reference digests. Standard output ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from spans import span_totals  # noqa: E402
from stage import PROBE_REF_S  # noqa: E402
from workloads import (PIPELINE_STAGES, PREDICTIONS, SETUP_STAGE, WALL_ESTIMATE_S,  # noqa: E402
                       WORKLOADS, stage_configs)

ROOT = Path(__file__).resolve().parent.parent
STAGE_PY = Path(__file__).resolve().parent / "stage.py"
WORK = ROOT / ".perfbench_runs"
SETUP_REPEATS = 5
BLAS_THREADS = "1"
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# a run must end within 180 s; stages still running at this point are killed
RUN_DEADLINE_S = 170.0
MODULES = ("cli", "data", "factorization", "perturbation", "mapping", "analysis")


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Invocation:
    """One stage process: its wall time, exit code, peak RSS and the files it wrote.

    ``speed`` is the speed probe's mean speed of the process, relative to
    the reference speed of ``stage.PROBE_REF_S``.
    """

    stage: str
    wall_s: float
    speed: float
    exit_code: int
    maxrss_kb: int
    cpu_s: float = 0.0
    digests: dict[str, str] = field(default_factory=dict)
    mismatched: list[str] = field(default_factory=list)

    @property
    def time_s(self) -> float:
        """Wall time scaled to the reference processor speed."""
        return self.wall_s * self.speed

    @property
    def failed(self) -> bool:
        return self.exit_code != 0 or bool(self.mismatched)


@dataclass
class Pipeline:
    run_dir: Path
    invocations: list[Invocation]

    @property
    def complete(self) -> bool:
        return len(self.invocations) == len(PIPELINE_STAGES)

    @property
    def time_s(self) -> float:
        return sum(inv.time_s for inv in self.invocations)


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def snapshot(run_dir: Path) -> dict[str, tuple[int, int]]:
    if not run_dir.exists():
        return {}
    return {p.name: (p.stat().st_size, p.stat().st_mtime_ns)
            for p in run_dir.iterdir() if p.is_file()}


def digest_dir(run_dir: Path) -> dict[str, str]:
    return {p.name: sha256(p) for p in sorted(run_dir.iterdir()) if p.is_file()}


def source_key(config: dict, seed: int) -> str:
    """Identifies (program sources, workload config, seed): equal keys must give equal files."""
    h = hashlib.sha256(json.dumps([config, seed], sort_keys=True).encode())
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


class Runner:
    """Runs stage processes for one workload and seed, checking digests as it goes.

    The digests of an invocation are those of the files that changed in its
    run directory since the previous invocation there, so a file altered
    between two stages shows up as a mismatch of the second.
    """

    def __init__(self, workspace: Path, configs: dict[str, Path], seed: int,
                 reference: dict[str, dict[str, str]], deadline: float):
        self.configs = configs
        self.seed = seed
        self.reference = reference
        self.deadline = deadline
        self.env = dict(os.environ, **{k: BLAS_THREADS for k in BLAS_ENV})
        self.logs = workspace / "logs"
        self.probes = workspace / "probes"
        self.logs.mkdir(parents=True, exist_ok=True)
        self.probes.mkdir(exist_ok=True)
        self.count = 0
        self.invocations: list[Invocation] = []
        # run dir -> file sizes and mtimes after the last stage that ran there
        self.state: dict[Path, dict[str, tuple[int, int]]] = {}

    def invoke(self, stage: str, args: list[str], run_dir: Path,
               trace_path: Path | None = None) -> Invocation:
        self.count += 1
        probe = self.probes / f"{self.count:03d}.json"
        argv = [sys.executable, str(STAGE_PY), str(probe)]
        if trace_path is not None:
            argv += ["--trace", str(trace_path), stage]
        argv += args + ["--config", str(self.configs[stage]), "--out", str(run_dir),
                        "--seed", str(self.seed)]
        before = self.state.get(run_dir)
        if before is None:
            before = snapshot(run_dir)
        log = self.logs / f"{self.count:03d}-{stage}.log"
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            inv = Invocation(stage, 0.0, 1.0, -9, 0)
            self.invocations.append(inv)
            return inv
        with log.open("wb") as out:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT,
                                    env=self.env, cwd=ROOT)
            watchdog = threading.Timer(timeout, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        # a process killed before its exit handler ran leaves no probe
        speed = json.loads(probe.read_text())["speed"] if probe.exists() else 1.0
        inv = Invocation(stage, wall, speed, proc.returncode, usage.ru_maxrss,
                         usage.ru_utime + usage.ru_stime)
        self.invocations.append(inv)
        after = self.state[run_dir] = snapshot(run_dir)
        if inv.exit_code == 0:
            inv.digests = {n: sha256(run_dir / n) for n in sorted(after)
                           if before.get(n) != after[n]}
            inv.mismatched = check_digests(self.reference, stage, inv.digests)
        return inv

    def pipeline(self, run_dir: Path, trace_dir: Path | None = None,
                 stages: list[str] | None = None) -> Pipeline:
        """One pass over the pipeline's stages, in order, or a re-run of ``stages``.

        A re-run passes ``--force`` so that each stage overwrites its own
        outputs, which must come out byte-identical.
        """
        args_of = dict(PIPELINE_STAGES)
        force = [] if stages is None else ["--force"]
        invocations = []
        for stage in stages or list(args_of):
            trace = None if trace_dir is None else trace_dir / f"{stage}.json"
            invocations.append(self.invoke(stage, args_of[stage] + force, run_dir, trace))
        return Pipeline(run_dir, invocations)


def rerun_plan(estimate: dict[str, float], seconds: float) -> list[list[str]]:
    """The re-run passes that follow the first full pass, shortest stages first.

    Stages are added while the estimated wall time of the first pass and the
    re-runs so far stays within ``seconds``, so short stages collect several
    samples. The plan rests on ``estimate`` alone, never on measured times,
    so that the same arguments always make the same invocations.
    """
    order = sorted(estimate, key=lambda stage: (estimate[stage], stage))
    clock = sum(estimate.values())
    passes = []
    while True:
        chosen = []
        for stage in order:
            if clock + estimate[stage] <= seconds:
                chosen.append(stage)
                clock += estimate[stage]
        if not chosen:
            return passes
        passes.append(chosen)


def check_digests(reference: dict[str, dict[str, str]], stage: str,
                  digests: dict[str, str]) -> list[str]:
    """Files whose digest differs from the reference for ``stage``; a first sighting sets it."""
    known = reference.setdefault(stage, dict(digests))
    names = sorted(set(known) | set(digests))
    return [n for n in names if known.get(n) != digests.get(n)]


def check_outputs(run_dir: Path, configs: dict[str, dict],
                  invocations: list[Invocation]) -> list[str]:
    """Problems found in the outputs of the pipeline's successful stages."""
    ok = {inv.stage for inv in invocations if inv.exit_code == 0}
    problems = []

    def load(name):
        return json.loads((run_dir / name).read_text(encoding="utf-8"))

    def finite_trace(name, epochs):
        lines = (run_dir / name).read_text(encoding="utf-8").splitlines()[1:]
        values = [float(line.split(",")[1]) for line in lines]
        if len(values) != epochs or not all(map(math.isfinite, values)):
            problems.append(f"{name}: expected {epochs} finite losses, got {values[:3]}...")

    for mode, stage in (("plain", "pretrain_plain"), ("sharpness_aware", "pretrain_sam")):
        if stage in ok:
            for side in ("source", "target"):
                finite_trace(f"{side}_trace_{mode}.csv", configs[stage]["pretrain"]["epochs"])
    for method in ("emcdr", "scdr_minus", "scdr"):
        if f"train_{method}" in ok:
            finite_trace(f"mapping_trace_{method}.csv", configs[f"train_{method}"]["train"]["epochs"])
    mae = None
    if "eval" in ok:
        report = load("eval_scdr.json")
        mae = report["mae"]
        if not (0.0 < mae <= report["rmse"] < math.inf and report["n"] > 0):
            problems.append(f"eval_scdr.json: implausible MAE/RMSE/n {mae}, {report['rmse']}, "
                            f"{report['n']}")
    if "attack" in ok:
        entries = load("attack_scdr.json")["entries"]
        epsilons = [e["epsilon"] for e in entries]
        if epsilons != sorted(epsilons) or not all(math.isfinite(e["mae"]) for e in entries):
            problems.append("attack_scdr.json: unsorted rates or non-finite MAE")
        if mae is not None and epsilons[0] == 0.0 and entries[0]["mae"] != mae:
            problems.append("attack_scdr.json: the rate-0 MAE differs from eval_scdr.json")
    if "landscape" in ok:
        rows = (run_dir / "landscape_scdr.csv").read_text(encoding="utf-8").splitlines()[1:]
        res = configs["landscape"].get("landscape", {}).get("resolution", 21)
        losses = [float(r.split(",")[2]) for r in rows]
        if len(losses) != res * res or not all(map(math.isfinite, losses)):
            problems.append(f"landscape_scdr.csv: expected {res * res} finite cells")
    if "sharpness" in ok:
        report = load("sharpness_scdr.json")
        if not (math.isfinite(report["lipschitz_estimate"]) and report["lipschitz_estimate"] >= 0
                and report["n_users"] >= 1):
            problems.append("sharpness_scdr.json: implausible estimate")
    return problems


def median_times(invocations: list[Invocation]) -> dict[str, tuple[float, bool]]:
    """Per stage: median wall time and whether it rests on failed invocations only."""
    out = {}
    for stage in {inv.stage for inv in invocations}:
        mine = [inv for inv in invocations if inv.stage == stage]
        good = [inv.time_s for inv in mine if not inv.failed]
        out[stage] = (statistics.median(good or [inv.time_s for inv in mine]), not good)
    return out


def end_to_end(setup: list[Invocation], pipelines: list[Pipeline]) -> tuple[dict, list[str]]:
    invocations = setup + [inv for p in pipelines for inv in p.invocations]
    times = median_times(invocations)
    metrics = {"setup_s": times["synth"][0],
               "pipeline_s": statistics.median(p.time_s for p in pipelines if p.complete)}
    for stage, _ in PIPELINE_STAGES:
        metrics[f"{stage}_s"] = times[stage][0]
    metrics["sam_cost_ratio"] = metrics["pretrain_sam_s"] / metrics["pretrain_plain_s"]
    metrics["peak_rss_mb"] = max(inv.maxrss_kb for inv in invocations) / 1024.0
    eval_report = pipelines[0].run_dir / "eval_scdr.json"
    if eval_report.exists():
        metrics["mae_scdr"] = json.loads(eval_report.read_text(encoding="utf-8"))["mae"]
    flagged = sorted(f"{s}_s" for s, (_, failed_only) in times.items() if failed_only)
    return metrics, flagged


def per_layer(trace_dir: Path, traced: Pipeline, traced_setup: Invocation,
              untraced: Pipeline) -> tuple[dict, dict]:
    """Per-layer metrics summed over the traced stages, and each stage's layer shares."""
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    counters: dict[str, float] = {}
    shares = {}
    for inv in [traced_setup] + traced.invocations:
        path = trace_dir / f"{inv.stage}.json"
        if not path.exists():
            continue
        doc = json.loads(path.read_text(encoding="utf-8"))
        t, s, c = span_totals(doc)
        for dst, src in ((total, t), (self_s, s), (calls, c), (counters, doc["counters"])):
            for k, v in src.items():
                dst[k] = dst.get(k, 0) + v
        share = {"wall_s": inv.wall_s, "outside_cli": inv.wall_s - t.get("cli.main", 0.0)}
        for module in MODULES:
            share[module] = sum(v for k, v in s.items() if k.startswith(module + "."))
        for module in ("factorization", "mapping", "analysis"):
            share[f"{module}.kernel"] = doc["counters"].get(f"{module}.kernel_s", 0.0)
        share["find_delta_with_kernels"] = t.get("perturbation.find_delta", 0.0)
        share["data.ingest_domain"] = t.get("data.ingest_domain", 0.0)
        shares[inv.stage] = {k: (v if k == "wall_s" else v / inv.wall_s)
                             for k, v in share.items()}

    def ratio(num, den, scale=1.0):
        return num * scale / den if den else None

    steps_plain = counters.get("factorization.sgd_steps_plain", 0)
    steps_sam = counters.get("factorization.sgd_steps_sam", 0)
    fd_calls = counters.get("perturbation.find_delta_calls", 0)
    metrics = {
        "factorization.train_mf_s": total.get("factorization.train_mf"),
        "factorization.step_us_plain": ratio(total.get("factorization.train_mf", 0), steps_plain, 1e6),
        "factorization.sgd_steps": steps_plain + steps_sam,
        "factorization.train_smf_self_s": self_s.get("factorization.train_smf"),
        "factorization.step_us_sam": ratio(total.get("factorization.train_smf", 0), steps_sam, 1e6),
        "factorization.kernel_s": counters.get("factorization.kernel_s"),
        "perturbation.find_delta_self_s": self_s.get("perturbation.find_delta"),
        "perturbation.rows_per_call": ratio(counters.get("perturbation.rows", 0), fd_calls),
        "perturbation.loss_evals": counters.get("perturbation.loss_evals"),
        "perturbation.grad_evals": counters.get("perturbation.grad_evals"),
        "perturbation.improve_ratio": ratio(counters.get("perturbation.improving_steps", 0),
                                            counters.get("perturbation.ascent_steps", 0)),
        "perturbation.origin_best_ratio": ratio(counters.get("perturbation.origin_best_calls", 0),
                                                fd_calls),
        "perturbation.ball_bind_ratio": ratio(counters.get("perturbation.bound_rows", 0),
                                              counters.get("perturbation.rows", 0)),
        "perturbation.find_delta_calls": fd_calls,
        "mapping.scdr_train_self_s": self_s.get("mapping.scdr_train"),
        "mapping.kernel_s": counters.get("mapping.kernel_s"),
        "mapping.emcdr_train_s": total.get("mapping.emcdr_train"),
        "mapping.minibatches": counters.get("mapping.minibatches"),
        "mapping.minibatch_ms": ratio(total.get("mapping.scdr_train", 0),
                                      counters.get("mapping.minibatches", 0), 1e3),
        "data.ingest_domain_s": total.get("data.ingest_domain"),
        "data.ingest_rows_per_s": ratio(counters.get("data.ingest_rows", 0),
                                        total.get("data.ingest_domain", 0)),
        "data.load_scenario_self_s": self_s.get("data.load_scenario"),
        "data.filter_users_s": total.get("data.filter_users"),
        "data.user_interactions_calls": calls.get("data.user_interactions"),
        "data.user_interactions_s": total.get("data.user_interactions"),
        "data.generate_synthetic_s": total.get("data.generate_synthetic"),
        "data.write_ratings_s": total.get("data.write_ratings"),
        "data.bytes_written": counters.get("data.bytes_written"),
        "factorization.save_factor_model_s": total.get("factorization.save_factor_model"),
        "factorization.load_factor_model_s": total.get("factorization.load_factor_model"),
        "factorization.checkpoint_bytes": counters.get("factorization.checkpoint_bytes"),
        "mapping.save_mapping_s": total.get("mapping.save_mapping"),
        "mapping.load_mapping_s": total.get("mapping.load_mapping"),
        "analysis.evaluate_s": total.get("analysis.evaluate"),
        "analysis.fgsm_sweep_s": total.get("analysis.fgsm_sweep"),
        "analysis.landscape_grid_s": total.get("analysis.landscape_grid"),
        "analysis.lipschitz_estimate_self_s": self_s.get("analysis.lipschitz_estimate"),
        "analysis.kernel_s": counters.get("analysis.kernel_s"),
        "cli.self_s": self_s.get("cli.main"),
        "trace.overhead_s": traced.time_s - untraced.time_s,
    }
    return {k: v for k, v in metrics.items() if v is not None}, shares


def machine_facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "blas_threads": BLAS_THREADS,
        "pinned_cpu": min(os.sched_getaffinity(0)),
        "probe_ref_s": PROBE_REF_S,
        "platform": platform.platform(),
    }


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"missing {path}")
    return json.loads(path.read_text(encoding="utf-8"))


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    start = time.monotonic()
    spec = load_spec()
    if not (ROOT / "src" / "scdr" / "cli.py").is_file():
        raise BenchError(f"no scdr sources under {ROOT / 'src'}")
    if workload not in WORKLOADS:
        raise BenchError(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")
    workspace = WORK / workload / f"seed-{seed}"
    shutil.rmtree(workspace, ignore_errors=True)
    workspace.mkdir(parents=True)
    configs = stage_configs(workload)
    config_paths = {}
    for stage, config in configs.items():
        config_paths[stage] = workspace / f"config-{stage}.json"
        config_paths[stage].write_text(json.dumps(config, indent=2, sort_keys=True) + "\n",
                                       encoding="utf-8")
    ref_path = WORK / "digests" / f"{workload}-seed{seed}-{source_key(configs, seed)}.json"
    reference = json.loads(ref_path.read_text(encoding="utf-8")) if ref_path.exists() else {}
    runner = Runner(workspace, config_paths, seed, reference, start + RUN_DEADLINE_S)

    setup_name, setup_args = SETUP_STAGE
    repeats = 1 if trace else SETUP_REPEATS
    setup = [runner.invoke(setup_name, setup_args, workspace / f"setup-{i}")
             for i in range(repeats)]
    if setup[0].exit_code != 0:
        raise BenchError(f"synth failed with exit code {setup[0].exit_code}; "
                         f"see {runner.logs}")

    # One full pass, then re-runs planned to fill --seconds, so that short
    # stages collect several samples.
    run_dir = workspace / "run"
    shutil.copytree(workspace / "setup-0", run_dir)
    pipelines = [runner.pipeline(run_dir)]
    if not trace:
        for stages in rerun_plan(WALL_ESTIMATE_S[workload], seconds):
            pipelines.append(runner.pipeline(run_dir, stages=stages))
    problems = check_outputs(run_dir, configs, pipelines[0].invocations)
    run_digests = digest_dir(run_dir)

    shares = None
    flagged: list[str] = []
    if trace:
        trace_dir = WORK / workload / "trace"
        shutil.rmtree(trace_dir, ignore_errors=True)
        trace_dir.mkdir(parents=True)
        traced_dir = workspace / "traced"
        traced_setup = runner.invoke(setup_name, setup_args, traced_dir,
                                     trace_dir / f"{setup_name}.json")
        traced = runner.pipeline(traced_dir, trace_dir)
        problems += check_outputs(traced_dir, configs, traced.invocations)
        metric_values, shares = per_layer(trace_dir, traced, traced_setup, pipelines[0])
        wanted = spec["per_layer"]
    else:
        metric_values, flagged = end_to_end(setup, pipelines)
        wanted = spec["end_to_end"]

    metrics = {}
    for m in wanted:
        if m["name"] in metric_values:
            metrics[m["name"]] = {"value": metric_values[m["name"]], "unit": m["unit"]}
        else:
            problems.append(f"metric {m['name']} could not be measured")
    invocations = runner.invocations
    failed = [inv for inv in invocations if inv.failed]
    ref_path.parent.mkdir(parents=True, exist_ok=True)
    ref_path.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    report = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "machine": machine_facts(),
        "passes": len(pipelines),
        "complete_passes": sum(p.complete for p in pipelines),
        "ops_attempted": len(invocations),
        "ops_failed": len(failed),
        "failures": [{"stage": inv.stage, "exit_code": inv.exit_code,
                      "mismatched": inv.mismatched} for inv in failed],
        "timed_on_failures_only": flagged,
        "problems": problems,
        "stages": [{"stage": inv.stage, "wall_s": inv.wall_s, "speed": inv.speed,
                    "time_s": inv.time_s, "cpu_s": inv.cpu_s, "exit_code": inv.exit_code,
                    "maxrss_kb": inv.maxrss_kb} for inv in invocations],
        "run_dir_digests": run_digests,
        "layer_shares": shares,
        "metrics": metrics,
    }
    (workspace / "report.json").write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    shutil.rmtree(run_dir)
    for i in range(repeats):
        shutil.rmtree(workspace / f"setup-{i}")
    if trace:
        shutil.rmtree(workspace / "traced")
    return report


def print_report(report: dict) -> None:
    m = report["machine"]
    print(f"workload {report['workload']} seed {report['seed']}: {report['passes']} passes, "
          f"{report['complete_passes']} complete; nproc {m['nproc']}, python {m['python']}, numpy {m['numpy']}, "
          f"BLAS threads {m['blas_threads']}")
    print(f"ops attempted {report['ops_attempted']}, failed {report['ops_failed']}")
    for f in report["failures"]:
        why = f"digest mismatch in {', '.join(f['mismatched'])}" if f["mismatched"] else ""
        print(f"  FAILED {f['stage']}: exit code {f['exit_code']} {why}".rstrip())
    for name in report["timed_on_failures_only"]:
        print(f"  {name} is timed on failed invocations only")
    for problem in report["problems"]:
        print(f"  PROBLEM {problem}")
    for name, digest in report["run_dir_digests"].items():
        print(f"  sha256 {digest[:16]} {name}")
    if report["layer_shares"]:
        print("layer shares of each traced stage's wall time:")
        for stage, share in report["layer_shares"].items():
            parts = ", ".join(f"{k} {v:.0%}" for k, v in share.items() if k != "wall_s" and v >= 0.01)
            print(f"  {stage} ({share['wall_s']:.2f} s): {parts}")
    for name, metric in report["metrics"].items():
        note = f"  -> {PREDICTIONS[name]}" if name in PREDICTIONS else ""
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}{note}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # stage processes inherit this: their probe must share the program's processor
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print_report(report)
    print(json.dumps({
        "correct": not report["problems"],
        "attempted": report["ops_attempted"],
        "failed": report["ops_failed"],
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
