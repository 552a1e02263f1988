"""In-memory span tracing of one ``scdr`` CLI invocation.

The tracer wraps public functions of the scdr modules from the outside:
each name is patched where its caller looks it up (``find_delta`` as
imported into ``factorization``, ``mapping`` and ``analysis``; module-level
functions that the CLI reaches through ``data.load_scenario`` and the
like). No source file of the program changes.

A span is ``(name, start, end, parent, inner)``. ``inner`` is time spent in
callables that are timed but too frequent to keep as spans of their own:
the ``loss_at``/``grad_at`` kernels that a trainer hands to ``find_delta``.
Their time is added to ``<module>.kernel_s`` (the module that defined the
callable) and to the enclosing ``find_delta`` span's ``inner``, so that the
ascent's self time excludes it. Spans stay in memory and are written once,
at the end of the invocation.
"""

from __future__ import annotations

import functools
import json
import math
import os
import time
from collections import defaultdict

# (module that the caller reads the name from, attribute): span name.
# The same wrapper object is installed at every site of one function.
WRAPPED = {
    ("scdr.cli", "main"): "cli.main",
    ("scdr.data", "ingest_domain"): "data.ingest_domain",
    ("scdr.data", "load_scenario"): "data.load_scenario",
    ("scdr.data", "compute_overlap"): "data.compute_overlap",
    ("scdr.data", "build_scenario"): "data.build_scenario",
    ("scdr.data", "generate_synthetic"): "data.generate_synthetic",
    ("scdr.data", "write_ratings"): "data.write_ratings",
    ("scdr.data", "save_manifest"): "data.save_manifest",
    ("scdr.data", "save_sidecar"): "data.save_sidecar",
    ("scdr.data.DomainDataset", "filter_users"): "data.filter_users",
    ("scdr.data.DomainDataset", "user_interactions"): "data.user_interactions",
    ("scdr.factorization", "train_mf"): "factorization.train_mf",
    ("scdr.factorization", "train_smf"): "factorization.train_smf",
    ("scdr.factorization", "save_factor_model"): "factorization.save_factor_model",
    ("scdr.factorization", "load_factor_model"): "factorization.load_factor_model",
    ("scdr.factorization", "find_delta"): "perturbation.find_delta",
    ("scdr.mapping", "emcdr_train"): "mapping.emcdr_train",
    ("scdr.mapping", "scdr_train"): "mapping.scdr_train",
    ("scdr.mapping", "save_mapping"): "mapping.save_mapping",
    ("scdr.mapping", "load_mapping"): "mapping.load_mapping",
    ("scdr.mapping", "find_delta"): "perturbation.find_delta",
    ("scdr.analysis", "evaluate"): "analysis.evaluate",
    ("scdr.analysis", "fgsm_sweep"): "analysis.fgsm_sweep",
    ("scdr.analysis", "landscape_grid"): "analysis.landscape_grid",
    ("scdr.analysis", "lipschitz_estimate"): "analysis.lipschitz_estimate",
    ("scdr.analysis", "find_delta"): "perturbation.find_delta",
}

# ||delta|| within this relative slack of rho counts as binding the ball
BIND_RTOL = 1e-9


class Tracer:
    """Records spans and counters for one stage process."""

    def __init__(self, stage: str):
        self.stage = stage
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._after = {
            "factorization.train_mf": self._count_steps("factorization.sgd_steps_plain"),
            "factorization.train_smf": self._count_steps("factorization.sgd_steps_sam"),
            "mapping.scdr_train": self._after_scdr_train,
            "data.ingest_domain": self._after_ingest,
            "data.write_ratings": self._count_written("data.bytes_written"),
            "data.save_manifest": self._count_written("data.bytes_written"),
            "data.save_sidecar": self._count_written("data.bytes_written"),
            "factorization.save_factor_model": self._count_written("factorization.checkpoint_bytes"),
        }

    def install(self, modules: dict) -> None:
        """Patch every site in ``WRAPPED``; ``modules`` maps dotted names to objects."""
        wrappers = {}
        for (owner, attr), name in WRAPPED.items():
            target = modules[owner]
            if name not in wrappers:
                wrappers[name] = self.wrap(name, getattr(target, attr))
            setattr(target, attr, wrappers[name])

    def wrap(self, name: str, fn):
        after = self._after.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, 0.0]
            self.stack.append(len(self.spans))
            self.spans.append(rec)
            if name == "perturbation.find_delta":
                args, losses = self._time_kernels(rec, args)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                self.stack.pop()
            if name == "perturbation.find_delta":
                self._after_find_delta(args, result, losses)
            elif after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _time_kernels(self, rec: list, args: tuple):
        loss_at, grad_at = args[0], args[1]
        clock = time.perf_counter
        c = self.counters
        losses: list[float] = []

        def timed(fn, counter, record):
            key = fn.__module__.rsplit(".", 1)[-1] + ".kernel_s"

            def call(x):
                t0 = clock()
                out = fn(x)
                dt = clock() - t0
                rec[4] += dt
                c[key] += dt
                c[counter] += 1
                if record:
                    losses.append(float(out))
                return out

            return call

        wrapped = (timed(loss_at, "perturbation.loss_evals", True),
                   timed(grad_at, "perturbation.grad_evals", False))
        return wrapped + tuple(args[2:]), losses

    def _after_find_delta(self, args, result, losses) -> None:
        c = self.counters
        config = args[3]
        c["perturbation.find_delta_calls"] += 1
        best, improved = losses[0], 0
        for loss in losses[1:]:
            if loss > best:
                best, improved = loss, improved + 1
        c["perturbation.ascent_steps"] += len(losses) - 1
        c["perturbation.improving_steps"] += improved
        c["perturbation.origin_best_calls"] += improved == 0
        delta = result.delta
        rows = 1 if delta.ndim == 1 else delta.shape[0]
        norms = (delta * delta).sum(axis=-1) ** 0.5
        c["perturbation.rows"] += rows
        c["perturbation.bound_rows"] += int((norms >= config.rho * (1.0 - BIND_RTOL)).sum())

    def _count_steps(self, counter: str):
        def after(args, kwargs, result):
            dataset, config = args[0], args[1]
            self.counters[counter] += config.epochs * math.ceil(
                dataset.n_interactions / config.batch_size)
        return after

    def _after_scdr_train(self, args, kwargs, result) -> None:
        scenario, config = args[0], args[3]
        base = config.base
        n = len(scenario.train_pairs)
        self.counters["mapping.minibatches"] += base.epochs * math.ceil(n / base.batch_size)

    def _after_ingest(self, args, kwargs, result) -> None:
        self.counters["data.ingest_rows"] += result.n_interactions + result.duplicate_count

    def _count_written(self, counter: str):
        def after(args, kwargs, result):
            self.counters[counter] += os.path.getsize(args[1])
        return after

    def dump(self, path, exit_code: int) -> None:
        names = sorted({s[0] for s in self.spans})
        ids = {n: i for i, n in enumerate(names)}
        doc = {
            "stage": self.stage,
            "exit_code": exit_code,
            "names": names,
            "name": [ids[s[0]] for s in self.spans],
            "start": [s[1] for s in self.spans],
            "end": [s[2] for s in self.spans],
            "parent": [s[3] for s in self.spans],
            "inner": [s[4] for s in self.spans],
            "counters": dict(self.counters),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def span_totals(doc: dict) -> tuple[dict, dict, dict]:
    """Total seconds, self seconds and call count per span name of one dumped trace.

    Self time is a span's duration minus its children's durations and
    minus its ``inner`` kernel time.
    """
    names, parent = doc["names"], doc["parent"]
    dur = [e - s for s, e in zip(doc["start"], doc["end"])]
    child = [0.0] * len(dur)
    for i, p in enumerate(parent):
        if p >= 0:
            child[p] += dur[i]
    total: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for i, n in enumerate(doc["name"]):
        total[names[n]] += dur[i]
        self_s[names[n]] += dur[i] - child[i] - doc["inner"][i]
        calls[names[n]] += 1
    return total, self_s, calls
