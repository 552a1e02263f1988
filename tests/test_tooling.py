"""The benchmark's span tracer patches names of the program from outside.

``perfbench/spans.py`` lists every ``(owner, attribute)`` it wraps, and
credits the time of the callables handed to ``find_delta`` to the module
that defines them. A refactor that renames or drops a wrapped name, or that
moves those callables to another module, breaks or skews a traced benchmark
run; these checks make it fail the test suite instead. README's example
config is checked against the keys the CLI accepts in the same way, the
JSON artifact format and the path from arrays to file bytes are checked to
stay behind ``scdr.data``'s codec, and numpy's binary loading and writing
are checked to stay in ``scdr.data`` and pickle-free.
"""

from __future__ import annotations

import importlib
import importlib.util
import json
import re
from pathlib import Path

import scdr.analysis
import scdr.cli
import scdr.factorization
import scdr.mapping
from scdr.cli import load_config
from scdr.data import SyntheticSpec, generate_synthetic
from scdr.perturbation import PerturbConfig, find_delta

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(dotted: str):
    """The module, or the attribute of the longest importable module prefix, named ``dotted``."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for part in parts[cut:]:
            obj = getattr(obj, part)
        return obj
    raise ModuleNotFoundError(dotted)


def test_every_wrapped_site_resolves():
    wrapped = load_spans().WRAPPED
    assert wrapped
    missing = [f"{owner}.{attr}" for owner, attr in wrapped
               if not callable(getattr(resolve(owner), attr, None))]
    assert not missing, f"the tracer wraps names the program no longer has: {missing}"


def test_find_delta_callables_are_defined_by_the_caller(monkeypatch):
    """Each caller defines its own loss and gradient, and no point they see is written.

    ``memo_last_point`` keys on the identity of a point, so a ``find_delta``
    that wrote its step into the origin or into a point it already handed out
    would corrupt every caller's memoized residual.
    """
    callers = (scdr.factorization, scdr.mapping, scdr.analysis)
    seen = {}
    intact = []
    for module in callers:
        def recorder(loss_at, grad_at, origin, config, caller=module.__name__):
            seen.setdefault(caller, set()).update((loss_at.__module__, grad_at.__module__))
            points = [(origin, origin.copy())]

            def keeping(fn):
                def call(x):
                    points.append((x, x.copy()))
                    return fn(x)
                return call

            out = find_delta(keeping(loss_at), keeping(grad_at), origin, config)
            intact.append(all(x.tobytes() == copy.tobytes() for x, copy in points))
            return out
        monkeypatch.setattr(module, "find_delta", recorder)

    scenario, _ = generate_synthetic(SyntheticSpec(users=40, items=20, overlap_ratio=0.5,
                                                   dim=3, seed=1, ratings_per_user=5))
    base = scdr.factorization.TrainConfig(epochs=1, batch_size=64, dim=3, seed=1)
    perturb = PerturbConfig(rho=0.1, k=2)
    src = scdr.factorization.train_smf(scenario.source, base, perturb).model
    tgt = scdr.factorization.train_smf(scenario.target_training_dataset(), base, perturb).model
    net = scdr.mapping.scdr_train(scenario, src, tgt, scdr.mapping.ScdrTrainConfig(
        base=base, perturb=perturb, hidden=4)).net
    scdr.analysis.lipschitz_estimate(net, src, tgt, scenario, perturb)
    assert seen == {m.__name__: {m.__name__} for m in callers}
    assert intact and all(intact)


def test_every_traced_name_is_called(tmp_path, monkeypatch):
    """A tiny pipeline enters every span the tracer wraps and credits every kernel module.

    A refactor that stops calling a wrapped name (say, by reading rating
    rows without ``DomainDataset.user_interactions``) leaves a per-layer
    metric unmeasured; this catches it without a benchmark run.
    """
    spans = load_spans()
    tracer = spans.Tracer("tier-1")
    wrappers = {}
    for (owner, attr), name in spans.WRAPPED.items():
        target = resolve(owner)
        wrappers.setdefault(name, tracer.wrap(name, getattr(target, attr)))
        monkeypatch.setattr(target, attr, wrappers[name])

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "seed": 1, "out": str(tmp_path / "run"),
        "synth": {"users": 40, "items": 20, "overlap_ratio": 0.5, "dim": 3,
                  "ratings_per_user": 5},
        "pretrain": {"epochs": 1, "dim": 3, "k": 2},
        "train": {"epochs": 1, "hidden": 4, "k": 2},
        "landscape": {"resolution": 2, "n_samples": 8},
    }))
    stages = [["synth"], ["pretrain", "--mode", "plain"],
              ["pretrain", "--mode", "sharpness_aware"]]
    stages += [["train", "--method", m] for m in ("emcdr", "scdr_minus", "scdr")]
    stages += [[c, "--method", "scdr"] for c in ("eval", "attack", "landscape", "sharpness")]
    for stage in stages:
        assert scdr.cli.main([*stage, "--config", str(cfg)]) == 0, stage

    entered = {span[0] for span in tracer.spans}
    assert set(spans.WRAPPED.values()) - entered == set()
    kernels = {f"{m}.kernel_s" for m in ("factorization", "mapping", "analysis")}
    assert {k for k in kernels if tracer.counters.get(k, 0.0) > 0.0} == kernels


def test_readme_config_block_loads(tmp_path):
    """README's example config uses only keys and value kinds the CLI accepts."""
    blocks = re.findall(r"```json\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    path = tmp_path / "readme.json"
    path.write_text(blocks[0])
    cfg = load_config(str(path))
    assert cfg["seed"] == 1 and cfg["out"] == "runs/exp"


def test_only_data_spells_the_json_artifact_format():
    """JSON text and the ``format_version``/``kind`` header are written and read in ``scdr.data``."""
    spelled = re.compile(r'^import json|json\.dumps|"format_version"|"kind"', re.M)
    modules = sorted(p.name for p in (ROOT / "src" / "scdr").glob("*.py")
                     if spelled.search(p.read_text(encoding="utf-8")))
    assert modules == ["data.py"]


def test_numpy_files_load_only_in_data_and_never_unpickle():
    """``np.load`` is called only in ``scdr.data``, always with ``allow_pickle=False``.

    Nothing else in ``src`` names ``np.load`` (an alias would dodge the check),
    imports from numpy by name, unpickles, or writes ``.npz`` files.
    """
    calls = {}
    for path in sorted((ROOT / "src").rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        assert not re.search(r"savez|pickle\.load|from numpy import|\b(np|numpy)\.load\b(?!\()",
                             text), path.name
        calls[path.name] = re.findall(r"\b(?:np|numpy)\.load\((.*)\)", text)
    assert {name for name, args in calls.items() if args} == {"data.py"}
    assert all("allow_pickle=False" in args for args in calls["data.py"])


def test_numpy_files_are_written_only_in_data_and_never_pickle():
    """``np.save`` is called only in ``scdr.data``, always with ``allow_pickle=False``.

    The rating snapshot and the factor checkpoint then share one writer, as
    they share one reader. Nothing else in ``src`` names ``np.save`` outside a
docstring's literal (an alias would dodge the check) or calls ``tofile``.
    """
    calls = {}
    for path in sorted((ROOT / "src").rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        assert not re.search(r"\b(np|numpy)\.save\b(?![(`])|\.tofile\(", text), path.name
        calls[path.name] = re.findall(r"\b(?:np|numpy)\.save\((.*)\)", text)
    assert {name for name, args in calls.items() if args} == {"data.py"}
    assert calls["data.py"] and all("allow_pickle=False" in args for args in calls["data.py"])


def test_arrays_reach_files_only_through_data():
    """``mapping``, ``factorization`` and ``cli`` turn no array into a Python list.

    Checkpoints hand their arrays to ``scdr.data``'s codec; a ``.tolist()`` in
    these modules would be a second path from arrays to file bytes.
    """
    listed = [name for name in ("mapping.py", "factorization.py", "cli.py")
              if ".tolist(" in (ROOT / "src" / "scdr" / name).read_text(encoding="utf-8")]
    assert listed == []
