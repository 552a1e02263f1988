"""The benchmark's span tracer patches names of the program from outside.

``perfbench/spans.py`` lists every ``(owner, attribute)`` it wraps, and
credits the time of the callables handed to ``find_delta`` to the module
that defines them. A refactor that renames or drops a wrapped name, or that
moves those callables to another module, breaks or skews a traced benchmark
run; these checks make it fail the test suite instead. README's example
config and every benchmark stage config are checked against the keys the
CLI accepts in the same way, the library configs' defaults against the
CLI's, README's file names against the files a run writes, and README's
import lines against the
package's modules, which load only the modules they use. The JSON artifact format and the path from arrays to
file bytes are checked to stay behind ``scdr.data``'s codec, numpy's
binary loading and writing are checked to stay in ``scdr.data`` and
pickle-free, loading behind ``_typed_arrays``'s checks, and array records
are checked to be read only where their digest is checked. Factor and mapping training are checked to share one
epoch loop, the ascents one memo of a point's pass, and the factor
model's gradients one kernel. Every public name of the package is checked
to have a reader besides the unit tests.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import scdr.analysis
import scdr.cli
import scdr.data
import scdr.factorization
import scdr.mapping
from scdr.cli import load_config
from scdr.data import SyntheticSpec, generate_synthetic
from scdr.perturbation import PerturbConfig, find_delta

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def load_perfbench(name: str):
    """``perfbench/<name>.py``, loaded from its file: the benchmark is not a package."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
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
    wrapped = load_perfbench("spans").WRAPPED
    assert wrapped
    missing = [f"{owner}.{attr}" for owner, attr in wrapped
               if not callable(getattr(resolve(owner), attr, None))]
    assert not missing, f"the tracer wraps names the program no longer has: {missing}"


def test_find_delta_callables_are_defined_by_the_caller(monkeypatch):
    """Each caller defines its own loss and gradient, and no point they see is written.

    ``WorstCase`` keys its memo on the identity of a point, and every caller (the
    factor ascent, the mapping ascent and the Lipschitz probe) reads its passes
    through one, so a ``find_delta`` that wrote its step into the origin or into
    a point it already handed out would corrupt every caller's memoized pass and pick.
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


def tiny_pipeline(tmp_path) -> Path:
    """Every CLI command, each mode and method included, on a tiny scenario; the run directory."""
    out = tmp_path / "run"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "seed": 1, "out": str(out),
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
    return out


def test_every_traced_name_is_called(tmp_path, monkeypatch):
    """A tiny pipeline enters every span the tracer wraps and credits every kernel module.

    A refactor that stops calling a wrapped name (say, by reading rating
    rows without ``DomainDataset.user_interactions``) leaves a per-layer
    metric unmeasured; this catches it without a benchmark run.
    """
    spans = load_perfbench("spans")
    tracer = spans.Tracer("tier-1")
    wrappers = {}
    for (owner, attr), name in spans.WRAPPED.items():
        target = resolve(owner)
        wrappers.setdefault(name, tracer.wrap(name, getattr(target, attr)))
        monkeypatch.setattr(target, attr, wrappers[name])

    tiny_pipeline(tmp_path)
    entered = {span[0] for span in tracer.spans}
    assert set(spans.WRAPPED.values()) - entered == set()
    kernels = {f"{m}.kernel_s" for m in ("factorization", "mapping", "analysis")}
    assert {k for k in kernels if tracer.counters.get(k, 0.0) > 0.0} == kernels


def test_readme_names_every_file_a_run_writes(tmp_path):
    """README names, in backticks, each file that the CLI writes to a run directory, with
    ``<mode>`` and ``<method>`` standing for the pretraining mode and the mapping method.

    A command that renames or adds an output then fails here until README follows.
    """
    readme = (ROOT / "README.md").read_text()
    names = {re.sub(r"_(emcdr|scdr_minus|scdr)\.", "_<method>.",
                    re.sub(r"_(plain|sharpness_aware)\.", "_<mode>.", p.name))
             for p in tiny_pipeline(tmp_path).iterdir()}
    assert len(names) == 15
    assert sorted(name for name in names if f"`{name}`" not in readme) == []


def test_readme_config_block_loads(tmp_path):
    """README's example config names every key the CLI accepts, each with its built-in
    default except for ``seed`` and ``out``."""
    blocks = re.findall(r"```json\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    path = tmp_path / "readme.json"
    path.write_text(blocks[0])
    cfg = load_config(str(path))
    assert cfg["seed"] == 1 and cfg["out"] == "runs/exp"

    def keys(doc):
        return {k: keys(v) if isinstance(v, dict) else None for k, v in doc.items()}

    doc = json.loads(blocks[0])
    # so no setting goes undocumented
    assert keys(doc) == keys(scdr.cli.DEFAULT_CONFIG)

    def defaults(doc):
        return {k: v for k, v in doc.items() if k not in ("seed", "out")}

    # and no documented default drifts from the one the CLI uses
    assert defaults(doc) == defaults(scdr.cli.DEFAULT_CONFIG)


def test_library_config_defaults_are_the_cli_defaults():
    """Each ``DEFAULT_CONFIG`` key that names a defaulted field of a library config built
    from its section holds that field's default: ``SyntheticSpec`` for ``synth``,
    ``TrainConfig`` for ``pretrain`` and ``train``, ``LandscapeSpec`` for ``landscape`` and
    ``ScdrTrainConfig.hidden`` for ``train.hidden``.

    ``synth`` is read from ``SyntheticSpec``. The other sections restate their defaults,
    because reading them would import ``factorization``, ``mapping`` and ``analysis``
    whenever ``scdr.cli`` loads: every stage, ``synth`` included, would compile them, at
    about 1.2 ms per 100 source lines, and ``test_cli.py``'s per-command module sets would
    break. This test keeps those copies equal.
    """
    pairs = [(scdr.data.SyntheticSpec, "synth"), (scdr.factorization.TrainConfig, "pretrain"),
             (scdr.factorization.TrainConfig, "train"), (scdr.analysis.LandscapeSpec, "landscape"),
             (scdr.mapping.ScdrTrainConfig, "train")]
    unchecked = {f"{section}.{key}" for _, section in pairs
                 for key in scdr.cli.DEFAULT_CONFIG[section]}
    for config, section in pairs:
        cli = scdr.cli.DEFAULT_CONFIG[section]
        for field in dataclasses.fields(config):
            if field.name in cli and field.default is not dataclasses.MISSING:
                assert cli[field.name] == field.default, (config.__name__, section, field.name)
                unchecked.discard(f"{section}.{field.name}")
    # epochs is a required field, and rho and k fill PerturbConfig, which has no defaults
    assert unchecked == {"pretrain.epochs", "pretrain.rho", "pretrain.k",
                         "train.epochs", "train.rho", "train.k"}


def test_every_benchmark_stage_config_loads(tmp_path):
    """Every stage config of every benchmark workload loads through ``load_config``.

    The benchmark writes these files for the CLI, so a key the CLI no longer accepts
    would refuse every stage of a run with exit 2; here it fails a test instead. Each
    value given is read as given.
    """
    workloads = load_perfbench("workloads")
    assert workloads.WORKLOADS
    for workload in workloads.WORKLOADS:
        for stage, config in workloads.stage_configs(workload).items():
            path = tmp_path / f"{workload}-{stage}.json"
            path.write_text(json.dumps(config))
            loaded = load_config(str(path))
            assert {section: {key: loaded[section][key] for key in values}
                    for section, values in config.items()} == config, (workload, stage)


def test_readme_imports_resolve():
    """Every import statement of README's Python blocks names a path the package has."""
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    imports = [node for block in blocks for node in ast.parse(block).body
               if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert imports
    exec(compile(ast.Module(imports, type_ignores=[]), "README.md", "exec"), {})


# each module's closure under import, itself and the package aside; ``cli`` imports the
# modules a command runs inside that command
DEPENDENCIES = {
    "scdr.errors": [],
    "scdr.data": ["scdr.errors"],
    "scdr.perturbation": ["scdr.errors"],
    "scdr.cli": ["scdr.data", "scdr.errors"],
    "scdr.factorization": ["scdr.data", "scdr.errors", "scdr.perturbation"],
    "scdr.mapping": ["scdr.data", "scdr.errors", "scdr.factorization", "scdr.perturbation"],
    "scdr.analysis": ["scdr.data", "scdr.errors", "scdr.factorization", "scdr.mapping",
                      "scdr.perturbation"],
}


def test_every_module_has_its_dependencies_pinned():
    """A module added to the package gets its closure pinned in ``DEPENDENCIES`` too."""
    modules = {f"scdr.{p.stem}" for p in (ROOT / "src" / "scdr").glob("*.py")}
    assert modules - {"scdr.__init__"} == set(DEPENDENCIES)


@pytest.mark.parametrize("module", list(DEPENDENCIES))
def test_a_module_imports_only_its_dependencies(module):
    """Importing a module loads the package, the module and its dependencies, and nothing else
    of ``scdr``; so a new top-level import in ``cli`` cannot load every module for every command."""
    code = (f"import sys, {module}\n"
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scdr'))")
    # the child imports the same scdr as this process
    path = os.pathsep.join([str(Path(scdr.data.__file__).parents[1]),
                            *filter(None, [os.environ.get("PYTHONPATH")])])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": path}).stdout
    assert out.strip() == str(sorted(["scdr", module, *DEPENDENCIES[module]]))


def test_only_data_spells_the_json_artifact_format():
    """JSON text and the ``format_version``/``kind`` header are written and read in ``scdr.data``."""
    spelled = re.compile(r'^import json|json\.dumps|"format_version"|"kind"', re.M)
    modules = sorted(p.name for p in (ROOT / "src" / "scdr").glob("*.py")
                     if spelled.search(p.read_text(encoding="utf-8")))
    assert modules == ["data.py"]


def test_only_read_artifact_reads_array_records():
    """``json_document`` is given ``arrays`` only by ``read_artifact``.

    ``read_artifact`` checks the records against the digest in their header; a reader
    that called ``json_document`` with ``arrays`` itself would skip that check.
    """
    callers = set()
    for path in sorted((ROOT / "src" / "scdr").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if (isinstance(node, ast.Call)
                        and getattr(node.func, "id", getattr(node.func, "attr", None))
                        == "json_document"
                        and (len(node.args) > 2
                             or any(kw.arg in ("arrays", None) for kw in node.keywords))):
                    callers.add(f"{path.name}:{fn.name}")
    assert callers == {"data.py:read_artifact"}


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


def test_only_typed_arrays_loads_numpy_records():
    """In ``scdr.data``, ``np.load`` is called only by ``_typed_arrays``.

    So every record passes its checks, the code point check among them, before
    anything makes a Python string of it.
    """
    tree = ast.parse((ROOT / "src" / "scdr" / "data.py").read_text(encoding="utf-8"))
    callers = {fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
               for node in ast.walk(fn)
               if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
               and node.func.attr == "load" and getattr(node.func.value, "id", None) == "np"}
    assert callers == {"_typed_arrays"}


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


def test_one_epoch_loop_draws_batches_and_guards_divergence():
    """One function of ``factorization`` and ``mapping`` shuffles epochs and applies the guard.

    Factor and mapping training share one epoch loop; a second function that
    draws ``rng.permutation`` or reads ``DIVERGENCE_FACTOR`` would fork it.
    """
    def functions(hit):
        found = set()
        for name in ("factorization.py", "mapping.py"):
            tree = ast.parse((ROOT / "src" / "scdr" / name).read_text(encoding="utf-8"))
            found |= {f"{name}:{fn.name}" for fn in ast.walk(tree)
                      if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                      and any(hit(node) for node in ast.walk(fn))}
        return found

    draws = functions(lambda node: isinstance(node, ast.Attribute) and node.attr == "permutation")
    guards = functions(lambda node: isinstance(node, ast.Name) and node.id == "DIVERGENCE_FACTOR")
    assert draws == guards == {"factorization.py:_run_epochs"}


def test_only_the_memo_keys_on_a_point_identity():
    """``perturbation.WorstCase`` is the one memo keyed on a point's identity.

    A second identity memo in an ascent's loss/gradient pair would fork the rule
    that no point handed out is written; in the modules that ascend, and in
    ``perturbation`` outside the pair, ``is`` and ``is not`` compare against
    ``None`` only.
    """
    def is_none(node):
        return isinstance(node, ast.Constant) and node.value is None

    found = []
    for name in ("perturbation.py", "factorization.py", "mapping.py", "analysis.py"):
        tree = ast.parse((ROOT / "src" / "scdr" / name).read_text(encoding="utf-8"))
        pair = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "WorstCase"]
        inside = {id(node) for cls in pair for node in ast.walk(cls)}
        assert (name == "perturbation.py") == bool(pair)
        for node in ast.walk(tree):
            if isinstance(node, ast.Compare) and id(node) not in inside:
                operands = [node.left, *node.comparators]
                found += [f"{name}:{node.lineno}"
                          for op, left, right in zip(node.ops, operands, operands[1:])
                          if isinstance(op, (ast.Is, ast.IsNot))
                          and not (is_none(left) or is_none(right))]
    assert found == []


def test_trainer_steps_read_gradients_only_from_the_pair():
    """``_sgd_step`` and ``_train_mapping``'s ``step`` read their update from ``WorstCase.best()``.

    A trainer's baseline is its zero-radius case, and at zero radius the pair's pick is the
    origin, so a step has one update path: every gradient it reads (``grad`` or ``grad_u``)
    is read off ``best()`` of a pair the step builds, and no branch holds that read. A
    zero-radius branch that read a pass of its own would be a second way to the update.
    """
    def step(name, owner, fn):
        tree = ast.parse((ROOT / "src" / "scdr" / name).read_text(encoding="utf-8"))
        top = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == owner)
        return next(n for n in ast.walk(top) if isinstance(n, ast.FunctionDef) and n.name == fn)

    for fn in (step("factorization.py", "_sgd_step", "_sgd_step"),
               step("mapping.py", "_train_mapping", "step")):
        pairs = {target.id for node in ast.walk(fn) if isinstance(node, ast.Assign)
                 and isinstance(node.value, ast.Call) and ast.unparse(node.value.func) == "WorstCase"
                 for target in node.targets if isinstance(target, ast.Name)}
        branched = {id(node) for branch in ast.walk(fn) if isinstance(branch, ast.If)
                    for node in ast.walk(branch)}
        reads = [node for node in ast.walk(fn)
                 if isinstance(node, ast.Attribute) and node.attr in ("grad", "grad_u")]
        assert len(pairs) == 1 and reads, fn.name
        for read in reads:
            assert ast.unparse(read.value) == f"{next(iter(pairs))}.best()", ast.unparse(read)
            assert id(read) not in branched, ast.unparse(read)


def test_only_the_factor_pass_scatters():
    """In ``factorization``, only ``_Pass`` sums per-rating rows into the touched rows.

    Every factor gradient is a scatter of the one kernel. A scatter is a call of
    ``np.bincount`` or ``np.add.at``, or of a function that makes one; a caller
    outside ``_Pass`` would be a second gradient formula. The pass's public
    gradients, ``grad`` and ``grad_u``, are the kernel's reads: calling one makes
    no scatter of the caller's own. Inside ``_Pass`` one method scatters: the
    update's gradient of the table's rows and the ascent's of the user half are
    the same scatter.
    """
    tree = ast.parse((ROOT / "src" / "scdr" / "factorization.py").read_text(encoding="utf-8"))
    scope = {fn: top.name for top in tree.body for fn in ast.walk(top)
             if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))}

    def callees(fn):
        for node in ast.walk(fn):
            if isinstance(node, ast.Call):
                name = ast.unparse(node.func)
                yield "add.at" if name.endswith("add.at") else name.rpartition(".")[2]

    scatters, reads = {"bincount", "add.at"}, {"grad", "grad_u"}
    while more := {fn.name for fn in scope if scatters & set(callees(fn))} - scatters - reads:
        scatters |= more
    assert {scope[fn] for fn in scope if scatters & set(callees(fn))} == {"_Pass"}
    assert {fn.name for fn in scope if {"bincount", "add.at"} & set(callees(fn))} == {"_scatter"}


def test_only_the_touched_rows_helper_sorts():
    """In ``factorization``, only ``_touched`` calls a sort.

    A batch numbers its rows through index tables, without a sort. Only the
    objective's weight-decay term and ``mf_grad``'s per-row gradients need each
    touched row once, in sorted order, and both get it from ``_touched``. A call
    of ``argsort``, ``sort``, ``lexsort`` or ``np.unique`` anywhere else would put
    a per-step sort back.
    """
    tree = ast.parse((ROOT / "src" / "scdr" / "factorization.py").read_text(encoding="utf-8"))
    scope = {id(node): top.name for top in tree.body if hasattr(top, "name")
             for node in ast.walk(top)}
    sorts = {"argsort", "sort", "lexsort", "unique"}
    callers = {scope.get(id(node), "<module>") for node in ast.walk(tree)
               if isinstance(node, ast.Call)
               and ast.unparse(node.func).rpartition(".")[2] in sorts}
    assert callers == {"_touched"}


def test_only_the_fit_check_reads_the_scenario_shape():
    """The fact "these factor models fit this scenario" is checked by ``mapping._check_fit``.

    In ``mapping`` and ``analysis``, only it reads a domain's ``n_users`` or ``n_items``,
    and no function in ``cli`` reads a model's ``U``, ``V`` or ``d``. A shape or width
    check anywhere else would be a second copy of the fact, as the CLI's once were.
    """
    def readers(module, names):
        tree = ast.parse((ROOT / "src" / "scdr" / f"{module}.py").read_text(encoding="utf-8"))
        scope = {id(node): top.name for top in tree.body if hasattr(top, "name")
                 for node in ast.walk(top)}
        return {scope.get(id(node), "<module>") for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr in names}

    assert readers("cli", {"U", "V", "d"}) == set()
    shape = {"n_users", "n_items"}
    assert readers("mapping", shape) | readers("analysis", shape) == {"_check_fit"}


def test_every_public_name_has_a_reader():
    """Each public module-level name of ``src/scdr`` is read outside its own definition.

    A name counts as read when a ``Name`` load, an ``Attribute`` load or a ``from ... import``
    names it in the package, in the acceptance suite or in the benchmark (the tracer's
    wrapped attributes included). A public name that only unit tests read is code the CLI,
    the paper's method and the gates do not need.
    """
    sources = sorted((ROOT / "src" / "scdr").glob("*.py"))
    readers = [*sources, ROOT / "tests" / "test_acceptance.py", *sorted(PERFBENCH.glob("*.py"))]
    reads = {(name, None, 0) for _, name in load_perfbench("spans").WRAPPED}
    for path in readers:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.add((node.id, path, node.lineno))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.add((node.attr, path, node.lineno))
            elif isinstance(node, ast.ImportFrom):
                reads.update((alias.name, path, node.lineno) for alias in node.names)
    unread = []
    for path in sources:
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                names = [top.name]
            elif isinstance(top, (ast.Assign, ast.AnnAssign)):
                targets = top.targets if isinstance(top, ast.Assign) else [top.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            own = range(top.lineno, top.end_lineno + 1)
            unread += [f"{path.stem}.{name}" for name in names if not name.startswith("_")
                       and not any(read == name and not (where == path and line in own)
                                   for read, where, line in reads)]
    assert not unread, f"public names that nothing but unit tests read: {unread}"
