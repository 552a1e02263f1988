"""Command-line entry point.

Subcommands cover the full workflow: ``synth`` writes a synthetic scenario,
``pretrain`` fits the per-domain factor models (plain or sharpness-aware),
``train`` fits a mapping (emcdr | scdr | scdr_minus), and ``eval`` /
``attack`` / ``landscape`` / ``sharpness`` produce report files. Every
command is a pure function of (config file, input files, seed): re-runs are
byte-identical. Existing outputs are never overwritten without --force, and
a command that fails before it renames its outputs into place leaves every
output as it was. Each command imports the modules it runs, so that a stage
process, which may compile them from source, compiles no module it never calls.

Exit codes: 0 success, 2 validation error (or too large an allocation, or a
failed output rename), 3 numeric divergence, 4 missing input.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import os
import sys
from contextlib import contextmanager, suppress
from pathlib import Path

from . import data
from .errors import DivergenceError, MissingInputError, ValidationError

# ``synth`` reads the default scenario from SyntheticSpec, its one statement. Training takes
# one ascent step per update, as SAM does; the probe, a measurement, takes five.
DEFAULT_CONFIG: dict = {
    "seed": 0,
    "out": "runs/default",
    "synth": {f.name: f.default for f in dataclasses.fields(data.SyntheticSpec)
              if f.name != "seed"},
    "pretrain": {
        "epochs": 30,
        "learning_rate": 0.01,
        "batch_size": 256,
        "weight_decay": 0.0,
        "init_std": 0.01,
        "dim": 10,
        "rho": 0.05,
        "k": 1,
    },
    "train": {
        "epochs": 300,
        "learning_rate": 0.01,
        "batch_size": 256,
        "hidden": 50,
        "rho": 0.3,
        "k": 1,
    },
    "attack": {"epsilons": [0.0, 0.25, 0.5, 0.75, 1.0]},
    "landscape": {"resolution": 21, "n_samples": None},
    "sharpness": {"rho": 0.3, "k": 5},
}

METHODS = ("emcdr", "scdr", "scdr_minus")
MODES = ("plain", "sharpness_aware")

# scdr consumes sharpness-aware pretraining; the baseline and the ablation
# without it consume plain checkpoints
_METHOD_MODE = {"emcdr": "plain", "scdr": "sharpness_aware", "scdr_minus": "plain"}


# Kind of each config value whose default is None: an optional number.
_OPTIONAL_KINDS = {"landscape.n_samples": int}


def _typed(name: str, default, value):
    """``value`` read as the kind of its default; ValidationError names the key."""
    kind = _OPTIONAL_KINDS.get(name, type(default))
    if value is None and name in _OPTIONAL_KINDS:
        return None
    try:
        if kind is list:
            if not isinstance(value, list):
                raise TypeError
            return [data.number(float, v, name) for v in value]
        if kind in (int, float):
            value = data.number(kind, value, name)
            if name == "seed" and value < 0:
                raise ValueError
            return value
        if not isinstance(value, kind):
            raise TypeError
        return value
    except (TypeError, ValueError, OverflowError):
        expected = {list: "a list of finite numbers", float: "a finite float"}.get(
            kind, "a non-negative int" if name == "seed" else kind.__name__)
        raise ValidationError(f"config value {name} must be {expected}, got {value!r}") from None


def load_config(path: str | None) -> dict:
    """Defaults merged with the optional JSON config file; flags win later.

    Every value given in the file is read as the kind of its default, so
    commands see typed values.
    """
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if path is None:
        return cfg
    with data.json_document(path, "config file") as (user, _):
        for key, value in user.items():
            if key not in cfg:
                raise ValidationError(f"unknown config key {key!r}")
            if isinstance(cfg[key], dict):
                if not isinstance(value, dict):
                    raise ValidationError(f"config section {key!r} must be an object")
                for sub, subval in value.items():
                    if sub not in cfg[key]:
                        raise ValidationError(f"unknown config key {key}.{sub}")
                    cfg[key][sub] = _typed(f"{key}.{sub}", cfg[key][sub], subval)
            else:
                cfg[key] = _typed(key, cfg[key], value)
    return cfg


@contextmanager
def _check_outputs(paths, force: bool):
    """Guard the ``with`` body that computes ``paths``; it yields their staging paths.

    Without ``force``, an existing output raises before the body runs; so,
    with or without it, does an output or staging path held by anything but
    a regular file (a directory, say). The body writes each output to its
    staging path, ``.<name>.staged`` beside it, and only once the body
    completes do the staged files replace the outputs, one rename at a
    time. A body that raises leaves every output as it was. A rename that
    fails raises a ValidationError naming it: the outputs renamed before it
    are new and the others old; ``load_scenario`` refuses the mixes that a
    later command would read.
    """
    paths = [Path(p) for p in paths]
    staged = [p.with_name(f".{p.name}.staged") for p in paths]
    for p in [*paths, *staged]:
        if p.exists() and not p.is_file():
            raise ValidationError(f"{p} exists and is not a regular file")
    existing = [p for p in paths if p.exists()]
    if existing and not force:
        raise ValidationError(
            "refusing to overwrite existing outputs (use --force): "
            + ", ".join(map(str, existing))
        )
    try:
        yield staged
        for done, (s, p) in enumerate(zip(staged, paths)):
            try:
                os.replace(s, p)
            except OSError as exc:
                raise ValidationError(
                    f"cannot rename {s} to {p}: {exc.strerror or exc}; new outputs "
                    f"renamed before it: {', '.join(map(str, paths[:done])) or 'none'}") from exc
    except BaseException:
        for s in staged:
            # the body's exception is the one to report, not a failed cleanup
            with suppress(OSError):
                s.unlink(missing_ok=True)
        raise


def _train_config(section: dict, seed: int):
    """The section's TrainConfig fields."""
    from . import factorization
    names = {f.name for f in dataclasses.fields(factorization.TrainConfig)}
    return factorization.TrainConfig(seed=seed, **{k: v for k, v in section.items() if k in names})


def _perturb_config(section: dict):
    from .perturbation import PerturbConfig
    return PerturbConfig(rho=section["rho"], k=section["k"])


def _mapping_config(section: dict, seed: int):
    """The ``train`` section's mapping config; emcdr reads only its ``base`` and ``hidden``."""
    from . import mapping
    return mapping.ScdrTrainConfig(base=_train_config(section, seed),
                                   perturb=_perturb_config(section), hidden=section["hidden"])


def _write_trace(trace: list[float], path: Path) -> None:
    data.write_csv(path, "epoch,loss", enumerate(trace))


def cmd_synth(cfg: dict, out: Path, seed: int, force: bool) -> None:
    spec = data.SyntheticSpec(seed=seed, **cfg["synth"])
    blocker = next(p for p in (out, *out.parents) if p.exists())
    if not blocker.is_dir():
        raise ValidationError(f"cannot make output directory {out}: {blocker} is not a directory")
    outputs = [out / n for n in
               ("source_ratings.csv", "target_ratings.csv", "scenario.json", "ground_truth.npy",
                "source_ratings.csv.npy", "target_ratings.csv.npy")]
    with _check_outputs(outputs, force) as staged:
        scenario, sidecar = data.generate_synthetic(spec)
        out.mkdir(parents=True, exist_ok=True)
        digests = (data.write_ratings(scenario.source, staged[0], snapshot=staged[4]),
                   data.write_ratings(scenario.target, staged[1], snapshot=staged[5]))
        data.save_manifest(scenario, staged[2], "source_ratings.csv", "target_ratings.csv",
                           digests)
        data.save_sidecar(sidecar, staged[3])
    print(f"wrote scenario with {len(scenario.overlap)} overlapping users to {out}")


def cmd_pretrain(cfg: dict, out: Path, seed: int, force: bool, mode: str) -> None:
    from . import factorization
    scenario = data.load_scenario(out / "scenario.json")
    section = cfg["pretrain"]
    train_cfg = _train_config(section, seed)
    perturb = _perturb_config(section)  # checked in plain mode too, which runs no ascent
    outputs = [out / f"factor_models_{mode}.npy", out / f"source_trace_{mode}.csv",
               out / f"target_trace_{mode}.csv"]

    def fit(domain, dataset):
        try:
            return (factorization.train_mf(dataset, train_cfg) if mode == "plain"
                    else factorization.train_smf(dataset, train_cfg, perturb))
        except DivergenceError as exc:
            raise DivergenceError(f"{domain} model: {exc}") from exc

    with _check_outputs(outputs, force) as staged:
        src = fit("source", scenario.source)
        # built once the source has trained, so the two domains' peaks do not add up
        tgt = fit("target", scenario.target_training_dataset())
        factorization.save_factor_model((src.model, tgt.model), staged[0], scenario.inputs)
        _write_trace(src.loss_trace, staged[1])
        _write_trace(tgt.loss_trace, staged[2])
    print(f"pretrained {mode} factor models (final losses "
          f"{src.loss_trace[-1] if src.loss_trace else float('nan'):.4f} / "
          f"{tgt.loss_trace[-1] if tgt.loss_trace else float('nan'):.4f})")


def _load_train_inputs(out: Path, method: str):
    """The scenario, the ``(source, target)`` factor models that one ``pretrain`` run wrote
    to one checkpoint for ``method``, and a mapping's ``inputs`` (that checkpoint's sha256)."""
    from . import factorization
    scenario = data.load_scenario(out / "scenario.json")
    (src_model, tgt_model), digest = factorization.load_factor_model(
        out / f"factor_models_{_METHOD_MODE[method]}.npy", scenario.inputs)
    return scenario, src_model, tgt_model, {"factor_models": digest}


def cmd_train(cfg: dict, out: Path, seed: int, force: bool, method: str) -> None:
    from . import mapping
    scenario, src_model, tgt_model, inputs = _load_train_inputs(out, method)
    # the ascent settings are checked for emcdr too, which runs no ascent
    train_cfg = _mapping_config(cfg["train"], seed)
    outputs = [out / f"mapping_{method}.npy", out / f"mapping_trace_{method}.csv"]
    with _check_outputs(outputs, force) as staged:
        if method == "emcdr":
            result = mapping.emcdr_train(scenario, src_model, tgt_model, train_cfg.base,
                                         hidden=train_cfg.hidden)
        else:
            result = mapping.scdr_train(scenario, src_model, tgt_model, train_cfg)
        mapping.save_mapping(result.net, staged[0], inputs=inputs)
        _write_trace(result.loss_trace, staged[1])
    print(f"trained {method} mapping (final loss "
          f"{result.loss_trace[-1] if result.loss_trace else float('nan'):.4f})")


def _load_eval_inputs(out: Path, method: str):
    """The scenario, both factor models, the mapping and a report's ``inputs`` (its sha256)."""
    from . import mapping
    scenario, src_model, tgt_model, inputs = _load_train_inputs(out, method)
    net, digest = mapping.load_mapping(out / f"mapping_{method}.npy", inputs)
    return scenario, src_model, tgt_model, net, {"mapping": digest}


def cmd_eval(cfg: dict, out: Path, seed: int, force: bool, method: str) -> None:
    from . import analysis
    scenario, src_model, tgt_model, net, inputs = _load_eval_inputs(out, method)
    with _check_outputs([out / f"eval_{method}.json"], force) as (staged,):
        report = analysis.evaluate(net, src_model, tgt_model, scenario)
        analysis.save_eval_report(report, staged, inputs)
    print(f"{method}: MAE {report.mae:.4f}  RMSE {report.rmse:.4f}  (n={report.n})")


def cmd_attack(cfg: dict, out: Path, seed: int, force: bool, method: str) -> None:
    from . import analysis
    scenario, src_model, tgt_model, net, inputs = _load_eval_inputs(out, method)
    with _check_outputs([out / f"attack_{method}.json"], force) as (staged,):
        entries = analysis.fgsm_sweep(net, src_model, tgt_model, scenario,
                                      cfg["attack"]["epsilons"])
        analysis.save_attack_report(entries, staged, inputs)
    for eps, report in entries:
        print(f"{method} eps={eps:g}: MAE {report.mae:.4f}  RMSE {report.rmse:.4f}")


def cmd_landscape(cfg: dict, out: Path, seed: int, force: bool, method: str) -> None:
    from . import analysis
    scenario, src_model, tgt_model, net, _ = _load_eval_inputs(out, method)
    spec = analysis.LandscapeSpec(**cfg["landscape"], seed=seed)
    with _check_outputs([out / f"landscape_{method}.csv"], force) as (staged,):
        grid = analysis.landscape_grid(net, src_model, tgt_model, scenario, spec)
        analysis.save_landscape(grid, staged)
    print(f"{method}: {grid.loss.shape[0]}x{grid.loss.shape[1]} landscape grid, "
          f"loss range [{grid.loss.min():.4f}, {grid.loss.max():.4f}], "
          f"averaged over {grid.n_samples} test pairs")


def cmd_sharpness(cfg: dict, out: Path, seed: int, force: bool, method: str) -> None:
    from . import analysis
    scenario, src_model, tgt_model, net, inputs = _load_eval_inputs(out, method)
    with _check_outputs([out / f"sharpness_{method}.json"], force) as (staged,):
        report = analysis.lipschitz_estimate(net, src_model, tgt_model, scenario,
                                             _perturb_config(cfg["sharpness"]))
        analysis.save_sharpness_report(report, staged, inputs)
    print(f"{method}: lipschitz estimate {report.lipschitz_estimate:.6f} "
          f"over {report.n_users} users ({report.n_skipped} skipped)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scdr",
        description="Sharpness-aware cross-domain recommendation workflows",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, run, help_text, method=False, mode=False):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=run)
        p.add_argument("--config", default=None, help="JSON config file (defaults built in)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="override the output directory")
        p.add_argument("--force", action="store_true", help="allow overwriting outputs")
        if method:
            p.add_argument("--method", choices=METHODS, required=True)
        if mode:
            p.add_argument("--mode", choices=MODES, default="plain")
        return p

    add("synth", cmd_synth, "generate a synthetic two-domain scenario")
    add("pretrain", cmd_pretrain, "train per-domain factor models", mode=True)
    add("train", cmd_train, "train a cross-domain mapping", method=True)
    add("eval", cmd_eval, "cold-start MAE/RMSE report", method=True)
    add("attack", cmd_attack, "FGSM robustness sweep", method=True)
    add("landscape", cmd_landscape, "2-D loss landscape grid export", method=True)
    add("sharpness", cmd_sharpness, "Lipschitz sharpness estimate", method=True)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg["seed"] = _typed("seed", 0, args.seed)
        if args.out is not None:
            cfg["out"] = args.out
        # --mode and --method exist only on the subcommands whose run takes them
        options = {k: getattr(args, k) for k in ("mode", "method") if k in args}
        args.run(cfg, Path(cfg["out"]), cfg["seed"], args.force, **options)
    except MissingInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # the inputs and config ask for more memory than there is; the staging guard
        # has removed any partial output
        print(f"error: {args.command}: out of memory: {exc or 'an allocation failed'}",
              file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
