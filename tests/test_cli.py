from __future__ import annotations

import errno
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import scdr.data
import scdr.factorization
import scdr.mapping
from scdr.cli import _check_outputs, load_config, main
from scdr.errors import ValidationError
from scdr.factorization import load_factor_model
from scdr.mapping import MappingNet, load_mapping, save_mapping

from conftest import count_ascent_work, fail_halfway, load_records, rewrite_header, rewrite_record, same_dataset


def small_config(out, seed=1):
    return {
        "seed": seed,
        "out": str(out),
        "synth": {"users": 120, "items": 60, "overlap_ratio": 0.25, "dim": 6,
                  "noise": 0.2, "map_kind": "tanh", "beta": 0.5, "ratings_per_user": 15},
        "pretrain": {"epochs": 10, "dim": 6, "rho": 0.05, "k": 3},
        "train": {"epochs": 40, "rho": 0.2, "k": 3},
        "landscape": {"resolution": 5, "n_samples": 50},
    }


def write_config(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def run(*args):
    return main(list(args))


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One full pipeline run shared by the read-only CLI tests."""
    base = tmp_path_factory.mktemp("cli")
    out = base / "run"
    cfg = write_config(base, small_config(out))
    assert run("synth", "--config", cfg) == 0
    assert run("pretrain", "--config", cfg, "--mode", "plain") == 0
    assert run("pretrain", "--config", cfg, "--mode", "sharpness_aware") == 0
    for method in ("emcdr", "scdr", "scdr_minus"):
        assert run("train", "--config", cfg, "--method", method) == 0
        assert run("eval", "--config", cfg, "--method", method) == 0
    assert run("attack", "--config", cfg, "--method", "scdr") == 0
    assert run("landscape", "--config", cfg, "--method", "scdr") == 0
    assert run("sharpness", "--config", cfg, "--method", "scdr") == 0
    return out, cfg


class TestPipeline:
    def test_outputs_exist(self, pipeline):
        out, _ = pipeline
        expected = [
            "source_ratings.csv", "target_ratings.csv", "scenario.json", "ground_truth.npy",
            "source_ratings.csv.npy", "target_ratings.csv.npy", "source_model_plain.npy", "target_model_plain.npy",
            "source_model_sharpness_aware.npy", "target_model_sharpness_aware.npy",
            "mapping_emcdr.npy", "mapping_scdr.npy", "mapping_scdr_minus.npy",
            "eval_emcdr.json", "eval_scdr.json", "eval_scdr_minus.json",
            "attack_scdr.json", "landscape_scdr.csv", "sharpness_scdr.json",
        ]
        for name in expected:
            assert (out / name).exists(), name

    def test_attack_first_row_equals_eval(self, pipeline):
        out, _ = pipeline
        attack = json.loads((out / "attack_scdr.json").read_text())
        eval_doc = json.loads((out / "eval_scdr.json").read_text())
        first = attack["entries"][0]
        assert first["epsilon"] == 0.0
        assert first["mae"] == eval_doc["mae"]
        assert first["rmse"] == eval_doc["rmse"]
        assert first["n"] == eval_doc["n"]

    def test_landscape_rows(self, pipeline):
        out, _ = pipeline
        lines = (out / "landscape_scdr.csv").read_text().splitlines()
        assert lines[0] == "zeta,gamma,loss"
        assert len(lines) == 1 + 25

    def test_refuses_overwrite_without_force(self, pipeline):
        out, cfg = pipeline
        assert run("synth", "--config", cfg) == 2
        assert run("eval", "--config", cfg, "--method", "scdr") == 2

    def test_force_overwrites(self, pipeline):
        out, cfg = pipeline
        before = digest(out / "eval_scdr.json")
        assert run("eval", "--config", cfg, "--method", "scdr", "--force") == 0
        assert digest(out / "eval_scdr.json") == before


class TestValidation:
    def test_invalid_synth_writes_nothing(self, tmp_path):
        cfg_doc = small_config(tmp_path / "run")
        cfg_doc["synth"]["overlap_ratio"] = 0.0
        cfg = write_config(tmp_path, cfg_doc)
        assert run("synth", "--config", cfg) == 2
        assert not (tmp_path / "run").exists()

    def test_missing_scenario_is_exit_4(self, tmp_path):
        cfg = write_config(tmp_path, small_config(tmp_path / "run"))
        assert run("pretrain", "--config", cfg, "--mode", "plain") == 4

    def test_missing_checkpoints_is_exit_4(self, tmp_path):
        cfg = write_config(tmp_path, small_config(tmp_path / "run"))
        assert run("synth", "--config", cfg) == 0
        assert run("eval", "--config", cfg, "--method", "emcdr") == 4

    def test_divergence_is_exit_3(self, tmp_path):
        cfg_doc = small_config(tmp_path / "run")
        cfg_doc["pretrain"]["learning_rate"] = 50.0
        cfg = write_config(tmp_path, cfg_doc)
        assert run("synth", "--config", cfg) == 0
        assert run("pretrain", "--config", cfg, "--mode", "plain") == 3
        assert not (tmp_path / "run" / "source_model_plain.npy").exists()

    def test_sharpness_aware_divergence_names_epoch(self, tmp_path, capsys):
        # the ascent meets the blow-up first; the error still names where
        cfg_doc = small_config(tmp_path / "run")
        cfg_doc["pretrain"]["learning_rate"] = 50.0
        cfg = write_config(tmp_path, cfg_doc)
        assert run("synth", "--config", cfg) == 0
        listing = sorted(p.name for p in (tmp_path / "run").iterdir())
        capsys.readouterr()
        assert run("pretrain", "--config", cfg, "--mode", "sharpness_aware") == 3
        err = capsys.readouterr().err
        assert "loss is non-finite at the unperturbed origin (epoch 0, learning_rate 50.0)" in err
        assert sorted(p.name for p in (tmp_path / "run").iterdir()) == listing

    def test_mapping_divergence_is_exit_3(self, tmp_path, capsys):
        # the first update blows the net up; the next mini-batch's ascent
        # meets the overflow and training stops before writing anything
        cfg_doc = small_config(tmp_path / "run")
        cfg_doc["train"].update(learning_rate=1e200, batch_size=4)
        cfg = write_config(tmp_path, cfg_doc)
        assert run("synth", "--config", cfg) == 0
        assert run("pretrain", "--config", cfg, "--mode", "sharpness_aware") == 0
        capsys.readouterr()
        assert run("train", "--config", cfg, "--method", "scdr") == 3
        err = capsys.readouterr().err
        assert "unperturbed origin" in err
        assert "(epoch " in err and "learning_rate 1e+200" in err
        assert not (tmp_path / "run" / "mapping_scdr.npy").exists()
        assert not (tmp_path / "run" / "mapping_trace_scdr.csv").exists()

    def test_emcdr_blow_up_is_exit_3(self, tmp_path, capsys):
        # the wide-overlap benchmark data: 800 train users make emcdr's summed
        # objective step too far at the default rate, with every weight finite
        out = tmp_path / "run"
        cfg = write_config(tmp_path, {
            "seed": 1, "out": str(out),
            "synth": {"overlap_ratio": 0.5, "beta": 0.2},
            "pretrain": {"epochs": 3},
            "train": {"epochs": 10},
        })
        assert run("synth", "--config", cfg) == 0
        assert run("pretrain", "--config", cfg, "--mode", "plain") == 0
        capsys.readouterr()
        assert run("train", "--config", cfg, "--method", "emcdr") == 3
        err = capsys.readouterr().err
        assert "times the untrained net's (epoch 1, learning_rate 0.01)" in err
        assert not (out / "mapping_emcdr.npy").exists()
        assert not (out / "mapping_trace_emcdr.csv").exists()

    @pytest.mark.parametrize("stage, failing", [
        (0, "ground_truth.npy"),
        (1, "target_trace_plain.csv"),
        (2, "mapping_emcdr.npy"),
        (2, "mapping_trace_emcdr.csv"),
    ])
    def test_failed_checkpoint_write_leaves_no_partial_file(self, tmp_path, monkeypatch,
                                                            stage, failing):
        # a write fails after the stage has already written its earlier outputs
        stages = [("synth",), ("pretrain", "--mode", "plain"), ("train", "--method", "emcdr")]
        out = tmp_path / "run"
        cfg = write_config(tmp_path, small_config(out))
        for earlier in stages[:stage]:
            assert run(*earlier, "--config", cfg) == 0
        out.mkdir(exist_ok=True)
        before = sorted(p.name for p in out.iterdir())
        with monkeypatch.context() as patch:
            fail_halfway(patch, failing)
            with pytest.raises(OSError):
                run(*stages[stage], "--config", cfg)
        assert sorted(p.name for p in out.iterdir()) == before
        # nothing half-written is left for the no-overwrite rule to guard
        assert run(*stages[stage], "--config", cfg) == 0

    def test_crashed_force_run_keeps_every_output(self, tmp_path, monkeypatch):
        # a --force re-run that fails partway must not leave new outputs beside old ones
        out = tmp_path / "run"
        cfg_doc = small_config(out)
        cfg_doc["pretrain"]["epochs"] = 2
        cfg = write_config(tmp_path, cfg_doc)
        assert run("synth", "--config", cfg) == 0
        assert run("pretrain", "--config", cfg, "--mode", "plain") == 0
        before = {p.name: digest(p) for p in out.iterdir()}
        cfg_doc["pretrain"]["epochs"] = 7
        longer = write_config(tmp_path, cfg_doc, "longer.json")
        with monkeypatch.context() as patch:
            fail_halfway(patch, "target_model_plain.npy")
            with pytest.raises(OSError):
                run("pretrain", "--config", longer, "--mode", "plain", "--force")
        assert {p.name: digest(p) for p in out.iterdir()} == before

    def test_synth_refuses_existing_snapshot(self, tmp_path, capsys):
        out = tmp_path / "run"
        out.mkdir()
        (out / "target_ratings.csv.npy").write_bytes(b"old")
        cfg = write_config(tmp_path, small_config(out))
        assert run("synth", "--config", cfg) == 2
        assert "target_ratings.csv.npy" in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == ["target_ratings.csv.npy"]
        assert (out / "target_ratings.csv.npy").read_bytes() == b"old"

    def test_synth_into_existing_file_exits_2(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "run"
        out.write_bytes(b"old")
        cfg = write_config(tmp_path, small_config(out))

        def refuse(spec):
            raise AssertionError("generated a scenario for an output path that cannot be made")

        monkeypatch.setattr("scdr.data.generate_synthetic", refuse)
        for target in (out, out / "sub"):
            assert run("synth", "--config", cfg, "--out", str(target)) == 2
            assert f"{out} is not a directory" in capsys.readouterr().err
        assert out.read_bytes() == b"old"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "run"]

    def test_failed_cleanup_keeps_the_body_exception(self, tmp_path):
        # staging beside a regular file: the cleanup's own unlink fails too
        blocker = tmp_path / "file"
        blocker.write_bytes(b"")
        with pytest.raises(RuntimeError, match="body"):
            with _check_outputs([blocker / "out.json"], force=False):
                raise RuntimeError("body")

    def test_crashed_force_synth_keeps_old_snapshots(self, tmp_path, monkeypatch):
        out = tmp_path / "run"
        cfg = write_config(tmp_path, small_config(out))
        assert run("synth", "--config", cfg) == 0
        before = {p.name: digest(p) for p in out.iterdir()}
        assert "source_ratings.csv.npy" in before and "target_ratings.csv.npy" in before
        with monkeypatch.context() as patch:
            # the last output written; both new snapshots are staged by then
            fail_halfway(patch, "ground_truth.npy")
            with pytest.raises(OSError):
                run("synth", "--config", cfg, "--seed", "7", "--force")
        assert {p.name: digest(p) for p in out.iterdir()} == before

    def test_factor_checkpoints_of_another_scenario_exit_2(self, tmp_path, capsys):
        # checkpoints of the seed-1 scenario have the shapes of the seed-7 one
        out = tmp_path / "run"
        cfg = write_config(tmp_path, small_config(out))
        assert run("synth", "--config", cfg, "--seed", "1") == 0
        assert run("pretrain", "--config", cfg, "--mode", "sharpness_aware") == 0
        assert run("train", "--config", cfg, "--method", "scdr") == 0
        assert run("synth", "--config", cfg, "--seed", "7", "--force") == 0
        before = {p.name: digest(p) for p in out.iterdir()}
        capsys.readouterr()
        assert run("eval", "--config", cfg, "--method", "scdr") == 2
        err = capsys.readouterr().err
        assert "stale factor checkpoint" in err and "source_model_sharpness_aware.npy" in err
        assert run("train", "--config", cfg, "--method", "scdr", "--force") == 2
        assert {p.name: digest(p) for p in out.iterdir()} == before

    def test_factor_checkpoints_of_two_pretrain_runs_exit_2(self, run_copy, tmp_path, capsys):
        # both checkpoints record the same scenario inputs and config, but not the same
        # perturb; TestFailedRename mixes two configs
        out, cfg = run_copy
        cfg_doc = small_config(out)
        cfg_doc["pretrain"]["k"] = 2
        other = write_config(tmp_path, cfg_doc, "other.json")
        old_target = (out / "target_model_sharpness_aware.npy").read_bytes()
        assert run("pretrain", "--config", other, "--mode", "sharpness_aware", "--force") == 0
        (out / "target_model_sharpness_aware.npy").write_bytes(old_target)
        before = listing(out)
        capsys.readouterr()
        for command in ("train", "eval"):
            assert run(command, "--config", cfg, "--method", "scdr", "--force") == 2
            assert "record different training settings" in capsys.readouterr().err
        assert listing(out) == before

    def test_mapping_of_other_factor_checkpoints_exit_2(self, tmp_path, capsys):
        # the mapping was trained on the 2-epoch checkpoints that --force replaced
        out = tmp_path / "run"
        cfg_doc = small_config(out)
        cfg_doc["pretrain"]["epochs"] = 2
        cfg = write_config(tmp_path, cfg_doc)
        assert run("synth", "--config", cfg) == 0
        assert run("pretrain", "--config", cfg, "--mode", "sharpness_aware") == 0
        assert run("train", "--config", cfg, "--method", "scdr") == 0
        cfg_doc["pretrain"]["epochs"] = 9
        longer = write_config(tmp_path, cfg_doc, "longer.json")
        assert run("pretrain", "--config", longer, "--mode", "sharpness_aware", "--force") == 0
        before = {p.name: digest(p) for p in out.iterdir()}
        for command in ("eval", "attack", "landscape", "sharpness"):
            capsys.readouterr()
            assert run(command, "--config", longer, "--method", "scdr") == 2, command
            err = capsys.readouterr().err
            assert "stale mapping checkpoint" in err and "mapping_scdr.npy" in err
        assert {p.name: digest(p) for p in out.iterdir()} == before

    def test_unknown_config_key(self, tmp_path):
        cfg = write_config(tmp_path, {"sed": 1})
        assert run("synth", "--config", cfg) == 2

    def test_unknown_section_key(self, tmp_path):
        cfg = write_config(tmp_path, {"train": {"epoch": 3}})
        assert run("synth", "--config", cfg) == 2

    def test_malformed_config(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert run("synth", "--config", str(p)) == 2
        p.write_text('{"synth": ' + "[" * 100_000 + "]" * 100_000 + "}")
        assert run("synth", "--config", str(p)) == 2

    def test_missing_config_file(self, tmp_path):
        assert run("synth", "--config", str(tmp_path / "none.json")) == 4

    def test_load_config_defaults(self):
        cfg = load_config(None)
        assert cfg["train"]["hidden"] == 50
        assert cfg["attack"]["epsilons"] == [0.0, 0.25, 0.5, 0.75, 1.0]
        # training ascends once per step; the sharpness probe keeps five steps
        assert cfg["pretrain"]["k"] == cfg["train"]["k"] == 1
        assert cfg["sharpness"]["k"] == 5

    def test_load_config_rejects_non_object(self, tmp_path):
        p = tmp_path / "arr.json"
        p.write_text("[1, 2]")
        with pytest.raises(ValidationError):
            load_config(str(p))


class TestDefaultAscentWork:
    def test_one_ascent_step_per_training_step(self, tmp_path, monkeypatch):
        """With ``k`` unset, each sharpness-aware pretraining ascent reads 2 losses and
        1 gradient, and each scdr mapping batch runs 2 kernel forwards: the origin and
        the one step, whose pass the update reads, since the step raises every row's loss.

        Beyond the batches, mapping training runs one forward per epoch loss and one
        for the untrained bound.
        """
        doc = small_config(tmp_path / "run")
        del doc["pretrain"]["k"], doc["train"]["k"]
        cfg = write_config(tmp_path, doc)
        assert run("synth", "--config", cfg) == 0
        counts = count_ascent_work(monkeypatch, scdr.factorization)
        assert run("pretrain", "--config", cfg, "--mode", "sharpness_aware") == 0
        steps = counts["calls"]
        assert steps > 0 and counts == {"calls": steps, "loss": 2 * steps, "grad": steps}

        forwards, kernel = [0], scdr.mapping._kernel

        def recording(*args):
            forwards[0] += 1
            return kernel(*args)

        monkeypatch.setattr(scdr.mapping, "_kernel", recording)
        counts = count_ascent_work(monkeypatch, scdr.mapping)
        assert run("train", "--config", cfg, "--method", "scdr") == 0
        batches = counts["calls"]
        assert batches > 0 and forwards[0] == 2 * batches + doc["train"]["epochs"] + 1


@pytest.fixture
def run_copy(pipeline, tmp_path):
    """A private copy of the shared run directory without its eval and attack reports."""
    out = tmp_path / "run"
    shutil.copytree(pipeline[0], out)
    for name in ("eval_scdr.json", "attack_scdr.json"):
        (out / name).unlink()
    return out, write_config(tmp_path, small_config(out))


def truncate(path):
    raw = path.read_bytes()
    path.write_bytes(raw[:min(500, len(raw) // 2)])


def truncate_to(size):
    def corrupt(path):
        path.write_bytes(path.read_bytes()[:size])
    return corrupt


def rewrite_snapshot(position, convert):
    """Replace array ``position`` of a rating snapshot by ``convert`` of it; the digest stays."""
    return lambda path: rewrite_record(path, 7, position, convert)


def rewrite_checkpoint_u(convert, restamp=False):
    """Replace U, record 1 of a factor checkpoint, by ``convert`` of it (see ``rewrite_record``)."""
    return lambda path: rewrite_record(path, 3, 1, convert, restamp)


def checkpoint_header(**changes):
    """Set ``changes`` in a factor checkpoint's JSON header."""
    return lambda path: rewrite_header(path, **changes)


def as_version_2_json(path):
    """Put the version-2 JSON checkpoint of the same model at ``path``."""
    head, u, v = load_records(path, 3)
    doc = {**json.loads(head.item()), "format_version": 2, "U": u.tolist(), "V": v.tolist()}
    path.write_text(json.dumps(doc, sort_keys=True) + "\n")


def drop_key(key):
    def corrupt(path):
        doc = json.loads(path.read_text())
        del doc[key]
        path.write_text(json.dumps(doc))
    return corrupt


def as_directory(path):
    """Put an empty directory in place of the file at ``path``."""
    path.unlink()
    path.mkdir()


def listing(out):
    """Each entry of ``out`` by name: a file's sha256, or ``None`` for a directory."""
    return {p.name: None if p.is_dir() else digest(p) for p in out.iterdir()}


def set_key(key, value):
    def corrupt(path):
        doc = json.loads(path.read_text())
        doc[key] = value
        path.write_text(json.dumps(doc))
    return corrupt


def nan_at_origin(values):
    """A float copy of ``values`` with NaN as its first entry."""
    values = np.array(values, dtype=np.float64)
    values.flat[0] = math.nan
    return values


def flip_first_bit(values):
    """A copy of ``values`` with the lowest bit of its first byte flipped: a one-ulp change."""
    values = np.array(values)
    values.reshape(-1).view(np.uint8)[0] ^= 1
    return values


def rewrite_mapping_array(position, convert, restamp=False):
    """Replace record ``position`` of a mapping checkpoint by ``convert`` of it.

    Record 0 is the header and 1 to 4 are W1, b1, W2 and b2. ``restamp`` is
    ``rewrite_record``'s.
    """
    return lambda path: rewrite_record(path, 5, position, convert, restamp)


def mapping_header(edit):
    """Replace a mapping checkpoint's JSON header by ``edit`` of it; the arrays stay."""
    return lambda path: rewrite_record(path, 5, 0, lambda head: np.array(
        json.dumps(edit(json.loads(head.item())))))


def mapping_as_version_2_json(path):
    """Put the version-2 JSON checkpoint of the same net at ``path``."""
    head, w1, b1, w2, b2 = load_records(path, 5)
    doc = json.loads(head.item())
    doc.update(format_version=2, W1=w1.tolist(), b1=b1.tolist(), W2=w2.tolist(), b2=b2.tolist())
    path.write_text(json.dumps(doc, sort_keys=True) + "\n")


def mapping_as_version_4(path):
    """Put a version-4 checkpoint of the same net at ``path``, laid out as version 4 was:
    the header lists the train users, and a fifth array holds one source row per user."""
    head, *arrays = load_records(path, 5)
    users = json.loads((path.parent / "scenario.json").read_text())["train_users"]
    tuned = np.ones((len(users), arrays[3].shape[0]))
    doc = {**json.loads(head.item()), "format_version": 4, "tuned_users": users,
           "records": scdr.data._records_digest([*arrays, tuned])}
    with open(path, "wb") as fh:
        for arr in (np.array(json.dumps(doc, sort_keys=True)), *arrays, tuned):
            np.save(fh, arr, allow_pickle=False)


# how eval and the other analyses begin the error for a malformed mapping checkpoint
MALFORMED_MAPPING = "malformed mapping checkpoint {path}: "


def append_byte(path):
    """Put one stray byte after the file's last record."""
    with open(path, "ab") as fh:
        fh.write(b"\0")


def unclosed_npy_header(path):
    """Replace the file's first ``}``, the end of its first record's ``.npy`` header, by a space."""
    path.write_bytes(path.read_bytes().replace(b"}", b" ", 1))


def header_line(path):
    path.write_bytes(b"user,item,rating\n" + path.read_bytes())


def non_utf8_row_3(path):
    lines = path.read_bytes().split(b"\n")
    lines[2] = b"\xff" + lines[2]
    path.write_bytes(b"\n".join(lines))


@pytest.mark.parametrize("command", ["eval", "attack", "sharpness"])
def test_stored_split_is_used_without_numpy_random(run_copy, command):
    """The manifest stores the split, so these commands never import ``numpy.random``."""
    out, cfg = run_copy
    code = ("import sys\nfrom scdr.cli import main\n"
            f"code = main({[command, '--config', cfg, '--method', 'scdr', '--force']!r})\n"
            "print(code, 'numpy.random' in sys.modules)")
    # the child imports the same scdr as this process
    path = os.pathsep.join([str(Path(scdr.data.__file__).parents[1]),
                            *filter(None, [os.environ.get("PYTHONPATH")])])
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path})
    assert res.stdout.splitlines()[-1] == "0 False", res.stderr


class TestCorruptInputs:
    @pytest.mark.parametrize("name, corrupt, message", [
        ("source_ratings.csv", non_utf8_row_3, "row 3: "),
        ("target_ratings.csv", header_line, "row 1: rating 'rating' is not a number"),
        # a snapshot whose digest matches its rating file but whose payload is bad;
        # 500 bytes keep the digest record and cut the payload, 100 cut the record
        ("source_ratings.csv.npy", truncate, "unreadable rating snapshot"),
        ("source_ratings.csv.npy", truncate_to(100), "unreadable rating snapshot"),
        ("source_ratings.csv.npy", unclosed_npy_header,
         "source_ratings.csv.npy: array 0 has an unparsable header"),
        # the header of a snapshot written before it held the records' digest
        ("source_ratings.csv.npy", rewrite_snapshot(0, lambda head: head[0]),
         "source_ratings.csv.npy: array 0 is not 1-D U64"),
        ("target_ratings.csv.npy", rewrite_snapshot(3, lambda a: a.astype(np.int64)),
         "target_ratings.csv.npy: array 3 is not 1-D i4"),
        ("target_ratings.csv.npy", rewrite_snapshot(5, lambda a: a.astype(np.float32)),
         "target_ratings.csv.npy: array 5 is not 1-D f8"),
        ("source_ratings.csv.npy", rewrite_snapshot(1, lambda a: a.astype(object)),
         "source_ratings.csv.npy: Object arrays cannot be loaded"),
        # user token 1 copied over token 0: two users under one token
        ("source_ratings.csv.npy", rewrite_snapshot(1, lambda a: np.concatenate([a[1:2], a[1:]])),
         "source_ratings.csv.npy: repeated user token"),
        # bytes after the last record would change the file's sha256 that reports record
        ("target_ratings.csv.npy", append_byte,
         "target_ratings.csv.npy: trailing bytes after array 6"),
        ("scenario.json", truncate, "malformed manifest"),
        ("source_model_sharpness_aware.npy", truncate, "malformed factor checkpoint"),
        ("target_model_sharpness_aware.npy", truncate_to(-1), "malformed factor checkpoint"),
        ("target_model_sharpness_aware.npy", unclosed_npy_header,
         "target_model_sharpness_aware.npy: array 0 has an unparsable header"),
        ("source_model_sharpness_aware.npy", rewrite_checkpoint_u(lambda a: a.astype(np.float32)),
         "source_model_sharpness_aware.npy: array 1 is not 2-D f8"),
        ("source_model_sharpness_aware.npy", rewrite_checkpoint_u(np.ravel),
         "source_model_sharpness_aware.npy: array 1 is not 2-D f8"),
        ("source_model_sharpness_aware.npy", rewrite_checkpoint_u(lambda a: a.astype(object)),
         "source_model_sharpness_aware.npy: Object arrays cannot be loaded"),
        ("target_model_sharpness_aware.npy", append_byte,
         "target_model_sharpness_aware.npy: trailing bytes after array 2"),
        ("target_model_sharpness_aware.npy", checkpoint_header(kind="mapping_net"),
         "not a factor checkpoint"),
        ("target_model_sharpness_aware.npy", as_version_2_json, "malformed factor checkpoint"),
        ("source_model_sharpness_aware.npy", checkpoint_header(inputs={"manifest": "0" * 64}),
         "stale factor checkpoint"),
        # a non-finite parameter names the checkpoint it was read from, even one its
        # writer stored with a matching records digest
        ("source_model_sharpness_aware.npy", rewrite_checkpoint_u(nan_at_origin, restamp=True),
         "source_model_sharpness_aware.npy: factor matrices must be finite"),
        ("source_model_sharpness_aware.npy", rewrite_checkpoint_u(nan_at_origin),
         "source_model_sharpness_aware.npy: its records do not match the digest in its header"),
        ("scenario.json", drop_key("source_ratings"), "missing key 'source_ratings'"),
        # manifest numbers are as strict as config numbers
        ("scenario.json", set_key("seed", 1.7),
         "scenario.json: seed must be a finite int, got 1.7"),
        ("scenario.json", set_key("seed", "7"),
         "scenario.json: seed must be a finite int, got '7'"),
        ("scenario.json", set_key("seed", True),
         "scenario.json: seed must be a finite int, got True"),
        ("scenario.json", set_key("beta", "0.8"),
         "scenario.json: beta must be a finite float, got '0.8'"),
        # one membership list without the other is not a recomputed split
        ("scenario.json", drop_key("test_users"), "missing key 'test_users'"),
        ("scenario.json", drop_key("train_users"), "missing key 'train_users'"),
        # a bad beta beside the stored lists, which are used without drawing a split
        ("scenario.json", set_key("beta", 1.5), "beta must lie in (0, 1), got 1.5"),
        ("scenario.json", set_key("beta", math.nan),
         "scenario.json: beta must be a finite float, got nan"),
    ])
    def test_eval_exits_2_and_writes_nothing(self, run_copy, capsys, name, corrupt, message):
        out, cfg = run_copy
        corrupt(out / name)
        before = sorted(p.name for p in out.iterdir())
        assert run("eval", "--config", cfg, "--method", "scdr") == 2
        assert message in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == before

    @pytest.mark.parametrize("corrupt, message", [
        (mapping_as_version_2_json, MALFORMED_MAPPING),
        (truncate, MALFORMED_MAPPING),
        (truncate_to(-1), MALFORMED_MAPPING),
        (append_byte, MALFORMED_MAPPING + "trailing bytes after array 4"),
        (unclosed_npy_header, MALFORMED_MAPPING + "array 0 has an unparsable header"),
        (rewrite_mapping_array(1, lambda a: a.astype(np.float32)),
         MALFORMED_MAPPING + "array 1 is not 2-D f8"),
        (rewrite_mapping_array(1, np.ravel), MALFORMED_MAPPING + "array 1 is not 2-D f8"),
        (rewrite_mapping_array(1, nan_at_origin, restamp=True),
         MALFORMED_MAPPING + "mapping-net parameters must be finite"),
        (mapping_header(lambda doc: {k: v for k, v in doc.items() if k != "activation"}),
         MALFORMED_MAPPING + "missing key 'activation'"),
        # the layout before the tuned source rows were dropped is another version
        (mapping_as_version_4, "not a mapping checkpoint: {path}"),
    ], ids=["version-2-json", "truncated", "last-byte-cut", "trailing-bytes", "unclosed-header",
            "float32-W1", "1-D-W1", "nan-in-W1", "no-activation", "version-4-tuned-rows"])
    def test_bad_mapping_checkpoint_exits_2_naming_it(self, run_copy, capsys, corrupt, message):
        out, cfg = run_copy
        for name in ("landscape_scdr.csv", "sharpness_scdr.json"):
            (out / name).unlink()
        corrupt(out / "mapping_scdr.npy")
        before = sorted(p.name for p in out.iterdir())
        for command in ("eval", "attack", "landscape", "sharpness"):
            assert run(command, "--config", cfg, "--method", "scdr") == 2, command
            assert message.format(path=out / "mapping_scdr.npy") in capsys.readouterr().err
            assert sorted(p.name for p in out.iterdir()) == before

    @pytest.mark.parametrize("name, corrupt, what", [
        ("source_model_sharpness_aware.npy", as_version_2_json, "malformed factor checkpoint"),
        ("mapping_scdr.npy", mapping_as_version_2_json, "malformed mapping checkpoint"),
    ], ids=["factor", "mapping"])
    def test_json_checkpoint_at_npy_path_is_not_records(self, run_copy, capsys, name, corrupt,
                                                         what):
        out, cfg = run_copy
        corrupt(out / name)
        before = sorted(p.name for p in out.iterdir())
        assert run("eval", "--config", cfg, "--method", "scdr") == 2
        err = capsys.readouterr().err
        assert f"{what} {out / name}: not `np.save` records" in err
        assert "pickle" not in err
        assert sorted(p.name for p in out.iterdir()) == before

    @pytest.mark.parametrize("name, count, command, what", [
        ("source_model_sharpness_aware.npy", 3, "train", "factor checkpoint"),
        ("mapping_scdr.npy", 5, "eval", "mapping checkpoint"),
    ], ids=["factor-train", "mapping-eval"])
    def test_flipped_weight_bit_exits_2_naming_the_file(self, run_copy, capsys, name, count,
                                                        command, what):
        # nothing downstream records these files' digests for train, and eval's mapping
        # records none of its own, so only the records digest in the header catches this
        out, cfg = run_copy
        rewrite_record(out / name, count, 1, flip_first_bit)
        before = {p.name: digest(p) for p in out.iterdir()}
        assert run(command, "--config", cfg, "--method", "scdr", "--force") == 2
        assert (f"malformed {what} {out / name}: its records do not match the digest in its "
                "header") in capsys.readouterr().err
        assert {p.name: digest(p) for p in out.iterdir()} == before

    @pytest.mark.parametrize("replace", [lambda p: p.unlink(), as_directory],
                             ids=["missing", "directory"])
    def test_absent_checkpoint_exits_4_and_writes_nothing(self, run_copy, capsys, replace):
        out, cfg = run_copy
        replace(out / "target_model_sharpness_aware.npy")
        before = sorted(p.name for p in out.iterdir())
        assert run("eval", "--config", cfg, "--method", "scdr") == 4
        assert "factor checkpoint not found" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == before

    def test_mistyped_synth_value(self, tmp_path, capsys):
        cfg_doc = small_config(tmp_path / "run")
        cfg_doc["synth"]["users"] = "abc"
        assert run("synth", "--config", write_config(tmp_path, cfg_doc)) == 2
        assert "config value synth.users" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("section, key, value", [
        ("synth", "users", True),
        ("synth", "users", "120"),
        ("pretrain", "epochs", 2.9),
        ("pretrain", "learning_rate", True),
        ("pretrain", "learning_rate", "0.01"),
        ("attack", "epsilons", [0.0, "0.5"]),
        # json writes and reads these as NaN, Infinity and -Infinity
        ("attack", "epsilons", [0.0, math.nan]),
        ("pretrain", "weight_decay", math.nan),
        ("train", "learning_rate", math.inf),
        ("synth", "noise", -math.inf),
    ])
    def test_strict_config_numbers(self, tmp_path, capsys, section, key, value):
        cfg_doc = small_config(tmp_path / "run")
        cfg_doc.setdefault(section, {})[key] = value
        assert run("synth", "--config", write_config(tmp_path, cfg_doc)) == 2
        assert f"config value {section}.{key}" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_integral_float_reads_as_int(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"pretrain": {"epochs": 3.0, "learning_rate": 1}}))
        cfg = load_config(str(p))
        assert cfg["pretrain"]["epochs"] == 3 and type(cfg["pretrain"]["epochs"]) is int
        assert type(cfg["pretrain"]["learning_rate"]) is float

    @pytest.mark.parametrize("hidden", [0, -3])
    def test_bad_hidden_width_exits_2(self, run_copy, tmp_path, capsys, hidden):
        out, _ = run_copy
        cfg_doc = small_config(out)
        cfg_doc["train"]["hidden"] = hidden
        cfg = write_config(tmp_path, cfg_doc, name="hidden.json")
        before = {p.name: digest(p) for p in out.iterdir()}
        assert run("train", "--config", cfg, "--method", "emcdr", "--force") == 2
        assert f"hidden width must be >= 1, got {hidden}" in capsys.readouterr().err
        assert {p.name: digest(p) for p in out.iterdir()} == before

    def test_mistyped_attack_value(self, run_copy, tmp_path, capsys):
        out, _ = run_copy
        cfg_doc = small_config(out)
        cfg_doc["attack"] = {"epsilons": 5}
        cfg = write_config(tmp_path, cfg_doc, name="bad.json")
        assert run("attack", "--config", cfg, "--method", "scdr") == 2
        assert "config value attack.epsilons" in capsys.readouterr().err
        assert not (out / "attack_scdr.json").exists()

    @pytest.mark.parametrize("args, config, prepare, message", [
        (["synth", "--seed", "-1"], {}, None, "config value seed must be a non-negative int"),
        (["pretrain", "--mode", "plain", "--seed", "-2"], {}, None,
         "config value seed must be a non-negative int"),
        (["landscape", "--method", "scdr"], {"landscape": {"seed": -3}}, None,
         "config value landscape.seed must be a non-negative int"),
        (["eval", "--method", "scdr"], {}, ("scenario.json", set_key("seed", -1)),
         "scenario.json: seed must be >= 0, got -1"),
        # an ascent is its radius and step count; no step-size key is read
        (["pretrain", "--mode", "sharpness_aware"], {"pretrain": {"alpha": 0.05}}, None,
         "unknown config key pretrain.alpha"),
        (["train", "--method", "scdr"], {"train": {"alpha": 0.3}}, None,
         "unknown config key train.alpha"),
        # every mode and method checks its section's ascent, also where none runs
        (["pretrain", "--mode", "plain"], {"pretrain": {"rho": -1, "k": -3}}, None,
         "rho must be finite and >= 0, got -1.0"),
        (["pretrain", "--mode", "plain"], {"pretrain": {"k": -3}}, None,
         "k must be >= 0, got -3"),
        (["train", "--method", "emcdr"], {"train": {"rho": -2}}, None,
         "rho must be finite and >= 0, got -2.0"),
        # --force replaces regular files only, and refuses before anything is computed
        (["eval", "--method", "emcdr"], {}, ("eval_emcdr.json", as_directory),
         "eval_emcdr.json exists and is not a regular file"),
        (["pretrain", "--mode", "plain", "--seed", "2"], {},
         ("target_trace_plain.csv", as_directory),
         "target_trace_plain.csv exists and is not a regular file"),
        # and so does each staging path, which the body would write
        (["synth", "--seed", "2"], {}, (".scenario.json.staged", os.mkdir),
         ".scenario.json.staged exists and is not a regular file"),
        (["pretrain", "--mode", "plain", "--seed", "2"], {},
         (".source_model_plain.npy.staged", os.mkdir),
         ".source_model_plain.npy.staged exists and is not a regular file"),
        (["train", "--method", "scdr"], {}, (".mapping_trace_scdr.csv.staged", os.mkdir),
         ".mapping_trace_scdr.csv.staged exists and is not a regular file"),
    ], ids=["seed-flag", "seed-flag-pretrain", "landscape-seed", "manifest-seed",
            "pretrain-alpha", "train-alpha", "plain-ascent", "plain-k", "emcdr-ascent",
            "eval-output-directory", "pretrain-output-directory", "synth-staging-directory",
            "pretrain-staging-directory", "train-staging-directory"])
    def test_refused_run_exits_2_and_changes_nothing(self, run_copy, tmp_path, capsys, args,
                                                     config, prepare, message):
        out, _ = run_copy
        cfg_doc = small_config(out)
        for section, values in config.items():
            cfg_doc[section].update(values)
        cfg = write_config(tmp_path, cfg_doc, name="refused.json")
        if prepare is not None:
            name, edit = prepare
            edit(out / name)
        before = listing(out)
        assert run(*args, "--config", cfg, "--force") == 2
        assert message in capsys.readouterr().err
        assert listing(out) == before


FUZZ_COMMANDS = ("train", "eval", "attack", "landscape", "sharpness")
# each file those commands read, and the commands that read it
FUZZ_FILES = {name: FUZZ_COMMANDS for name in (
    "scenario.json", "source_ratings.csv", "target_ratings.csv", "source_ratings.csv.npy",
    "target_ratings.csv.npy", "source_model_sharpness_aware.npy",
    "target_model_sharpness_aware.npy")}
FUZZ_FILES["mapping_scdr.npy"] = FUZZ_COMMANDS[1:]


def fuzz_mutations(raw: bytes, seed: int) -> list[tuple[str, bytes]]:
    """A fixed, seeded list of (what, mutated bytes): 4 truncations, then 16 overwrites of 1-3 bytes."""
    rng = np.random.default_rng(seed)
    cases = [(f"cut to {size} bytes", raw[:size])
             for size in sorted(rng.integers(0, len(raw), 4).tolist())]
    for _ in range(16):
        width = int(rng.integers(1, 4))
        at = int(rng.integers(0, len(raw) - width + 1))
        patch = rng.integers(0, 256, width, dtype=np.uint8).tobytes()
        cases.append((f"{patch.hex()} written at byte {at}", raw[:at] + patch + raw[at + width:]))
    return cases


@pytest.fixture(scope="module")
def fuzz_run(tmp_path_factory):
    """A tiny run directory with scdr's inputs, its config, and each rating file's parse."""
    base = tmp_path_factory.mktemp("fuzz")
    out = base / "run"
    cfg = write_config(base, {
        "seed": 1, "out": str(out),
        "synth": {"users": 200, "items": 60, "overlap_ratio": 0.5, "dim": 4,
                  "ratings_per_user": 8},
        "pretrain": {"epochs": 2, "dim": 4, "k": 2},
        "train": {"epochs": 3, "hidden": 8, "k": 2},
        "landscape": {"resolution": 3, "n_samples": 16},
        "sharpness": {"k": 2},
    })
    for stage in (["synth"], ["pretrain", "--mode", "sharpness_aware"],
                  ["train", "--method", "scdr"]):
        assert run(*stage, "--config", cfg) == 0
    parsed = {}
    for name in ("source_ratings.csv", "target_ratings.csv"):
        shutil.copyfile(out / name, base / name)  # no snapshot beside it
        parsed[name] = scdr.data.ingest_domain(base / name)
    return out, cfg, parsed


class TestCorruptionFuzz:
    @pytest.mark.parametrize("name", FUZZ_FILES)
    def test_seeded_mutations_exit_cleanly(self, fuzz_run, tmp_path, monkeypatch, name):
        """Each mutation exits 0, 2, 3 or 4; a failure writes nothing; a snapshot serves its file.

        The reading command rotates over the commands that read the file. A
        snapshot mutation may exit 0 only if every dataset served equals the
        parse of its rating file.
        """
        base, cfg, parsed = fuzz_run
        served = {}
        ingest = scdr.data.ingest_domain

        def recording(path):
            served[Path(path).name] = ingest(path)
            return served[Path(path).name]

        monkeypatch.setattr(scdr.data, "ingest_domain", recording)
        commands = FUZZ_FILES[name]
        mutations = fuzz_mutations((base / name).read_bytes(), seed=list(FUZZ_FILES).index(name))
        for i, (what, raw) in enumerate(mutations):
            command = commands[i % len(commands)]
            case = f"{command} with {name} {what}"
            out = tmp_path / str(i)
            shutil.copytree(base, out)
            (out / name).write_bytes(raw)
            before = {p.name: p.read_bytes() for p in out.iterdir()}
            served.clear()
            try:
                code = run(command, "--config", cfg, "--out", str(out), "--method", "scdr",
                           "--force")
            except Exception as exc:  # main maps every package error to an exit code
                pytest.fail(f"{case}: {exc!r} escaped main")
            assert code in (0, 2, 3, 4), case
            if code:
                assert {p.name: p.read_bytes() for p in out.iterdir()} == before, case
            elif name.endswith(".csv.npy"):
                assert served.keys() == parsed.keys(), case
                assert all(same_dataset(served[k], parsed[k]) for k in parsed), case
            shutil.rmtree(out)


class TestReportInputs:
    def test_reports_record_the_mapping_they_scored(self, run_copy):
        out, cfg = run_copy
        reports = {"eval": ("eval_scdr.json", 3), "attack": ("attack_scdr.json", 2),
                   "sharpness": ("sharpness_scdr.json", 2)}

        def recorded():
            docs = {}
            for command, (name, version) in reports.items():
                assert run(command, "--config", cfg, "--method", "scdr", "--force") == 0
                docs[name] = json.loads((out / name).read_text())
                assert docs[name]["format_version"] == version, name
            return {name: doc["inputs"] for name, doc in docs.items()}

        first = digest(out / "mapping_scdr.npy")
        assert recorded() == {name: {"mapping": first} for name, _ in reports.values()}
        assert run("train", "--config", cfg, "--method", "scdr", "--force", "--seed", "7") == 0
        second = digest(out / "mapping_scdr.npy")
        assert second != first
        assert recorded() == {name: {"mapping": second} for name, _ in reports.values()}


class TestReproducibility:
    def test_rerun_is_byte_identical(self, tmp_path):
        digests = []
        for name in ("a", "b"):
            out = tmp_path / name
            cfg_doc = small_config(out, seed=3)
            cfg_doc["pretrain"]["epochs"] = 6
            cfg_doc["train"]["epochs"] = 15
            cfg = write_config(tmp_path, cfg_doc, name=f"{name}.json")
            assert run("synth", "--config", cfg) == 0
            assert run("pretrain", "--config", cfg, "--mode", "plain") == 0
            assert run("train", "--config", cfg, "--method", "emcdr") == 0
            assert run("eval", "--config", cfg, "--method", "emcdr") == 0
            digests.append({p.name: digest(p) for p in sorted(out.iterdir())})
        assert digests[0] == digests[1]

    def test_outputs_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        """Every output has the same bytes at one BLAS thread and at two.

        OpenBLAS splits a long dot product across threads, which moves its
        rounding; OpenBLAS 0.3.31 on a 2-vCPU Xeon showed it from 20,000
        elements. Each domain has 60,000
        ratings, the test users 48,000 withheld ones, and one mapping batch holds
        all 400 train users.
        """
        # the children import the same scdr as this process
        path = os.pathsep.join([str(Path(scdr.data.__file__).parents[1]),
                                *filter(None, [os.environ.get("PYTHONPATH")])])
        digests = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads-{threads}"
            cfg = write_config(tmp_path, {
                "seed": 1, "out": str(out),
                "synth": {"users": 2000, "items": 300, "overlap_ratio": 1.0, "beta": 0.8},
                "pretrain": {"epochs": 2}, "train": {"epochs": 2, "batch_size": 512},
            }, name=f"threads-{threads}.json")
            env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads,
                   "OMP_NUM_THREADS": threads}
            for args in (["synth"], ["pretrain", "--mode", "sharpness_aware"],
                         ["train", "--method", "scdr"], ["eval", "--method", "scdr"]):
                subprocess.run([sys.executable, "-m", "scdr.cli", *args, "--config", cfg],
                               env=env, check=True)
            digests.append({p.name: digest(p) for p in sorted(out.iterdir())})
        assert len(digests[0]) == 13
        assert digests[0] == digests[1]

    def test_seed_changes_outputs(self, tmp_path):
        hashes = []
        for seed in (1, 2):
            out = tmp_path / f"s{seed}"
            cfg = write_config(tmp_path, small_config(out, seed=seed), name=f"s{seed}.json")
            assert run("synth", "--config", cfg) == 0
            hashes.append(digest(out / "source_ratings.csv"))
        assert hashes[0] != hashes[1]

    def test_seed_flag_overrides_config(self, tmp_path):
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        cfg1 = write_config(tmp_path, small_config(out1, seed=5), name="c1.json")
        cfg2 = write_config(tmp_path, small_config(out2, seed=9), name="c2.json")
        assert run("synth", "--config", cfg1) == 0
        assert run("synth", "--config", cfg2, "--seed", "5") == 0
        assert digest(out1 / "source_ratings.csv") == digest(out2 / "source_ratings.csv")

    def test_trace_is_prefix_stable_in_epochs(self, tmp_path):
        traces = []
        for name, epochs in (("short", 4), ("long", 7)):
            out = tmp_path / name
            cfg_doc = small_config(out, seed=2)
            cfg_doc["pretrain"]["epochs"] = epochs
            cfg = write_config(tmp_path, cfg_doc, name=f"{name}.json")
            assert run("synth", "--config", cfg) == 0
            assert run("pretrain", "--config", cfg, "--mode", "plain") == 0
            traces.append((out / "source_trace_plain.csv").read_text().splitlines())
        short, long = traces
        assert long[: len(short)] == short


class TestReductions:
    def test_plain_pretrain_equals_sam_with_k_zero(self, tmp_path):
        out = tmp_path / "run"
        cfg_doc = small_config(out)
        cfg_doc["pretrain"]["k"] = 0
        cfg = write_config(tmp_path, cfg_doc)
        assert run("synth", "--config", cfg) == 0
        assert run("pretrain", "--config", cfg, "--mode", "plain") == 0
        assert run("pretrain", "--config", cfg, "--mode", "sharpness_aware") == 0
        plain, _, _ = load_factor_model(out / "source_model_plain.npy")
        sam, _, _ = load_factor_model(out / "source_model_sharpness_aware.npy")
        assert plain.U.tobytes() == sam.U.tobytes() and plain.V.tobytes() == sam.V.tobytes()

    def test_scdr_equals_scdr_minus_with_k_zero(self, tmp_path):
        out = tmp_path / "run"
        cfg_doc = small_config(out)
        cfg_doc["pretrain"]["k"] = 0
        cfg_doc["train"]["k"] = 0
        cfg = write_config(tmp_path, cfg_doc)
        assert run("synth", "--config", cfg) == 0
        assert run("pretrain", "--config", cfg, "--mode", "plain") == 0
        assert run("pretrain", "--config", cfg, "--mode", "sharpness_aware") == 0
        assert run("train", "--config", cfg, "--method", "scdr") == 0
        assert run("train", "--config", cfg, "--method", "scdr_minus") == 0
        a_net, b_net = (load_mapping(out / f"mapping_{method}.npy")[0]
                        for method in ("scdr", "scdr_minus"))
        for name in ("W1", "b1", "W2", "b2"):
            assert getattr(a_net, name).tobytes() == getattr(b_net, name).tobytes(), name


class TestDefaultLandscape:
    def test_default_grid_is_441_rows(self, tmp_path):
        out = tmp_path / "run"
        cfg_doc = small_config(out)
        del cfg_doc["landscape"]  # fall back to the built-in 21x21 default
        cfg = write_config(tmp_path, cfg_doc)
        assert run("synth", "--config", cfg) == 0
        assert run("pretrain", "--config", cfg, "--mode", "plain") == 0
        assert run("train", "--config", cfg, "--method", "emcdr") == 0
        assert run("landscape", "--config", cfg, "--method", "emcdr") == 0
        lines = (out / "landscape_emcdr.csv").read_text().splitlines()
        assert len(lines) == 1 + 441


class TestSharpnessCommand:
    def test_zero_net_checkpoint_reports_zero(self, tmp_path):
        out = tmp_path / "run"
        cfg = write_config(tmp_path, small_config(out))
        assert run("synth", "--config", cfg) == 0
        assert run("pretrain", "--config", cfg, "--mode", "plain") == 0
        d = 6
        net = MappingNet(np.zeros((50, d)), np.zeros(50), np.zeros((d, 50)), np.zeros(d))
        inputs = {f"{side}_model": digest(out / f"{side}_model_plain.npy")
                  for side in ("source", "target")}
        save_mapping(net, out / "mapping_emcdr.npy", config={"method": "emcdr"}, inputs=inputs)
        assert run("sharpness", "--config", cfg, "--method", "emcdr") == 0
        doc = json.loads((out / "sharpness_emcdr.json").read_text())
        assert doc["lipschitz_estimate"] == 0.0


class TestOutOfMemory:
    def test_unallocatable_landscape_exits_2_writing_nothing(self, run_copy, capsys):
        out, _ = run_copy
        (out / "landscape_scdr.csv").unlink()
        before = sorted(p.name for p in out.iterdir())
        cfg_doc = small_config(out)
        # a 5e6 x 5e6 float64 grid is 182 TiB, beyond any address space
        cfg_doc["landscape"]["resolution"] = 5_000_000
        cfg = write_config(out.parent, cfg_doc)
        capsys.readouterr()
        assert run("landscape", "--config", cfg, "--method", "scdr") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: landscape: out of memory: ")
        assert err.count("\n") == 1
        assert sorted(p.name for p in out.iterdir()) == before


def failing_staged_rename(monkeypatch, n):
    """Make ``os.replace`` raise on its ``n``-th rename of a staged file; other renames run."""
    replace, staged = os.replace, []

    def failing(src, dst, *args, **kwargs):
        if str(src).endswith(".staged"):
            staged.append(src)
            if len(staged) == n:
                raise PermissionError(errno.EACCES, "Permission denied", str(src))
        return replace(src, dst, *args, **kwargs)

    monkeypatch.setattr(os, "replace", failing)


class TestFailedRename:
    """A commit rename that fails exits 2, naming it and the outputs renamed before it.

    Those outputs are new and the others old, and the next command that reads
    a harmful mix refuses it: rating files that the manifest does not record,
    or two factor checkpoints of different settings.
    """

    @pytest.mark.parametrize("args, outputs, n", [
        (["synth", "--seed", "2"],
         ["source_ratings.csv", "target_ratings.csv", "scenario.json", "ground_truth.npy",
          "source_ratings.csv.npy", "target_ratings.csv.npy"], 4),
        (["pretrain", "--mode", "plain", "--seed", "2"],
         ["source_model_plain.npy", "target_model_plain.npy", "source_trace_plain.csv",
          "target_trace_plain.csv"], 2),
        (["train", "--method", "scdr", "--seed", "2"],
         ["mapping_scdr.npy", "mapping_trace_scdr.csv"], 1),
    ], ids=["synth", "pretrain", "train"])
    def test_exits_2_naming_the_new_outputs(self, run_copy, capsys, monkeypatch, args,
                                            outputs, n):
        out, cfg = run_copy
        before = listing(out)
        failing_staged_rename(monkeypatch, n)
        capsys.readouterr()
        assert run(*args, "--config", cfg, "--force") == 2
        err = capsys.readouterr().err
        failed, new = outputs[n - 1], [out / name for name in outputs[:n - 1]]
        assert err == (f"error: cannot rename {out / f'.{failed}.staged'} to {out / failed}: "
                       f"Permission denied; new outputs renamed before it: "
                       f"{', '.join(map(str, new)) or 'none'}\n")
        after = listing(out)
        # no staged file is left, and only the outputs renamed before the failure changed
        assert after.keys() == before.keys()
        assert [name for name in outputs if after[name] != before[name]] == outputs[:n - 1]

    @pytest.mark.parametrize("args, n, follow_up, refused", [
        (["synth", "--seed", "2"], 2, ["pretrain", "--mode", "plain"],
         "rating file {out}/source_ratings.csv is not the one {out}/scenario.json was written "
         "with: its sha256 differs from the recorded one"),
        (["synth", "--seed", "2"], 3, ["pretrain", "--mode", "plain"],
         "rating file {out}/source_ratings.csv is not the one"),
        # the manifest is new; the old snapshots are stale, so the new files are parsed
        (["synth", "--seed", "2"], 4, ["pretrain", "--mode", "plain"], None),
        (["pretrain", "--mode", "plain", "--seed", "2"], 2, ["train", "--method", "emcdr"],
         "{out}/source_model_plain.npy and {out}/target_model_plain.npy record different "
         "training settings, so one pretrain run did not write both; run it again"),
        # both checkpoints are new; only the traces are mixed, and no command reads them
        (["pretrain", "--mode", "plain", "--seed", "2"], 3, ["train", "--method", "emcdr"], None),
    ], ids=["synth-2", "synth-3", "synth-4", "pretrain-2", "pretrain-3"])
    def test_the_next_command_refuses_a_mixed_set(self, run_copy, capsys, monkeypatch, args, n,
                                                  follow_up, refused):
        out, cfg = run_copy
        with monkeypatch.context() as patch:
            failing_staged_rename(patch, n)
            assert run(*args, "--config", cfg, "--force") == 2
        before = listing(out)
        capsys.readouterr()
        code = run(*follow_up, "--config", cfg, "--force")
        if refused is None:
            assert code == 0
        else:
            assert code == 2
            assert refused.format(out=out) in capsys.readouterr().err
            assert listing(out) == before
