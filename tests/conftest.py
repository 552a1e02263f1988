from __future__ import annotations

import errno
import json
import sys

import numpy as np
import pytest

import scdr.data
from scdr.data import DomainDataset, build_scenario, generate_synthetic
from scdr.perturbation import find_delta


def dataset(rows) -> DomainDataset:
    return DomainDataset.from_columns(*zip(*rows))


def two_domain_scenario(n_overlap=10, beta=0.5, seed=0):
    """Tiny hand-built scenario: every user rates two items per domain."""
    src_rows, tgt_rows = [], []
    for i in range(n_overlap):
        u = f"u{i}"
        src_rows += [(u, "sa", 3.0 + 0.1 * i), (u, "sb", 2.0)]
        tgt_rows += [(u, "ta", 4.0 - 0.1 * i), (u, "tb", 3.0)]
    src_rows += [("solo_s", "sa", 1.0)]
    tgt_rows += [("solo_t", "ta", 5.0)]
    return build_scenario(dataset(src_rows), dataset(tgt_rows), beta, seed)


def uneven_scenario(spec):
    """``generate_synthetic(spec)`` with each target user keeping from one to all of their ratings.

    Returns the scenario and the sidecar; uneven per-user counts put block
    boundaries at every offset within a user.
    """
    scn, sidecar = generate_synthetic(spec)
    t = scn.target
    rng = np.random.default_rng(spec.seed)
    keep = rng.random(t.n_interactions) < rng.uniform(0.1, 1.0, t.n_users)[t.user_index]
    keep[np.unique(t.user_index, return_index=True)[1]] = True  # every user keeps one
    target = DomainDataset(t.users, t.items, t.user_index[keep], t.item_index[keep],
                           t.rating[keep])
    return build_scenario(scn.source, target, spec.beta, spec.seed), sidecar


def set_chunk_rows(monkeypatch, rows):
    """Make every user-aligned pass of the mapping and the analyses use blocks of ``rows``."""
    import scdr.analysis
    import scdr.mapping
    monkeypatch.setattr(scdr.mapping, "CHUNK_ROWS", rows)
    monkeypatch.setattr(scdr.analysis, "CHUNK_ROWS", rows)


def same_bits(a, b):
    """Whether two arrays have the same shape, dtype and bytes."""
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def same_dataset(a: DomainDataset, b: DomainDataset) -> bool:
    """Whether two datasets have the same tokens, overwrite count and column bytes."""
    return (a.users == b.users and a.items == b.items
            and a.duplicate_count == b.duplicate_count
            and a.user_index.tobytes() == b.user_index.tobytes()
            and a.item_index.tobytes() == b.item_index.tobytes()
            and a.rating.tobytes() == b.rating.tobytes())


def minor_faults(run) -> int:
    """Minor page faults of this process while ``run()`` runs; skips the test off Linux.

    Each fault is a page the process touched for the first time since it was mapped, so
    an array that malloc maps and unmaps on every use costs its pages again at every use.
    """
    if not sys.platform.startswith("linux"):
        pytest.skip("minor fault counts are read through Linux getrusage")
    import resource
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    run()
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before


def count_ascent_work(monkeypatch, module):
    """Count ``module``'s ``find_delta`` calls and the loss and gradient reads they make.

    Returns the counts, which grow in place as ``module`` runs.
    """
    counts = {"calls": 0, "loss": 0, "grad": 0}

    def counting(loss_at, grad_at, origin, config):
        counts["calls"] += 1

        def counted(fn, key):
            def call(x):
                counts[key] += 1
                return fn(x)
            return call

        return find_delta(counted(loss_at, "loss"), counted(grad_at, "grad"), origin, config)

    monkeypatch.setattr(module, "find_delta", counting)
    return counts


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def load_records(path, count):
    """The first ``count`` ``np.save`` records of ``path``, pickled ones included."""
    with open(path, "rb") as fh:
        return [np.load(fh, allow_pickle=True) for _ in range(count)]


def rewrite_record(path, count, position, convert, restamp=False):
    """Replace record ``position`` of ``count`` ``np.save`` records in ``path`` by ``convert`` of it.

    Object arrays are written pickled, which every reader in the package refuses. With
    ``restamp``, the ``records`` digest of the JSON header becomes that of the new arrays,
    as in a file whose writer stored bad arrays.
    """
    records = load_records(path, count)
    records[position] = convert(records[position])
    if restamp:
        head = json.loads(records[0].item())
        head["records"] = scdr.data._records_digest(records[1:])
        records[0] = np.array(json.dumps(head))
    with open(path, "wb") as fh:
        for arr in records:
            np.save(fh, arr, allow_pickle=True)


def rewrite_header(path, count=3, **changes):
    """Set ``changes`` in the JSON header of a checkpoint of ``count`` records; the arrays stay.

    A factor checkpoint has 3 records, a mapping checkpoint 5.
    """
    rewrite_record(path, count, 0, lambda head: np.array(
        json.dumps({**json.loads(head.item()), **changes})))


def fail_halfway(monkeypatch, name):
    """Make every write to a file whose path contains ``name`` stop halfway, as on a full disk."""
    real_open = open

    class HalfWriter:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            self.fh.write(text[: len(text) // 2])
            self.fh.flush()
            raise OSError(errno.ENOSPC, "No space left on device")

    def fake_open(path, *args, **kwargs):
        fh = real_open(path, *args, **kwargs)
        return HalfWriter(fh) if name in str(path) else fh

    monkeypatch.setattr(scdr.data, "open", fake_open, raising=False)
