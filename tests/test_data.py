from __future__ import annotations

import hashlib
import json
import math
import re
import shutil
import tracemalloc

import numpy as np
import pytest

import scdr.data
from scdr.data import (
    MAP_KINDS,
    DomainDataset,
    SyntheticSpec,
    build_scenario,
    compute_overlap,
    generate_synthetic,
    ingest_domain,
    load_scenario,
    save_manifest,
    save_sidecar,
    split_overlap,
    write_atomic,
    write_csv,
    write_ratings,
)
from scdr.errors import IngestError, MissingInputError, ValidationError
from scdr.factorization import FactorModel, load_factor_model, save_factor_model
from scdr.mapping import MappingNet, load_mapping, save_mapping

from conftest import (dataset, fail_halfway, high_bytes, load_records, same_dataset,
                      two_domain_scenario, uneven_scenario)


class TestIngest:
    def test_three_row_file(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("u1,i1,5\nu1,i2,3\nu2,i1,4\n")
        ds = ingest_domain(p)
        assert ds.n_users == 2 and ds.n_items == 2 and ds.n_interactions == 3
        assert ds.users == ("u1", "u2") and ds.items == ("i1", "i2")
        assert ds.duplicate_count == 0

    def test_duplicate_last_write_wins(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("u1,i1,5\nu1,i1,4\n")
        ds = ingest_domain(p)
        assert ds.n_interactions == 1
        assert ds.rating[0] == 4.0
        assert ds.duplicate_count == 1

    def test_malformed_row_names_row_number(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("u1,i1,abc\n")
        with pytest.raises(IngestError) as exc:
            ingest_domain(p)
        assert exc.value.row == 1
        assert "row 1" in str(exc.value)

    def test_header_and_delimiter(self, tmp_path):
        # a rating file has no header line and only commas separate fields
        p = tmp_path / "r.csv"
        for text, message in (("user,item,rating\nu1,i1,4.5\n", "rating 'rating' is not a number"),
                              ("u1\ti1\t4.5\n", "expected 3 fields separated by ',', got 1")):
            p.write_text(text)
            with pytest.raises(IngestError) as exc:
                ingest_domain(p)
            assert exc.value.row == 1
            assert str(exc.value) == f"row 1: {message}"

    def test_empty_file(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("")
        with pytest.raises(IngestError):
            ingest_domain(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(MissingInputError):
            ingest_domain(tmp_path / "nope.csv")
        with pytest.raises(MissingInputError):
            ingest_domain(tmp_path)  # a directory is not a rating file

    def test_non_finite_rating_rejected(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("u1,i1,inf\n")
        with pytest.raises(IngestError):
            ingest_domain(p)

    def test_write_round_trip_exact(self, tmp_path):
        ds = dataset([("u1", "i1", 4.1234567891234567), ("u2", "i2", 1.0 / 3.0)])
        p = tmp_path / "w.csv"
        write_ratings(ds, p)
        back = ingest_domain(p)
        assert np.array_equal(back.rating, ds.rating)
        assert back.users == ds.users and back.items == ds.items


INGEST_CASES = {
    "crlf": (b"u1,i1,5\r\nu2,i1,4\r\n",
             ("u1", "u2"), ("i1",), [(0, 0, 5.0), (1, 0, 4.0)], 0),
    "lone_cr": (b"u1,i1,5\ru2,i1,4\r",
                ("u1", "u2"), ("i1",), [(0, 0, 5.0), (1, 0, 4.0)], 0),
    "blank_lines": (b"\nu1,i1,5\n\n\r\nu2,i1,4\n\n",
                    ("u1", "u2"), ("i1",), [(0, 0, 5.0), (1, 0, 4.0)], 0),
    "padded": (b"  u1 , i1 ,  5 \n\tu2,i1\t, 4\n",
               ("u1", "u2"), ("i1",), [(0, 0, 5.0), (1, 0, 4.0)], 0),
    # pairs keep their first position and their last rating
    "duplicates": (b"u2,i2,1\nu1,i1,5\nu2,i2,3\nu1,i2,2\nu2,i2,4\nu1,i1,5\n",
                   ("u2", "u1"), ("i2", "i1"),
                   [(0, 0, 4.0), (1, 1, 5.0), (1, 0, 2.0)], 3),
}


class TestIngestContract:
    @pytest.mark.parametrize("case", sorted(INGEST_CASES))
    def test_table(self, tmp_path, case):
        raw, users, items, cells, duplicates = INGEST_CASES[case]
        p = tmp_path / "r.csv"
        p.write_bytes(raw)
        ds = ingest_domain(p)
        assert ds.users == users and ds.items == items
        got = list(zip(ds.user_index.tolist(), ds.item_index.tolist(), ds.rating.tolist()))
        assert got == cells
        assert ds.duplicate_count == duplicates

    @pytest.mark.parametrize("text, row, message", [
        # a bad rating on row 2 is reported ahead of a short row on row 3
        ("u1,i1,5\nu2,i1,abc\nu3,i1\n", 2, "rating 'abc' is not a number"),
        ("u1,i1,5\nu2,i1\nu3,i1,abc\n", 2, "expected 3 fields"),
        ("u1,i1,5\n, i1,2\nu3,i1,nan\n", 2, "empty user or item token"),
        ("u1,i1,5\n\nu2,i1,inf\nu3,,2\n", 3, "rating 'inf' is not finite"),
    ])
    def test_first_bad_row_wins(self, tmp_path, text, row, message):
        p = tmp_path / "r.csv"
        p.write_text(text)
        with pytest.raises(IngestError) as exc:
            ingest_domain(p)
        assert exc.value.row == row
        assert str(exc.value).startswith(f"row {row}: {message}")

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_non_utf8_names_row(self, tmp_path, newline):
        p = tmp_path / "r.csv"
        p.write_bytes(newline.join(["u1,i1,5", "u2,i1,4", "u\xff3,i1,2"]).encode("latin-1"))
        with pytest.raises(IngestError) as exc:
            ingest_domain(p)
        assert exc.value.row == 3
        assert "not UTF-8" in str(exc.value)

    def test_leading_byte_order_mark_is_dropped(self, tmp_path):
        text = b"u1,i1,5\r\nu2,i2,4\r\nu1,i2,3\r\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_bytes(text)
        marked.write_bytes(b"\xef\xbb\xbf" + text)
        a, b = ingest_domain(plain), ingest_domain(marked)
        assert b.users == a.users == ("u1", "u2") and b.items == a.items
        for name in ("user_index", "item_index", "rating"):
            assert getattr(b, name).tobytes() == getattr(a, name).tobytes(), name
        assert b.digest == hashlib.sha256(marked.read_bytes()).hexdigest() != a.digest

    @pytest.mark.parametrize("raw, row, message", [
        (b"user,item,rating\nu1,i1,5\n", 1, "rating 'rating' is not a number"),
        (b"u1,i1,5\nu2,i1\n", 2, "expected 3 fields"),
        (b"u1,i1,5\r\n\r\n,i1,2\r\n", 3, "empty user or item token"),
        (b"u1,i1,5\nu2,i1,4\nu\xff3,i1,2\n", 3, "not UTF-8"),
    ])
    def test_byte_order_mark_keeps_error_rows(self, tmp_path, raw, row, message):
        p = tmp_path / "r.csv"
        for prefix in (b"", b"\xef\xbb\xbf"):
            p.write_bytes(prefix + raw)
            with pytest.raises(IngestError) as exc:
                ingest_domain(p)
            assert exc.value.row == row and message in str(exc.value)

    def test_round_trip_is_bitwise(self, tmp_path):
        spec = SyntheticSpec(users=200, items=60, overlap_ratio=0.2, dim=4, noise=0.3,
                             seed=5, ratings_per_user=15)
        source = generate_synthetic(spec)[0].source
        assert source.n_interactions == 3000
        write_ratings(source, tmp_path / "a.csv")
        ds = ingest_domain(tmp_path / "a.csv")
        # same rows in the same order; item indices follow first appearance
        assert [source.users[u] for u in source.user_index] == [ds.users[u] for u in ds.user_index]
        assert [source.items[v] for v in source.item_index] == [ds.items[v] for v in ds.item_index]
        assert ds.rating.tobytes() == source.rating.tobytes()
        write_ratings(ds, tmp_path / "b.csv")
        assert same_dataset(ingest_domain(tmp_path / "b.csv"), ds)
        columns = ([ds.users[u] for u in ds.user_index], [ds.items[v] for v in ds.item_index],
                   ds.rating.tolist())
        assert same_dataset(DomainDataset.from_columns(*columns), ds)


def parse_only(path) -> DomainDataset:
    """``ingest_domain`` of a copy of ``path`` that has no snapshot beside it."""
    copy = path.with_name(f"copy_of_{path.name}")
    shutil.copyfile(path, copy)
    return ingest_domain(copy)


def written_with_snapshot(ds: DomainDataset, path):
    write_ratings(ds, path, snapshot=path.with_name(path.name + ".npy"))
    return path


SNAPSHOT_SPECS = [SyntheticSpec(users=60, items=40, overlap_ratio=0.25, dim=4, noise=0.3,
                                map_kind=kind, seed=7, ratings_per_user=8) for kind in MAP_KINDS]
# 10 users rate 3 of 200 items each, so most items are unrated and dropped on reading
SNAPSHOT_SPECS.append(SyntheticSpec(users=10, items=200, overlap_ratio=0.5, dim=3, seed=4,
                                    ratings_per_user=3))


class TestSnapshot:
    @pytest.mark.parametrize("spec", SNAPSHOT_SPECS,
                             ids=[*MAP_KINDS, "unrated_items"])
    def test_snapshot_equals_parse(self, tmp_path, monkeypatch, spec):
        scenario, _ = generate_synthetic(spec)
        for name, ds in (("s.csv", scenario.source), ("t.csv", scenario.target)):
            path = written_with_snapshot(ds, tmp_path / name)
            parsed = parse_only(path)
            with monkeypatch.context() as patch:
                patch.setattr(scdr.data, "_parse_columns", None)  # the snapshot must serve
                loaded = ingest_domain(path)
            assert same_dataset(loaded, parsed)
            assert loaded.user_index.dtype == loaded.item_index.dtype == np.int32
            assert loaded.rating.dtype == np.float64
            assert loaded.digest == parsed.digest == hashlib.sha256(path.read_bytes()).hexdigest()
        if spec.items == 200:
            assert parsed.n_items < spec.items

    def test_snapshot_bytes_are_stable(self, tmp_path):
        ds = generate_synthetic(SNAPSHOT_SPECS[0])[0].source
        a = written_with_snapshot(ds, tmp_path / "a.csv")
        b = written_with_snapshot(ds, tmp_path / "b.csv")
        assert (tmp_path / "a.csv.npy").read_bytes() == (tmp_path / "b.csv.npy").read_bytes()
        assert a.read_bytes() == b.read_bytes()

    def test_edited_file_is_parsed(self, tmp_path):
        ds = generate_synthetic(SNAPSHOT_SPECS[0])[0].source
        path = written_with_snapshot(ds, tmp_path / "r.csv")
        path.write_text(path.read_text().replace(",", " ,", 1) + "new_user,si000001,2.5\n")
        got = ingest_domain(path)
        assert got.n_users == ds.n_users + 1
        assert same_dataset(got, parse_only(path))

    @pytest.mark.parametrize("chunk", [1, 2, 7])
    @pytest.mark.parametrize("n_rows", [14, 15])
    def test_chunked_write_matches_one_shot_text(self, tmp_path, monkeypatch, chunk, n_rows):
        ratings = np.random.default_rng(n_rows).uniform(1.0, 5.0, size=n_rows).tolist()
        rows = [("usér" if j % 4 == 0 else f"u{j % 3}", f"i{j}", r)
                for j, r in enumerate(ratings)]
        expect = ("\n".join(f"{u},{v},{r!r}" for u, v, r in rows) + "\n").encode("utf-8")
        monkeypatch.setattr(scdr.data, "CHUNK_ROWS", chunk)
        path = written_with_snapshot(dataset(rows), tmp_path / "r.csv")
        assert path.read_bytes() == expect
        file_digest, _ = load_records(tmp_path / "r.csv.npy", 1)[0]
        assert file_digest == hashlib.sha256(expect).hexdigest()

    def test_flipped_record_bit_is_parsed(self, tmp_path):
        # the header's file digest still matches, so only the records digest can tell
        ds = generate_synthetic(SNAPSHOT_SPECS[0])[0].source
        path = written_with_snapshot(ds, tmp_path / "r.csv")
        snapshot = tmp_path / "r.csv.npy"
        raw = bytearray(snapshot.read_bytes())
        top = raw.rfind(ds.rating[-1:].tobytes()) + 7  # the last rating's sign and exponent
        raw[top] ^= 0x40
        snapshot.write_bytes(raw)
        assert load_records(snapshot, 6)[5][-1] != ds.rating[-1]
        got = ingest_domain(path)
        assert same_dataset(got, parse_only(path)) and got.rating[-1] == ds.rating[-1]

    def test_trailing_bytes_are_refused(self, tmp_path):
        # appended bytes pass every record check, yet change the sha256 reports record
        ds = generate_synthetic(SNAPSHOT_SPECS[0])[0].source
        path = written_with_snapshot(ds, tmp_path / "r.csv")
        snapshot = tmp_path / "r.csv.npy"
        snapshot.write_bytes(snapshot.read_bytes() + b"\0")
        with pytest.raises(ValidationError) as exc:
            ingest_domain(path)
        assert f"unreadable rating snapshot {snapshot}: trailing bytes after array 6" in str(
            exc.value)

    def test_write_keeps_per_row_temporaries_to_a_chunk(self, tmp_path):
        ds = generate_synthetic(SyntheticSpec(users=4000, items=500, ratings_per_user=25,
                                              seed=1))[0].source
        assert ds.n_interactions >= 100_000
        tracemalloc.start()
        try:
            path = written_with_snapshot(ds, tmp_path / "r.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # writing the whole file at once held every row's text, their join and its bytes,
        # 18 MB for this 3.6 MB file; chunked, the peak is the snapshot's index columns and
        # one chunk's rows (1.9 MB). The bound is one whole-file copy.
        assert peak < path.stat().st_size

    def test_served_ingest_reports_the_file_digest(self, tmp_path, monkeypatch):
        ds = generate_synthetic(SyntheticSpec(users=400, items=100, ratings_per_user=30,
                                              seed=2))[0].source
        path = written_with_snapshot(ds, tmp_path / "r.csv")
        assert path.stat().st_size > 1 << 18  # hashed in more than one read
        with monkeypatch.context() as patch:
            patch.setattr(scdr.data, "_parse_columns", None)  # the snapshot must serve
            got = ingest_domain(path)
        assert got.digest == hashlib.sha256(path.read_bytes()).hexdigest()

    @pytest.mark.parametrize("line, edit", [
        (3, lambda line: line + ",extra"),
        (5, lambda line: line.rsplit(",", 1)[0] + ",high"),
        (2, lambda line: line.rsplit(",", 1)[0] + ",nan"),
        (4, lambda line: " ," + line.split(",", 1)[1]),
    ])
    def test_stale_snapshot_still_parses_with_the_same_errors(self, tmp_path, line, edit):
        ds = generate_synthetic(SNAPSHOT_SPECS[0])[0].source
        path = written_with_snapshot(ds, tmp_path / "r.csv")
        lines = path.read_text().split("\n")
        lines[line - 1] = edit(lines[line - 1])
        path.write_text("\n".join(lines))
        with pytest.raises(IngestError) as served:
            ingest_domain(path)
        with pytest.raises(IngestError) as parsed:
            parse_only(path)
        assert served.value.row == parsed.value.row == line
        assert str(served.value) == str(parsed.value)

    def test_stale_snapshot_digest_is_of_the_parsed_bytes(self, tmp_path):
        ds = generate_synthetic(SNAPSHOT_SPECS[0])[0].source
        path = written_with_snapshot(ds, tmp_path / "r.csv")
        path.write_bytes(path.read_bytes() + b"new_user,si000001,2.5\n")
        got = ingest_domain(path)
        assert got.digest == hashlib.sha256(path.read_bytes()).hexdigest()
        assert got.digest == parse_only(path).digest

    def test_served_ingest_peaks_below_the_file_size(self, tmp_path):
        # the cold-read benchmark's size: 3,000 users with 30 ratings each
        ds = generate_synthetic(SyntheticSpec(users=3000, items=1000, ratings_per_user=30,
                                              seed=1))[0].source
        path = written_with_snapshot(ds, tmp_path / "r.csv")
        tracemalloc.start()
        try:
            got = ingest_domain(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.digest == hashlib.sha256(path.read_bytes()).hexdigest()
        # reading the file whole to hash it held its bytes beside the loaded dataset and a
        # 64-bit key column: 7.2 MB for this 3.2 MB file. Hashed in fixed-size reads, the
        # peak is the dataset itself (1.4 MB of int32 and float64 columns, the token tuples)
        # and one 32-bit key column for the duplicate check: 2.2 MB. The bound is one copy
        # of the file.
        assert peak < path.stat().st_size

    def test_served_ingest_peak_per_interaction(self, tmp_path):
        # the cold-read benchmark's size: 90,000 interactions
        ds = generate_synthetic(SyntheticSpec(users=3000, items=1000, ratings_per_user=30,
                                              seed=1))[0].source
        path = written_with_snapshot(ds, tmp_path / "r.csv")
        tracemalloc.start()
        try:
            got = ingest_domain(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the loaded columns are 16 bytes per interaction (two int32 indices and a float64
        # rating) and the duplicate check's key column 4 more; with int64 index columns the
        # peak was 32.5 bytes per interaction, with int32 ones it is 24.0. The bound is 28.
        assert peak / got.n_interactions < 28

    def test_missing_snapshot_is_parsed(self, tmp_path, monkeypatch):
        ds = generate_synthetic(SNAPSHOT_SPECS[0])[0].source
        path = tmp_path / "r.csv"
        write_ratings(ds, path)
        assert not (tmp_path / "r.csv.npy").exists()
        calls = []
        real = scdr.data._parse_columns
        monkeypatch.setattr(scdr.data, "_parse_columns", lambda *a: calls.append(1) or real(*a))
        assert ingest_domain(path).n_interactions == ds.n_interactions
        assert calls == [1]

    @pytest.mark.parametrize("column", ["users", "items"])
    @pytest.mark.parametrize("token", ["", "a,b", "a\rb", "a\nb", " c", "c\t", "\ufeffc", "c\x00"],
                             ids=["empty", "comma", "cr", "lf", "leading-space", "trailing-tab",
                                  "byte-order-mark", "trailing-nul"])
    def test_token_that_would_not_read_back_is_refused(self, tmp_path, column, token):
        # such a token, written, reads back as another token or as a malformed row
        ds = dataset([("u0", "i0", 1.0), ("u1", "i1", 2.0), ("u2", "i2", 3.0)])
        tokens = list(getattr(ds, column))
        tokens[1] = token
        tokens[2] = "x,y"  # a later bad token is not the one named
        ds = DomainDataset(*(tuple(tokens) if name == column else getattr(ds, name)
                             for name in ("users", "items")),
                           ds.user_index, ds.item_index, ds.rating)
        with pytest.raises(ValidationError, match=re.escape(f"token {token!r} ")):
            written_with_snapshot(ds, tmp_path / "r.csv")
        assert list(tmp_path.iterdir()) == []


class TestDatasetInvariants:
    def test_duplicate_pairs_rejected(self):
        with pytest.raises(ValidationError):
            DomainDataset(("u",), ("i",), np.array([0, 0]), np.array([0, 0]),
                          np.array([1.0, 2.0]))

    def test_bad_index_rejected(self):
        with pytest.raises(ValidationError):
            DomainDataset(("u",), ("i",), np.array([1]), np.array([0]), np.array([1.0]))

    @pytest.mark.parametrize("users, items, message", [
        (("u0", "u1", "u0"), ("i0", "i1", "i2"), "repeated user token 'u0'"),
        (("u0", "u1", "u2"), ("i0", "i1", "i1"), "repeated item token 'i1'"),
    ], ids=["user", "item"])
    def test_repeated_token_rejected(self, users, items, message):
        # two indices under one token are one user (or item) to every lookup by token
        with pytest.raises(ValidationError, match=message):
            DomainDataset(users, items, np.arange(3), np.arange(3), np.ones(3))

    @pytest.mark.parametrize("build", [
        lambda tmp_path: parse_only(written_with_snapshot(
            generate_synthetic(SNAPSHOT_SPECS[0])[0].source, tmp_path / "r.csv")),
        lambda tmp_path: ingest_domain(written_with_snapshot(
            generate_synthetic(SNAPSHOT_SPECS[0])[0].source, tmp_path / "r.csv")),
        lambda tmp_path: generate_synthetic(SNAPSHOT_SPECS[0])[0].target,
        lambda tmp_path: generate_synthetic(SNAPSHOT_SPECS[0])[0].target_training_dataset(),
        lambda tmp_path: DomainDataset.from_columns(["a", "b", "a"], ["x", "x", "y"],
                                                    [1.0, 2.0, 3.0]),
    ], ids=["parse", "snapshot", "generate_synthetic", "filter_users", "from_columns"])
    def test_index_columns_are_int32(self, tmp_path, build):
        ds = build(tmp_path)
        assert ds.user_index.dtype == ds.item_index.dtype == np.int32
        items, _, _ = ds.user_interactions(np.arange(ds.n_users))
        assert items.dtype == np.int32 and items.size == ds.n_interactions

    def test_token_count_past_int32_is_refused(self):
        class Huge(tuple):
            def __len__(self):
                return 2**31

        for users, items in ((Huge(("u",)), ("i",)), (("u",), Huge(("i",)))):
            with pytest.raises(ValidationError, match="at most 2147483647 users"):
                DomainDataset(users, items, [0], [0], [1.0])

    @pytest.mark.parametrize("what", ["user", "item"])
    @pytest.mark.parametrize("value", [2, -1], ids=["past-the-end", "negative"])
    def test_out_of_range_index_is_refused(self, what, value):
        """Factor training gathers rows with ``take(mode="clip")``, exact only because of this."""
        columns = {"user_index": np.array([0, 1]), "item_index": np.array([1, 0]),
                   f"{what}_index": np.array([value, 0])}
        with pytest.raises(ValidationError, match=f"invalid {what} index"):
            DomainDataset(("u", "v"), ("x", "y"), rating=np.array([1.0, 2.0]), **columns)

    @pytest.mark.parametrize("column", ["user_index", "item_index"])
    def test_index_that_an_int32_cast_would_wrap_is_refused(self, column):
        # 2**32 wraps to the valid index 0
        columns = {"user_index": np.array([0, 0]), "item_index": np.array([0, 1]),
                   column: np.array([2**32, 1], dtype=np.int64)}
        with pytest.raises(ValidationError, match="invalid (user|item) index"):
            DomainDataset(("u", "v"), ("x", "y"), rating=np.array([1.0, 2.0]), **columns)

    def test_pair_keys_past_the_int32_range_keep_every_pair(self, tmp_path):
        # 65,537 users and items, each in one row of its own, put (user, item) keys past
        # 2**32; the crossed last row's key (1, 65,535) equals (65,536, 65,536) modulo 2**32,
        # so keys formed in int32 would collapse the two pairs
        n = 65_537
        lines = [f"u{i},i{i},{1 + i % 5}" for i in range(n)] + ["u1,i65535,2.5"]
        (tmp_path / "r.csv").write_text("\n".join(lines) + "\n")
        ds = ingest_domain(tmp_path / "r.csv")
        assert (ds.n_users, ds.n_items) == (n, n)
        assert ds.n_interactions == n + 1 and ds.duplicate_count == 0
        assert ds.rating[-1] == 2.5 and ds.rating[-2] == 1 + (n - 1) % 5

    def test_user_interactions_are_user_major_in_dataset_order(self):
        ds = dataset([("a", "x", 1.0), ("b", "x", 2.0), ("a", "y", 3.0), ("c", "y", 4.0)])
        items, ratings, counts = ds.user_interactions(np.array([2, 0, 1, 0]))
        assert counts.tolist() == [1, 2, 1, 2]
        assert items.tolist() == [1, 0, 1, 0, 0, 1]
        assert ratings.tolist() == [4.0, 1.0, 3.0, 2.0, 1.0, 3.0]

    def test_user_interactions_of_no_users(self):
        ds = dataset([("a", "x", 1.0)])
        for users in ([], np.array([], dtype=np.int64)):
            items, ratings, counts = ds.user_interactions(users)
            assert items.size == ratings.size == counts.size == 0

    def test_user_interactions_of_a_user_without_interactions(self):
        # filtering keeps the index space, so user "a" stays with no interactions
        ds = dataset([("a", "x", 1.0), ("b", "x", 2.0), ("a", "y", 3.0)]).filter_users([0])
        items, ratings, counts = ds.user_interactions(np.array([1, 0, 1]))
        assert counts.tolist() == [1, 0, 1]
        assert items.tolist() == [0, 0] and ratings.tolist() == [2.0, 2.0]

    @pytest.mark.parametrize("users", [np.array([[0]]), np.array([-1]), np.array([0, 2]), 0],
                             ids=["2-D", "negative", "past-the-end", "scalar"])
    def test_user_interactions_rejects_bad_indices(self, users):
        ds = dataset([("a", "x", 1.0), ("b", "x", 2.0)])
        with pytest.raises(ValidationError, match=r"1-D array within \[0, 2\)"):
            ds.user_interactions(users)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_user_interactions_match_a_mask_per_user(self, seed):
        ds = uneven_scenario(SyntheticSpec(users=60, items=30, overlap_ratio=0.5, dim=3,
                                           seed=seed, ratings_per_user=12))[0].target
        users = np.random.default_rng(seed).integers(0, ds.n_users, size=90)
        items, ratings, counts = ds.user_interactions(users)
        ends = np.cumsum(counts)
        for t, start, end in zip(users, ends - counts, ends):
            pos = np.flatnonzero(ds.user_index == t)
            assert np.array_equal(items[start:end], ds.item_index[pos])
            assert np.array_equal(ratings[start:end], ds.rating[pos])
        assert ends[-1] == items.size == ratings.size

    def test_filter_users_preserves_index_space(self):
        ds = dataset([("a", "x", 1.0), ("b", "x", 2.0), ("a", "y", 3.0)])
        kept = ds.filter_users([0])
        assert kept.n_users == 2 and kept.n_items == 2
        assert kept.n_interactions == 1 and kept.user_index.tolist() == [1]


class TestScenario:
    def test_split_sizes(self):
        scn = two_domain_scenario(n_overlap=10, beta=0.8, seed=7)
        assert len(scn.test_pairs) == 8 and len(scn.train_pairs) == 2

    def test_ceiling_split_at_paper_scale(self):
        # 18,031 overlapping users at beta=0.5 force a 9,016 / 9,015 split
        train, test = split_overlap(18031, 0.5, seed=0)
        assert len(test) == 9016 and len(train) == 9015

    def test_same_seed_same_partition(self):
        a = two_domain_scenario(beta=0.6, seed=3)
        b = two_domain_scenario(beta=0.6, seed=3)
        assert a.train_pairs == b.train_pairs and a.test_pairs == b.test_pairs

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("beta", [0.1, 0.5, 0.9])
    def test_partition_property(self, seed, beta):
        scn = two_domain_scenario(n_overlap=13, beta=beta, seed=seed)
        assert sorted(scn.train_pairs + scn.test_pairs) == sorted(scn.overlap)
        assert not set(scn.train_pairs) & set(scn.test_pairs)
        assert len(scn.test_pairs) == math.ceil(beta * 13)

    def test_item_overlap_rejected(self):
        src = dataset([("u1", "shared", 1.0)])
        tgt = dataset([("u1", "shared", 2.0)])
        with pytest.raises(ValidationError):
            build_scenario(src, tgt, 0.5, 0)

    def test_empty_overlap_rejected(self):
        src = dataset([("a", "x", 1.0)])
        tgt = dataset([("b", "y", 2.0)])
        with pytest.raises(ValidationError):
            build_scenario(src, tgt, 0.5, 0)

    def test_bad_beta_rejected(self):
        src = dataset([("a", "x", 1.0)])
        tgt = dataset([("a", "y", 2.0)])
        for beta in (0.0, 1.0, -0.5, math.nan, math.inf):
            with pytest.raises(ValidationError, match="beta must lie in"):
                build_scenario(src, tgt, beta, 0)

    def test_withholding(self):
        scn = two_domain_scenario(n_overlap=10, beta=0.5, seed=1)
        held_users = {t for _, t in scn.test_pairs}
        train_ds = scn.target_training_dataset()
        assert not held_users & set(train_ds.user_index.tolist())
        # withheld interactions are exactly the test users' target history,
        # laid out user by user in split order
        total = scn.target.n_interactions - train_ds.n_interactions
        items, ratings, counts = scn.target.user_interactions([t for _, t in scn.test_pairs])
        assert total == items.size == ratings.size == counts.sum()
        ends = np.cumsum(counts)
        for (_, t), start, end in zip(scn.test_pairs, ends - counts, ends):
            pos = np.flatnonzero(scn.target.user_index == t)
            assert np.array_equal(items[start:end], scn.target.item_index[pos])
            assert np.array_equal(ratings[start:end], scn.target.rating[pos])


class TestSynthetic:
    def test_overlap_count(self):
        spec = SyntheticSpec(users=200, items=50, overlap_ratio=0.05, dim=4, seed=1,
                             ratings_per_user=10)
        scn, _ = generate_synthetic(spec)
        assert len(scn.overlap) == 10

    # products a hair below a whole number: 0.29 * 100 is 28.999999999999996
    @pytest.mark.parametrize("overlap_ratio, count", [(0.29, 29), (0.57, 57)])
    def test_overlap_count_of_a_product_below_a_whole(self, overlap_ratio, count):
        spec = SyntheticSpec(users=100, items=50, overlap_ratio=overlap_ratio, dim=4, seed=1,
                             ratings_per_user=10)
        scn, _ = generate_synthetic(spec)
        assert len(scn.overlap) == count

    def test_overlap_count_at_desk_scale(self):
        spec = SyntheticSpec(users=2000, items=500, overlap_ratio=0.05, dim=10,
                             noise=0.1, map_kind="linear", seed=1)
        scn, _ = generate_synthetic(spec)
        assert len(scn.overlap) == 100

    def test_full_overlap_shares_every_user(self):
        spec = SyntheticSpec(users=30, items=20, overlap_ratio=1.0, dim=4, seed=2,
                             ratings_per_user=8)
        scn, _ = generate_synthetic(spec)
        assert scn.source.users == scn.target.users
        assert len(scn.overlap) == 30

    def test_noiseless_full_observation_matches_latents(self):
        spec = SyntheticSpec(users=20, items=15, overlap_ratio=0.5, dim=4, noise=0.0,
                             map_kind="linear", seed=2, ratings_per_user=15)
        scn, sc = generate_synthetic(spec)
        for ds, users, items in ((scn.source, sc.source_user_latents, sc.source_item_latents),
                                 (scn.target, sc.target_user_latents, sc.target_item_latents)):
            expect = np.clip(
                np.einsum("ij,ij->i", users[ds.user_index], items[ds.item_index]), 1.0, 5.0)
            assert np.array_equal(ds.rating, expect)

    def test_regeneration_identical(self):
        spec = SyntheticSpec(users=50, items=30, overlap_ratio=0.2, dim=4, noise=0.2, seed=9,
                             ratings_per_user=10)
        a, _ = generate_synthetic(spec)
        b, _ = generate_synthetic(spec)
        assert np.array_equal(a.source.rating, b.source.rating)
        assert np.array_equal(a.target.item_index, b.target.item_index)
        assert a.source.users == b.source.users

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_beta_moves_only_the_split(self, seed):
        # the acceptance suite trains a domain once for every beta that shares it
        scenarios = [generate_synthetic(SyntheticSpec(
            users=200, items=50, overlap_ratio=0.2, dim=4, noise=0.3, map_kind="tanh",
            seed=seed, beta=beta, ratings_per_user=10))[0] for beta in (0.2, 0.5, 0.8)]
        first = scenarios[0]
        for other in scenarios[1:]:
            for a, b in ((first.source, other.source), (first.target, other.target)):
                assert (a.users, a.items, a.duplicate_count, a.digest) == (
                    b.users, b.items, b.duplicate_count, b.digest)
                for name in ("user_index", "item_index", "rating"):
                    x, y = getattr(a, name), getattr(b, name)
                    assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name
            assert (first.overlap, first.seed, first.inputs) == (
                other.overlap, other.seed, other.inputs)
            assert first.test_pairs != other.test_pairs
            assert first.train_pairs != other.train_pairs

    def test_map_kinds_plant_expected_transform(self):
        for kind in ("identity", "linear", "tanh"):
            spec = SyntheticSpec(users=40, items=20, overlap_ratio=0.25, dim=5, noise=0.0,
                                 map_kind=kind, seed=3, ratings_per_user=10)
            scn, sc = generate_synthetic(spec)
            n_o = len(scn.overlap)
            src = sc.source_user_latents[:n_o]
            tgt = sc.target_user_latents[:n_o]
            centered = src - sc.latent_mean
            if kind == "identity":
                expect = src
            elif kind == "linear":
                expect = sc.latent_mean + centered @ sc.map_matrix.T
            else:
                expect = sc.latent_mean + 0.5 * np.tanh((centered @ sc.map_matrix.T) / 0.5)
            assert np.allclose(tgt, expect, atol=0, rtol=0)

    @pytest.mark.parametrize("chunk", [8192, 10])
    @pytest.mark.parametrize("spec", [
        *(SyntheticSpec(users=40, items=25, overlap_ratio=0.25, dim=4, noise=noise,
                        map_kind=kind, seed=11, ratings_per_user=7)
          for kind in MAP_KINDS for noise in (0.0, 0.3)),
        SyntheticSpec(users=30, items=12, overlap_ratio=1.0, dim=3, noise=0.2, seed=12,
                      ratings_per_user=5),
        # 1,300 users of 7 ratings are 9,100 per domain: a block of 1,170 users and a partial one
        SyntheticSpec(users=1300, items=30, overlap_ratio=0.4, dim=6, noise=0.2,
                      map_kind="tanh", seed=13, ratings_per_user=7),
    ], ids=[*(f"{kind}-noise{noise}" for kind in MAP_KINDS for noise in (0.0, 0.3)),
            "full-overlap", "two-blocks"])
    def test_ratings_match_per_user_loop(self, monkeypatch, spec, chunk):
        # blocks of 10 rows hold one user of 7 or two of 5 ratings, ending on partial blocks
        monkeypatch.setattr(scdr.data, "CHUNK_ROWS", chunk)
        scenario, sidecar = generate_synthetic(spec)
        rng = np.random.default_rng(spec.seed)
        n_overlap = len(scenario.overlap)
        # the draws that precede the ratings: map, user and item latents, one normal per entry
        rng.standard_normal(spec.dim * (spec.dim + 2 * spec.users - n_overlap + 2 * spec.items))

        def emit(user_latents, item_latents):
            """The generator's per-user loop as it was before its products left the loop."""
            ui, vi, rr = [], [], []
            for i in range(user_latents.shape[0]):
                chosen = rng.choice(spec.items, size=spec.ratings_per_user, replace=False)
                raw = user_latents[i] @ item_latents[chosen].T
                if spec.noise > 0.0:
                    raw = raw + spec.noise * rng.standard_normal(spec.ratings_per_user)
                ui.append(np.full(spec.ratings_per_user, i, dtype=np.int32))
                vi.append(np.asarray(chosen, dtype=np.int32))
                rr.append(np.clip(raw, 1.0, 5.0))
            return np.concatenate(ui), np.concatenate(vi), np.concatenate(rr)

        for ds, users, items in (
                (scenario.source, sidecar.source_user_latents, sidecar.source_item_latents),
                (scenario.target, sidecar.target_user_latents, sidecar.target_item_latents)):
            for name, expect in zip(("user_index", "item_index", "rating"), emit(users, items)):
                got = getattr(ds, name)
                assert got.dtype == expect.dtype and got.tobytes() == expect.tobytes(), name

    def test_generator_peak_stays_near_its_output(self):
        # the CLI's synth defaults at 3,000 users and 1,000 items: 90,000 ratings per domain
        spec = SyntheticSpec(users=3000, items=1000, overlap_ratio=0.5, dim=10, noise=0.3,
                             map_kind="tanh", beta=0.8, ratings_per_user=30, seed=1)
        # numpy 2 imports numpy.random on first use; its module objects are not the generator's
        np.random
        tracemalloc.start()
        try:
            scenario, _ = generate_synthetic(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        columns = sum(getattr(ds, name).nbytes for ds in (scenario.source, scenario.target)
                      for name in ("user_index", "item_index", "rating"))
        # the six rating columns are 4.3 MB with int64 indices and 2.9 MB with int32 ones.
        # Keeping one small array per user in three lists and concatenating them peaked at
        # 9.2 MB (2.1 times the int64 columns); filling preallocated (users, k) arrays peaked
        # at 6.6 MB (1.5 times), the columns, one domain's noise draws and the duplicate-pair
        # key column. With int32 columns a separate noise array reads 1.92 times the columns;
        # drawn straight into the rating rows, with the unstacked user latents freed, the peak
        # is 4.5 MB (1.56 times). The bound is 1.75 times the columns.
        assert peak < 1.75 * columns

    def test_invalid_specs(self):
        with pytest.raises(ValidationError):
            SyntheticSpec(overlap_ratio=0.0)
        with pytest.raises(ValidationError):
            SyntheticSpec(noise=-0.1)
        with pytest.raises(ValidationError):
            SyntheticSpec(map_kind="spline")
        with pytest.raises(ValidationError):
            SyntheticSpec(users=100, items=10, ratings_per_user=11)

    @pytest.mark.parametrize("noise", [math.nan, math.inf])
    def test_non_finite_noise_rejected(self, noise):
        with pytest.raises(ValidationError, match="noise level must be finite"):
            SyntheticSpec(noise=noise)


class TestManifest:
    def test_round_trip(self, tmp_path):
        spec = SyntheticSpec(users=60, items=30, overlap_ratio=0.2, dim=4, noise=0.1,
                             seed=4, beta=0.7, ratings_per_user=8)
        scn, sc = generate_synthetic(spec)
        write_ratings(scn.source, tmp_path / "s.csv")
        write_ratings(scn.target, tmp_path / "t.csv")
        save_manifest(scn, tmp_path / "m.json", "s.csv", "t.csv")
        save_sidecar(sc, tmp_path / "g.npy")

        back = load_scenario(tmp_path / "m.json")
        assert back.beta == scn.beta and back.seed == scn.seed
        assert back.train_pairs == scn.train_pairs and back.test_pairs == scn.test_pairs
        assert np.array_equal(back.source.rating, scn.source.rating)
        # the manifest does not name the sidecar; an older one that does still loads
        doc = json.loads((tmp_path / "m.json").read_text())
        assert "sidecar" not in doc
        (tmp_path / "old.json").write_text(json.dumps({**doc, "sidecar": "g.npy"}))
        old = load_scenario(tmp_path / "old.json")
        assert old.train_pairs == scn.train_pairs and old.test_pairs == scn.test_pairs

    def test_membership_optional(self, tmp_path):
        scn = two_domain_scenario(n_overlap=8, beta=0.5, seed=11)
        write_ratings(scn.source, tmp_path / "s.csv")
        write_ratings(scn.target, tmp_path / "t.csv")
        doc = {"format_version": 1, "source_ratings": "s.csv", "target_ratings": "t.csv",
               "beta": 0.5, "seed": 11}
        (tmp_path / "m.json").write_text(json.dumps(doc))
        back = load_scenario(tmp_path / "m.json")
        assert back.test_pairs == scn.test_pairs

    def test_recorded_digests_refuse_other_rating_files(self, tmp_path):
        scn = two_domain_scenario(n_overlap=8, beta=0.5, seed=11)
        digests = (write_ratings(scn.source, tmp_path / "s.csv"),
                   write_ratings(scn.target, tmp_path / "t.csv"))
        assert digests == tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                                for name in ("s.csv", "t.csv"))
        save_manifest(scn, tmp_path / "m.json", "s.csv", "t.csv", digests)
        doc = json.loads((tmp_path / "m.json").read_text())
        assert (doc["source_ratings_sha256"], doc["target_ratings_sha256"]) == digests
        back = load_scenario(tmp_path / "m.json")
        assert (back.inputs["source_ratings"], back.inputs["target_ratings"]) == digests

        # a valid rating file that the manifest does not record
        with open(tmp_path / "t.csv", "a") as fh:
            fh.write("u0,tz,1.0\n")
        message = f"rating file {tmp_path / 't.csv'} is not the one {tmp_path / 'm.json'}"
        with pytest.raises(ValidationError, match=re.escape(message)):
            load_scenario(tmp_path / "m.json")
        # a hand-written manifest without the keys reads the same files as they are
        for key in ("source_ratings_sha256", "target_ratings_sha256"):
            del doc[key]
        (tmp_path / "hand.json").write_text(json.dumps(doc))
        assert load_scenario(tmp_path / "hand.json").target.n_items == scn.target.n_items + 1
        # an ingest error comes before the digest check
        (tmp_path / "s.csv").write_text("a,x\n")
        with pytest.raises(IngestError, match="row 1"):
            load_scenario(tmp_path / "m.json")

    def test_stored_membership_wins_over_recomputed_split(self, tmp_path):
        scn = two_domain_scenario(n_overlap=8, beta=0.5, seed=11)
        write_ratings(scn.source, tmp_path / "s.csv")
        write_ratings(scn.target, tmp_path / "t.csv")
        save_manifest(scn, tmp_path / "m.json", "s.csv", "t.csv")
        doc = json.loads((tmp_path / "m.json").read_text())
        train, test = doc["train_users"], doc["test_users"]
        train[0], test[0] = test[0], train[0]
        (tmp_path / "m.json").write_text(json.dumps(doc))
        back = load_scenario(tmp_path / "m.json")
        assert back.train_user_tokens == train and back.test_user_tokens == test
        assert back.train_pairs != scn.train_pairs and back.test_pairs != scn.test_pairs

    def test_stored_membership_draws_nothing(self, tmp_path, monkeypatch):
        scn, _ = generate_synthetic(SyntheticSpec(users=60, items=30, overlap_ratio=0.5, dim=3,
                                                  seed=6, beta=0.4, ratings_per_user=5))
        write_ratings(scn.source, tmp_path / "s.csv")
        write_ratings(scn.target, tmp_path / "t.csv")
        save_manifest(scn, tmp_path / "m.json", "s.csv", "t.csv")

        def no_draw(*args, **kwargs):
            raise AssertionError("the stored split was drawn again")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        back = load_scenario(tmp_path / "m.json")
        assert back.train_pairs == scn.train_pairs and back.test_pairs == scn.test_pairs
        assert back.beta == scn.beta and back.seed == scn.seed

    @pytest.mark.parametrize("membership", [{}, {"train_users": ["a"], "test_users": []}])
    def test_shared_item_token_rejected(self, tmp_path, membership):
        (tmp_path / "s.csv").write_text("a,x,1\nb,y,2\n")
        (tmp_path / "t.csv").write_text("a,x,3\nc,z,2\n")
        doc = {"format_version": 1, "source_ratings": "s.csv", "target_ratings": "t.csv",
               "beta": 0.5, "seed": 0, **membership}
        (tmp_path / "m.json").write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="item sets must be disjoint"):
            load_scenario(tmp_path / "m.json")

    def test_bad_membership_rejected(self, tmp_path):
        scn = two_domain_scenario(n_overlap=4, beta=0.5, seed=0)
        write_ratings(scn.source, tmp_path / "s.csv")
        write_ratings(scn.target, tmp_path / "t.csv")
        doc = {"format_version": 1, "source_ratings": "s.csv", "target_ratings": "t.csv",
               "beta": 0.5, "seed": 0, "train_users": ["ghost"], "test_users": []}
        (tmp_path / "m.json").write_text(json.dumps(doc))
        with pytest.raises(ValidationError):
            load_scenario(tmp_path / "m.json")

    def test_truncated_manifest_is_validation_error(self, tmp_path):
        spec = SyntheticSpec(users=60, items=30, overlap_ratio=0.2, dim=4, seed=4,
                             ratings_per_user=8)
        scn, _ = generate_synthetic(spec)
        write_ratings(scn.source, tmp_path / "s.csv")
        write_ratings(scn.target, tmp_path / "t.csv")
        save_manifest(scn, tmp_path / "m.json", "s.csv", "t.csv")
        raw = (tmp_path / "m.json").read_bytes()
        (tmp_path / "m.json").write_bytes(raw[:len(raw) // 2])
        with pytest.raises(ValidationError, match="malformed"):
            load_scenario(tmp_path / "m.json")

    @pytest.mark.parametrize("overlap_ratio", [0.3, 1.0])
    def test_sidecar_is_a_header_and_six_float64_records(self, tmp_path, overlap_ratio):
        _, sc = generate_synthetic(SyntheticSpec(users=33, items=21, overlap_ratio=overlap_ratio,
                                                 dim=4, ratings_per_user=3, seed=5))
        path = tmp_path / "g.npy"
        save_sidecar(sc, path)
        with open(path, "rb") as fh:
            head, *arrays = (np.load(fh, allow_pickle=False) for _ in range(7))
            assert fh.read() == b""
        assert json.loads(head.item()) == {"format_version": 3, "kind": "synthetic_sidecar",
                                           "map_kind": sc.map_kind, "seed": sc.seed,
                                           "records": scdr.data._records_digest(arrays)}
        names = ["source_user_latents", "target_user_latents", "source_item_latents",
                 "target_item_latents", "latent_mean", "map_matrix"]
        assert [a.shape for a in arrays] == [(33, 4), (33, 4), (21, 4), (21, 4), (4,), (4, 4)]
        for name, arr in zip(names, arrays):
            assert arr.dtype == np.float64 and arr.tobytes() == getattr(sc, name).tobytes(), name

    def test_sidecar_round_trip_is_bitwise(self, tmp_path):
        """The library has no sidecar reader: plain ``np.load`` calls in file order read the
        JSON header, then the six float64 arrays, every bit of them."""
        _, sc = generate_synthetic(SyntheticSpec(users=20, items=10, overlap_ratio=0.5, dim=3,
                                                 ratings_per_user=3, seed=6))
        sc.source_user_latents[0] = [-0.0, 5e-324, 2.2250738585072014e-308 / 3]
        sc.map_matrix[1, 2] = -0.0
        path = tmp_path / "g.npy"
        save_sidecar(sc, path)
        with open(path, "rb") as fh:
            head = json.loads(np.load(fh, allow_pickle=False).item())
            back = {name: np.load(fh, allow_pickle=False) for name in scdr.data._SIDECAR_ARRAYS}
            assert fh.read() == b""
        for name, got in back.items():
            expect = getattr(sc, name)
            assert got.dtype == np.float64 and got.shape == expect.shape, name
            assert got.tobytes() == expect.tobytes(), name
        assert np.signbit(back["source_user_latents"][0, 0])
        assert back["source_user_latents"][0, 1] == 5e-324
        assert (head["map_kind"], head["seed"]) == (sc.map_kind, sc.seed)

    def test_sidecar_write_keeps_its_temporaries_to_a_block(self, tmp_path):
        _, sc = generate_synthetic(SyntheticSpec(users=3000, items=1000, overlap_ratio=0.5,
                                                 ratings_per_user=2, seed=1))
        path = tmp_path / "g.json"
        tracemalloc.start()
        try:
            save_sidecar(sc, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one whole-document json.dumps held every latent as a Python float, the text and
        # its bytes: 7.9 MB for this 1.6 MB file. Streamed, the peak is one block of 8,192
        # numbers as floats, their repr strings and their text: 1.2 MB, whatever the user
        # count. The bound is one copy of the file.
        assert peak < path.stat().st_size

    @pytest.mark.parametrize("name, what, load, read", [
        ("r.csv.npy", "unreadable rating snapshot", ingest_domain, "r.csv"),
        ("f.npy", "malformed factor checkpoint", load_factor_model, "f.npy"),
        ("net.npy", "malformed mapping checkpoint", load_mapping, "net.npy"),
    ], ids=["snapshot", "factor", "mapping"])
    def test_json_document_at_npy_path_is_not_records(self, tmp_path, name, what, load, read):
        scn, sc = generate_synthetic(SyntheticSpec(users=20, items=10, overlap_ratio=0.5,
                                                   dim=2, ratings_per_user=3))
        written_with_snapshot(scn.source, tmp_path / "r.csv")
        # a JSON document, as a version-1 sidecar and a version-2 checkpoint were
        path = tmp_path / name
        path.write_text(json.dumps({"format_version": 1, "map_kind": sc.map_kind,
                                    "seed": sc.seed}) + "\n")
        with pytest.raises(ValidationError) as exc:
            load(tmp_path / read)
        assert f"{what} {path}: not `np.save` records" in str(exc.value)
        assert "pickle" not in str(exc.value)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(MissingInputError):
            load_scenario(tmp_path / "m.json")

    def test_overlap_helper(self):
        src = dataset([("a", "x", 1.0), ("b", "y", 2.0)])
        tgt = dataset([("b", "z", 1.0), ("c", "w", 2.0)])
        assert compute_overlap(src, tgt) == [(1, 0)]


def write_factor_checkpoint(path):
    rng = np.random.default_rng(0)
    save_factor_model((FactorModel(rng.normal(size=(3, 2)), rng.normal(size=(4, 2))),
                       FactorModel(rng.normal(size=(5, 2)), rng.normal(size=(6, 2)))), path,
                      inputs={"manifest": "a" * 64})


def write_mapping_checkpoint(path):
    net = MappingNet(np.ones((3, 2)), np.zeros(3), np.ones((2, 3)), np.zeros(2))
    save_mapping(net, path, inputs={"factor_models": "b" * 64})


@pytest.mark.parametrize("write, load", [
    (write_factor_checkpoint, load_factor_model),
    (write_mapping_checkpoint, load_mapping),
], ids=["factor", "mapping"])
def test_every_header_character_above_unicode_is_refused(tmp_path, write, load):
    """0xF4 over the high byte of any character of an array document's JSON header is a
    code point above U+10FFFF; the reader refuses it naming the file, and raises nothing else.

    Before the records were checked for such code points, json.loads raised SystemError
    on one inside a one-character string, such as the key "k" that factor checkpoints
    once held.
    """
    path = tmp_path / "doc.npy"
    write(path)
    raw = path.read_bytes()
    for at in high_bytes(path):
        path.write_bytes(raw[:at] + b"\xf4" + raw[at + 1:])
        with pytest.raises(ValidationError, match=re.escape(str(path))):
            load(path)


def test_write_csv_writes_exact_float_text(tmp_path):
    rows = [(0, 0.1), (1, 1e-17), (2, 1 / 3)]
    write_csv(tmp_path / "a.csv", "epoch,loss", iter(rows))
    lines = (tmp_path / "a.csv").read_text().splitlines()
    assert lines[0] == "epoch,loss"
    assert [(int(i), float(v)) for i, v in (line.split(",") for line in lines[1:])] == rows
    write_csv(tmp_path / "b.csv", "epoch,loss", [])
    assert (tmp_path / "b.csv").read_text() == "epoch,loss\n"


class TestAtomicWrite:
    def test_writes_text(self, tmp_path):
        write_atomic(tmp_path / "a.txt", "x\ny\n")
        assert (tmp_path / "a.txt").read_bytes() == b"x\ny\n"
        assert [p.name for p in tmp_path.iterdir()] == ["a.txt"]

    def test_failed_write_leaves_nothing(self, tmp_path, monkeypatch):
        fail_halfway(monkeypatch, "a.txt")
        with pytest.raises(OSError):
            write_atomic(tmp_path / "a.txt", "0123456789" * 1000)
        assert list(tmp_path.iterdir()) == []

    def test_failed_overwrite_keeps_old_file(self, tmp_path, monkeypatch):
        write_atomic(tmp_path / "a.txt", "old\n")
        fail_halfway(monkeypatch, "a.txt")
        with pytest.raises(OSError):
            write_atomic(tmp_path / "a.txt", "new\n" * 1000)
        assert (tmp_path / "a.txt").read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["a.txt"]

    def test_manifest_write_fails_cleanly(self, tmp_path, monkeypatch):
        scn = two_domain_scenario()
        fail_halfway(monkeypatch, "m.json")
        with pytest.raises(OSError):
            save_manifest(scn, tmp_path / "m.json", "s.csv", "t.csv")
        assert list(tmp_path.iterdir()) == []
