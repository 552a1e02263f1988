"""Rating data ingestion, cross-domain scenarios, synthetic generators, and the artifact codec.

A rating file holds one ``user,item,rating`` row per line, with no header.
A scenario couples a source and a target domain that share users but no
items. Overlapping users are split by a seeded shuffle into a mapping-train
set and a cold-start test set; the target-domain history of test users is
withheld from every training stream.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import tokenize
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from pathlib import Path

import numpy as np

from .errors import IngestError, MissingInputError, ScdrError, ValidationError

MANIFEST_VERSION = 1
# the manifest keys of the source and the target rating file's sha256
_DIGEST_KEYS = ("source_ratings_sha256", "target_ratings_sha256")
SIDECAR_VERSION = 3
MAP_KINDS = ("identity", "linear", "tanh")
# rows per slice of a pass over all ratings, so its temporaries stay this size
CHUNK_ROWS = 8192
# tokens a domain may index: every index column is int32
INDEX_LIMIT = np.iinfo(np.int32).max


@contextmanager
def json_document(path, what: str, arrays: dict | None = None, header: dict | None = None):
    """Read the JSON object stored at ``path`` for the ``with`` body.

    Yields the object and the sha256 of the file's bytes, which are read
    once. With ``arrays`` (names to ``(dtype, ndim)``) the file holds
    :func:`write_artifact`'s records, and the object carries each array
    under its name. A missing file raises :class:`MissingInputError`. Text
    that is not UTF-8 JSON (nesting too deep to decode included), a top
    level that is not an object, a truncated, pickled or ill-typed record,
    and any key, type or value error the body raises while reading the
    document become a :class:`ValidationError` naming the file; package
    errors pass through. With ``header``, an object that differs from it under any of its
    keys raises ValidationError ``not a <what>`` before any array is read, so a file of
    another version is refused as such whatever its layout.
    """
    path = Path(path)
    if not path.is_file():
        raise MissingInputError(f"{what} not found: {path}")
    try:
        raw = path.read_bytes()
        if arrays is None:
            doc = json.loads(raw.decode("utf-8"))
        else:
            records = _typed_arrays(io.BytesIO(raw), [("U", 0), *arrays.values()])
            doc = json.loads(next(records).item())
        if not isinstance(doc, dict):
            raise TypeError("top level is not a JSON object")
        if any(doc.get(key) != value for key, value in (header or {}).items()):
            raise ValidationError(f"not a {what}: {path}")
        if arrays is not None:
            # list() runs the records to their end, where trailing bytes are refused
            doc.update(zip(arrays, list(records)))
        yield doc, hashlib.sha256(raw).hexdigest()
    except ScdrError:
        raise
    except (KeyError, TypeError, ValueError, EOFError, OverflowError, RecursionError) as exc:
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
        raise ValidationError(f"malformed {what} {path}: {detail}") from None


def number(kind: type, value, name: str):
    """``value`` as ``kind`` (int or float) for JSON-read config and manifest values.

    A bool, a non-number, NaN, an infinity, or a fraction for an int raises
    a TypeError naming ``name``.
    """
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            # JSON documents may spell NaN and Infinity; no number here means either
            or isinstance(value, float) and not math.isfinite(value)
            or kind is int and isinstance(value, float) and not value.is_integer()):
        raise TypeError(f"{name} must be a finite {kind.__name__}, got {value!r}")
    return kind(value)


@contextmanager
def _atomic_file(path):
    """A binary file for the ``with`` body to write ``path`` through, as a temp file beside it.

    The temp file replaces ``path`` only once the body completes, and is
    removed if the body fails, so a failed write leaves neither a partial
    ``path`` nor the temp file behind.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_atomic(path, text: str) -> None:
    """Write ``text`` as UTF-8 to ``path`` through :func:`_atomic_file`."""
    with _atomic_file(path) as fh:
        fh.write(text.encode("utf-8"))


def write_csv(path, header: str, rows) -> None:
    """Write ``header``, then each row's values as their ``repr``, comma-joined: exact float text."""
    lines = [header, *(",".join(map(repr, row)) for row in rows)]
    write_atomic(path, "\n".join(lines) + "\n")


def write_json(path, doc: dict, indent: int | None = None) -> None:
    """Write ``doc`` as sorted-key JSON text with one trailing newline."""
    write_atomic(path, json.dumps(doc, indent=indent, sort_keys=True) + "\n")


def _write_arrays(path, arrays) -> None:
    """Write each array to ``path`` as a pickle-free ``np.save`` record, atomically."""
    with _atomic_file(path) as fh:
        for arr in arrays:
            np.save(fh, arr, allow_pickle=False)


def _typed_arrays(fh, layout):
    """Yield ``np.save`` records from ``fh``, one per ``(dtype, ndim)`` of ``layout``.

    ``"U"`` admits a string of any width; another dtype or rank raises TypeError naming
    the record's position. Pickled records, bytes that do not start with the ``.npy``
    magic (an older JSON document at the path, say), a header numpy cannot parse and
    bytes after the last record raise ValueError.
    """
    for i, (dtype, ndim) in enumerate(layout):
        magic = fh.read(len(np.lib.format.MAGIC_PREFIX))
        # numpy would take other bytes for a pickle and advise loading it unsafely
        if magic and magic != np.lib.format.MAGIC_PREFIX:
            raise ValueError(f"not `np.save` records (array {i} lacks the .npy magic)")
        fh.seek(-len(magic), io.SEEK_CUR)
        # numpy's header parse lets these through, e.g. for a header dict cut short
        try:
            arr = np.load(fh, allow_pickle=False)
        except (tokenize.TokenError, SyntaxError) as exc:
            raise ValueError(f"array {i} has an unparsable header: {exc}") from None
        if not (isinstance(arr, np.ndarray) and arr.ndim == ndim
                and (arr.dtype.kind == "U" if dtype == "U" else arr.dtype == dtype)):
            raise TypeError(f"array {i} is not {ndim}-D {dtype}")
        yield arr
    if fh.read(1):
        raise ValueError(f"trailing bytes after array {i}")


def write_artifact(path, kind: str, version: int, payload: dict, indent: int | None = None,
                   inputs: dict | None = None, arrays: dict | None = None) -> None:
    """Write ``payload`` under the ``format_version``/``kind`` header and the ``inputs`` digests.

    With ``arrays``, the file is the document's JSON text as a 0-d string followed by
    each array, as pickle-free ``np.save`` records; the document's ``records`` is the
    :func:`_records_digest` of those arrays.
    """
    inputs = {} if inputs is None else {"inputs": inputs}
    doc = {"format_version": version, "kind": kind, **inputs, **payload}
    if arrays is None:
        write_json(path, doc, indent)
    else:
        doc["records"] = _records_digest(arrays.values())
        _write_arrays(path, [np.array(json.dumps(doc, sort_keys=True)), *arrays.values()])


@contextmanager
def read_artifact(path, kind: str, version: int, what: str, inputs: dict | None = None,
                  arrays: dict | None = None):
    """:func:`json_document` of an artifact whose header must name ``kind`` and ``version``.

    Yields the document and its sha256. Another header, digests other than the given
    ``inputs``, or ``arrays`` that do not hash to the header's ``records`` digest raise
    ValidationError naming it. The yielded document holds no ``records`` key.
    """
    header = {"format_version": version, "kind": kind}
    with json_document(path, what, arrays, header) as (doc, digest):
        if inputs is not None and doc.get("inputs") != inputs:
            raise ValidationError(f"stale {what} {path}: it was made from other input files")
        if arrays is not None and doc.pop("records", None) != _records_digest(
                doc[name] for name in arrays):
            raise ValueError("its records do not match the digest in its header")
        yield doc, digest


@dataclass
class DomainDataset:
    """Users, items, and observed interactions of one domain.

    Tokens get dense indices in first-appearance order. ``interactions``
    are parallel arrays (user_index, item_index, rating); (user, item)
    pairs are unique, duplicates having been collapsed last-write-wins at
    construction time with the overwrite count kept in ``duplicate_count``.
    The index columns are int32, so a domain holds at most ``2**31 - 1``
    users and as many items. A repeated user or item token raises
    :class:`ValidationError` naming it. ``digest`` is the sha256 of the
    rating file the dataset was read from.
    """

    users: tuple[str, ...]
    items: tuple[str, ...]
    user_index: np.ndarray
    item_index: np.ndarray
    rating: np.ndarray
    duplicate_count: int = 0
    digest: str | None = None

    def __post_init__(self):
        _check_token_count(max(len(self.users), len(self.items)))
        if len(self.users) < 1 or len(self.items) < 1:
            raise ValidationError("dataset must contain at least one user and one item")
        for what, tokens in (("user", self.users), ("item", self.items)):
            if len(set(tokens)) < len(tokens):
                repeated = next(tok for tok, count in Counter(tokens).items() if count > 1)
                raise ValidationError(f"repeated {what} token {repeated!r}")
        self.user_index = _index_column(self.user_index, self.n_users, "user")
        self.item_index = _index_column(self.item_index, self.n_items, "item")
        self.rating = np.asarray(self.rating, dtype=np.float64)
        if not (self.user_index.shape == self.item_index.shape == self.rating.shape):
            raise ValidationError("interaction arrays must share a shape")
        if self.n_interactions == 0:
            raise ValidationError("dataset must contain at least one interaction")
        if not np.all(np.isfinite(self.rating)):
            raise ValidationError("ratings must be finite")
        # one key column, of the narrowest integer that holds every key, sorted in place
        wide = self.n_users * self.n_items > INDEX_LIMIT
        keys = self.user_index.astype(np.int64 if wide else np.int32)
        keys *= self.n_items
        keys += self.item_index
        keys.sort()
        if np.any(keys[1:] == keys[:-1]):
            raise ValidationError("duplicate (user, item) interaction pairs")

    @property
    def n_users(self) -> int:
        return len(self.users)

    @property
    def n_items(self) -> int:
        return len(self.items)

    @property
    def n_interactions(self) -> int:
        return int(self.user_index.size)

    @classmethod
    def from_columns(cls, users, items, ratings) -> "DomainDataset":
        """Index parallel token and rating columns, collapsing repeated pairs last-write-wins.

        Tokens get dense indices in first-appearance order. Each surviving
        (user, item) pair keeps the position of its first appearance and the
        rating of its last one.
        """
        users, ui = _dense_index(users)
        items, vi = _dense_index(items)
        rating = np.asarray(ratings, dtype=np.float64)
        # a pair key can pass the int32 range even where every index is within it
        keys = ui.astype(np.int64)
        keys *= len(items)
        keys += vi
        _, first = np.unique(keys, return_index=True)
        _, last_from_end = np.unique(keys[::-1], return_index=True)
        order = np.argsort(first)
        first = first[order]
        last = keys.size - 1 - last_from_end[order]
        return cls(users, items, ui[first], vi[first], rating[last],
                   duplicate_count=int(keys.size - first.size))

    @cached_property
    def _user_groups(self) -> tuple[np.ndarray, np.ndarray]:
        """Interaction positions grouped by user (each in interaction order), and group offsets."""
        order = np.argsort(self.user_index, kind="stable").astype(np.int32)
        ends = np.cumsum(np.bincount(self.user_index, minlength=self.n_users))
        return order, np.concatenate(([0], ends))

    def user_interactions(self, users) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Interactions of ``users`` (a 1-D array of user indices), flat and user-major.

        Returns (item indices, ratings, per-user counts): the ``i``-th user owns
        the next ``counts[i]`` items and ratings, in dataset order. A count may
        be 0, so callers that need every user rated check the counts.
        """
        users = np.asarray(users, dtype=np.int64)
        if users.ndim != 1 or users.size and not 0 <= users.min() <= users.max() < self.n_users:
            raise ValidationError(f"user indices must be a 1-D array within [0, {self.n_users})")
        order, offsets = self._user_groups
        starts = offsets[users]
        counts = offsets[users + 1] - starts
        ends = np.cumsum(counts)
        # each user's run of positions in ``order``, in one gather
        pos = order[np.repeat(starts - (ends - counts), counts) + np.arange(counts.sum())]
        return self.item_index[pos], self.rating[pos], counts

    def filter_users(self, drop_user_indices) -> "DomainDataset":
        """Copy with all interactions of the given users removed; index space unchanged."""
        drop = np.fromiter(map(int, drop_user_indices), dtype=np.int64)
        keep = ~np.isin(self.user_index, drop)
        if not keep.any():
            raise ValidationError("filtering removed every interaction")
        return DomainDataset(
            self.users,
            self.items,
            self.user_index[keep],
            self.item_index[keep],
            self.rating[keep],
            duplicate_count=self.duplicate_count,
        )


def _check_token_count(count: int) -> None:
    if count > INDEX_LIMIT:
        raise ValidationError(f"a domain holds at most {INDEX_LIMIT} users and as many items")


def _index_column(values, n: int, what: str) -> np.ndarray:
    """``values`` as an int32 column of indices into ``n`` tokens; one out of range raises.

    The range is checked before the cast, so with ``n`` within ``INDEX_LIMIT`` no value wraps.
    """
    column = np.asarray(values)
    if column.size and not 0 <= column.min() <= column.max() < n:
        raise ValidationError(f"interaction references an invalid {what} index")
    return column.astype(np.int32, copy=False)


def _dense_index(tokens) -> tuple[tuple[str, ...], np.ndarray]:
    """Distinct tokens in first-appearance order, and each token's int32 index among them."""
    distinct = tuple(dict.fromkeys(tokens))
    _check_token_count(len(distinct))
    index = dict(zip(distinct, range(len(distinct))))
    return distinct, np.fromiter(map(index.__getitem__, tokens), dtype=np.int32, count=len(tokens))


def _split_lines(text: str) -> list[str]:
    """Lines split on universal newlines: LF, CRLF and a lone CR."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def _read_lines(raw: bytes, path: Path) -> list[str]:
    """The lines of a file's UTF-8 bytes less a leading BOM; a decoding error names its row."""
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        row = len(_split_lines(raw[:exc.start].decode("utf-8")))
        raise IngestError(f"{path} is not UTF-8 text ({exc.reason} at byte {exc.start})",
                          row=row) from None
    return _split_lines(text.removeprefix("\ufeff"))


def _parse_columns(raw: bytes, path: Path):
    """Bulk-parse a rating file's bytes into (user tokens, item tokens, ratings).

    Returns None when any row is malformed; :func:`_raise_first_bad_row`
    then names the first one.
    """
    body = list(filter(None, _read_lines(raw, path)))
    if not body:
        raise IngestError(f"empty dataset: {path}")
    if set(map(str.count, body, repeat(","))) != {2}:
        return None
    joined = ",".join(body)
    del body
    fields = joined.split(",")
    del joined
    try:
        rating = np.array(fields[2::3], dtype=np.float64)
    except ValueError:
        return None
    users = list(map(str.strip, fields[0::3]))
    items = list(map(str.strip, fields[1::3]))
    del fields
    if not (np.isfinite(rating).all() and all(users) and all(items)):
        return None
    return users, items, rating


def _raise_first_bad_row(raw: bytes, path: Path) -> None:
    """Check rows one at a time and raise :class:`IngestError` for the first bad one."""
    for lineno, line in enumerate(_read_lines(raw, path), start=1):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise IngestError(f"expected 3 fields separated by ',', got {len(parts)}", row=lineno)
        user, item, raw_rating = (p.strip() for p in parts)
        try:
            rating = float(raw_rating)
        except ValueError:
            raise IngestError(f"rating {raw_rating!r} is not a number", row=lineno) from None
        if not math.isfinite(rating):
            raise IngestError(f"rating {raw_rating!r} is not finite", row=lineno)
        if not user or not item:
            raise IngestError("empty user or item token", row=lineno)


def _records_digest(records) -> str:
    """sha256 of each record's dtype, shape and bytes, hashed from its buffer."""
    sha256 = hashlib.sha256()
    for arr in records:
        sha256.update(f"{arr.dtype.str}{arr.shape}".encode())
        sha256.update(np.ascontiguousarray(arr))
    return sha256.hexdigest()


def _load_snapshot(snapshot: Path, digest: str) -> DomainDataset | None:
    """The dataset stored in ``snapshot``, or None if it is stale: if it records another
    file digest, or its records do not hash to the digest it records for them."""
    try:
        with open(snapshot, "rb") as fh:
            # (dtype, ndim) of each array, in write_ratings' order
            arrays = _typed_arrays(fh, zip("U64 U U i4 i4 f8 i8".split(), (1, 1, 1, 1, 1, 1, 0)))
            file_digest, records_digest = next(arrays)
            if file_digest != digest:
                return None
            users, items, *columns, dups = arrays
        intact = _records_digest((users, items, *columns, dups)) == records_digest
        # rebinding frees the token arrays before the dataset's checks run
        users, items = tuple(users.tolist()), tuple(items.tolist())
        dataset = DomainDataset(users, items, *columns, int(dups), digest)
    except (OSError, EOFError, TypeError, ValueError, ValidationError) as exc:
        raise ValidationError(f"unreadable rating snapshot {snapshot}: {exc}") from None
    return dataset if intact else None


def ingest_domain(path) -> DomainDataset:
    """Parse a rating file into a :class:`DomainDataset`.

    The file is UTF-8 text with one ``user,item,rating`` row per line and
    no header line; LF, CRLF and a lone CR all end a line, and one leading
    byte-order mark is dropped. Blank lines are skipped, and each field is
    trimmed of surrounding whitespace. Tokens get dense indices in
    first-appearance order; a repeated (user, item) pair keeps its first
    position and its last rating, and ``duplicate_count`` counts the
    overwrites. A row with the wrong field
    count, a rating that is not a finite number (a header row's
    ``rating``, say), or an empty token raises :class:`IngestError` naming
    the 1-based line number of the first such row; so does a byte sequence
    that is not UTF-8.

    The file's sha256 is the dataset's ``digest``. A snapshot ``<path>.npy`` (see
    :func:`write_ratings`) recording it and its records' digest is loaded instead of parsing,
    and raises :class:`ValidationError` naming it if unreadable or ill-typed; others are ignored.
    With a snapshot beside it, the file is hashed from fixed-size reads and its text is
    read whole only when the snapshot is stale; the digest of a parsed
    file is always that of the bytes parsed.
    """
    path = Path(path)
    if not path.is_file():
        raise MissingInputError(f"rating file not found: {path}")
    snapshot = path.with_name(path.name + ".npy")
    if snapshot.is_file():
        sha256 = hashlib.sha256()
        with open(path, "rb") as fh:
            while block := fh.read(1 << 18):
                sha256.update(block)
        digest = sha256.hexdigest()
        dataset = _load_snapshot(snapshot, digest)
        if dataset is not None:
            return dataset
    raw = path.read_bytes()
    columns = _parse_columns(raw, path)
    if columns is None:
        _raise_first_bad_row(raw, path)
    dataset = DomainDataset.from_columns(*columns)
    dataset.digest = hashlib.sha256(raw).hexdigest()
    return dataset


def write_ratings(dataset: DomainDataset, path, snapshot=None) -> str:
    """Write ``dataset`` as a ``user,item,rating`` file (exact float text); return its sha256.

    With ``snapshot`` (``<path>.npy`` or its staging path), also write there the file's sha256
    and that of the records that follow, the dataset :func:`ingest_domain` parses from it.
    The text is formatted, written and hashed ``CHUNK_ROWS`` rows at a time. A token that
    would not read back as itself (empty, holding ``,``, ``\\r``, ``\\n`` or U+0000, with
    surrounding whitespace, or led by a byte-order mark) raises :class:`ValidationError`
    naming the first one, before anything is written; the snapshot's string records would
    drop a trailing U+0000.
    """
    bad = next((tok for tok in (*dataset.users, *dataset.items)
                if tok != tok.strip() or not {",", "\r", "\n", "\x00"}.isdisjoint(tok)
                or tok[:1] in ("", "\ufeff")), None)
    if bad is not None:
        raise ValidationError(f"token {bad!r} would not survive the rating file format")
    user_tokens = np.array(dataset.users, dtype=object)
    item_tokens = np.array(dataset.items, dtype=object)
    sha256 = hashlib.sha256()
    with _atomic_file(path) as fh:
        for start in range(0, dataset.n_interactions, CHUNK_ROWS):
            part = slice(start, start + CHUNK_ROWS)
            # one gather per token column is cheaper than a tuple lookup per row
            rows = zip(user_tokens[dataset.user_index[part]].tolist(),
                       item_tokens[dataset.item_index[part]].tolist(),
                       dataset.rating[part].tolist())
            raw = "".join([f"{u},{v},{r!r}\n" for u, v, r in rows]).encode("utf-8")
            fh.write(raw)
            sha256.update(raw)
    digest = sha256.hexdigest()
    if snapshot is None:
        return digest
    columns = []
    for index, tokens in ((dataset.user_index, dataset.users), (dataset.item_index, dataset.items)):
        # parsing meets tokens in order of first use, and never meets unused ones
        first = np.full(len(tokens), index.size, dtype=np.int64)
        np.minimum.at(first, index, np.arange(index.size))
        order = np.argsort(first)
        used = order[:np.count_nonzero(first < index.size)]
        columns.append((np.array(tokens)[used], np.argsort(order).astype(np.int32)[index]))
    (users, ui), (items, vi) = columns
    # the file's pairs are unique, so parsing it overwrites none
    records = (users, items, ui, vi, dataset.rating, np.array(0, dtype=np.int64))
    _write_arrays(snapshot, (np.array([digest, _records_digest(records)]), *records))
    return digest


@dataclass
class CdrScenario:
    """Two domains with overlapping users and a seeded cold-start split.

    ``overlap`` pairs (source_user_index, target_user_index) for every
    shared user token; ``train_pairs`` and ``test_pairs`` partition it.
    ``inputs`` holds the sha256 of the manifest and rating files it was loaded from.
    """

    source: DomainDataset
    target: DomainDataset
    overlap: list[tuple[int, int]]
    beta: float
    seed: int
    train_pairs: list[tuple[int, int]]
    test_pairs: list[tuple[int, int]]
    inputs: dict[str, str] | None = None

    def __post_init__(self):
        if not 0.0 < self.beta < 1.0:
            raise ValidationError(f"beta must lie in (0, 1), got {self.beta}")
        if not self.overlap:
            raise ValidationError("overlap is empty")
        if sorted(self.train_pairs + self.test_pairs) != sorted(self.overlap):
            raise ValidationError("train/test pairs do not partition the overlap")
        if set(self.train_pairs) & set(self.test_pairs):
            raise ValidationError("train/test pairs intersect")

    @property
    def train_user_tokens(self) -> list[str]:
        return [self.source.users[s] for s, _ in self.train_pairs]

    @property
    def test_user_tokens(self) -> list[str]:
        return [self.source.users[s] for s, _ in self.test_pairs]

    def target_training_dataset(self) -> DomainDataset:
        """Target dataset with every test user's interactions withheld."""
        return self.target.filter_users(t for _, t in self.test_pairs)


def compute_overlap(source: DomainDataset, target: DomainDataset) -> list[tuple[int, int]]:
    """Index pairs of users whose tokens appear in both domains, in source order."""
    target_pos = {tok: i for i, tok in enumerate(target.users)}
    return [(i, target_pos[tok]) for i, tok in enumerate(source.users) if tok in target_pos]


def split_overlap(n_overlap: int, beta: float, seed: int) -> tuple[list[int], list[int]]:
    """Seeded uniform shuffle assigning ceil(beta * n) overlap positions to test."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n_overlap)
    # the first ceil(beta * n) positions; a NaN or infinite beta reaches CdrScenario's check
    in_test = np.arange(n_overlap) < beta * n_overlap - 1e-9
    test = sorted(int(i) for i in perm[in_test])
    train = sorted(int(i) for i in perm[~in_test])
    return train, test


def build_scenario(source: DomainDataset, target: DomainDataset, beta: float, seed: int,
                   membership: tuple[list[str], list[str]] | None = None) -> CdrScenario:
    """Pair two domains and split the overlapping users into train/test sets.

    Overlap is computed by user-token equality. A seeded uniform shuffle
    assigns ``ceil(beta * |overlap|)`` users to the cold-start test set;
    the same inputs and seed always produce the same partition. Given
    ``membership``, the (train, test) user tokens a manifest stores, that
    split is used as is and nothing is drawn; a token that is not an overlap
    user raises, as does a split that does not partition the overlap.
    """
    shared_items = set(source.items) & set(target.items)
    if shared_items:
        raise ValidationError(
            f"domains share {len(shared_items)} item tokens; item sets must be disjoint"
        )
    overlap = compute_overlap(source, target)
    if not overlap:
        raise ValidationError("no overlapping users between the domains")
    if membership is None:
        train_pos, test_pos = split_overlap(len(overlap), float(beta), int(seed))
        train_pairs, test_pairs = [overlap[i] for i in train_pos], [overlap[i] for i in test_pos]
    else:
        train_users, test_users = membership
        by_token = {source.users[s]: (s, t) for s, t in overlap}
        missing = [u for u in train_users + test_users if u not in by_token]
        if missing:
            raise ValidationError(f"manifest split names non-overlap users: {missing[:3]}")
        train_pairs = [by_token[u] for u in train_users]
        test_pairs = [by_token[u] for u in test_users]
    return CdrScenario(
        source=source,
        target=target,
        overlap=overlap,
        beta=float(beta),
        seed=int(seed),
        train_pairs=train_pairs,
        test_pairs=test_pairs,
    )


@dataclass
class SyntheticSpec:
    """Descriptor for a generated two-domain scenario.

    Overlapping users share tokens across domains and their target latent
    vectors are a fixed smooth transform of their source latents:
    ``identity`` (degenerate linear), ``linear`` (rotation about the latent
    mean), or ``tanh`` (tanh-warped rotation).
    """

    users: int = 2000
    items: int = 500
    overlap_ratio: float = 0.05
    dim: int = 10
    noise: float = 0.1
    map_kind: str = "linear"
    seed: int = 0
    beta: float = 0.5
    ratings_per_user: int = 30

    def __post_init__(self):
        if self.users < 1 or self.items < 1:
            raise ValidationError("user and item counts must be >= 1")
        if not 0.0 < self.overlap_ratio <= 1.0:
            raise ValidationError(f"overlap_ratio must lie in (0, 1], got {self.overlap_ratio}")
        if self.dim < 1:
            raise ValidationError("latent dim must be >= 1")
        if self.noise < 0.0:
            raise ValidationError("noise level must be >= 0")
        if self.map_kind not in MAP_KINDS:
            raise ValidationError(f"unknown map kind {self.map_kind!r}")
        if not 0.0 < self.beta < 1.0:
            raise ValidationError(f"beta must lie in (0, 1), got {self.beta}")
        if not 1 <= self.ratings_per_user <= self.items:
            raise ValidationError("ratings_per_user must lie in [1, items]")


@dataclass
class SyntheticSidecar:
    """Planted ground truth of a synthetic scenario, kept apart from training data."""

    source_user_latents: np.ndarray
    target_user_latents: np.ndarray
    source_item_latents: np.ndarray
    target_item_latents: np.ndarray
    latent_mean: np.ndarray
    map_kind: str
    map_matrix: np.ndarray
    seed: int


# Latent scale: component mean sqrt(3/d) centres inner products at 3 on the
# 1-5 rating scale; spread 1.25/d keeps most products inside the scale.
_LATENT_MEAN_SQ = 3.0
_LATENT_VAR = 1.25
_TANH_WARP = 0.5


def _overlap_transform(latents: np.ndarray, mean: np.ndarray, kind: str, q: np.ndarray) -> np.ndarray:
    """Target latents of overlapping users; :class:`SyntheticSpec` has checked ``kind``."""
    if kind == "identity":
        return latents.copy()
    z = (latents - mean) @ q.T
    if kind == "linear":
        return mean + z
    return mean + _TANH_WARP * np.tanh(z / _TANH_WARP)


def generate_synthetic(spec: SyntheticSpec) -> tuple[CdrScenario, SyntheticSidecar]:
    """Generate a seeded two-domain scenario with planted latent structure.

    Ratings are ``clip(<u, v> + noise * N(0, 1), 1, 5)`` over a seeded
    random item subset per user. Returns the scenario together with a
    sidecar recording the planted latents, for oracle tests only.
    """
    rng = np.random.default_rng(spec.seed)
    d = spec.dim
    mean = np.full(d, math.sqrt(_LATENT_MEAN_SQ / d))
    std = math.sqrt(_LATENT_VAR / d)

    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    n_overlap = int(spec.overlap_ratio * spec.users)
    if n_overlap < 1:
        raise ValidationError("overlap ratio yields zero overlapping users")
    n_solo = spec.users - n_overlap

    overlap_src = mean + std * rng.standard_normal((n_overlap, d))
    source_solo = mean + std * rng.standard_normal((n_solo, d))
    target_solo = mean + std * rng.standard_normal((n_solo, d))
    source_items = mean + std * rng.standard_normal((spec.items, d))
    target_items = mean + std * rng.standard_normal((spec.items, d))
    overlap_tgt = _overlap_transform(overlap_src, mean, spec.map_kind, q)

    overlap_tokens = [f"u{i:06d}" for i in range(n_overlap)]
    source_users = overlap_tokens + [f"su{i:06d}" for i in range(n_solo)]
    target_users = overlap_tokens + [f"tu{i:06d}" for i in range(n_solo)]
    source_user_latents = np.vstack([overlap_src, source_solo]) if n_solo else overlap_src
    target_user_latents = np.vstack([overlap_tgt, target_solo]) if n_solo else overlap_tgt
    # the stacked copies are the only latents the ratings need
    del overlap_src, source_solo, target_solo, overlap_tgt

    def emit(user_latents, item_latents, prefix):
        tokens = [f"{prefix}{j:06d}" for j in range(spec.items)]
        n_users, k = user_latents.shape[0], spec.ratings_per_user
        vi = np.empty((n_users, k), dtype=np.int32)
        rr = np.zeros((n_users, k))
        # the loop keeps only the draws, in their order; each user's noise lands in its row
        for i in range(n_users):
            vi[i] = rng.choice(spec.items, size=k, replace=False)
            if spec.noise > 0.0:
                rng.standard_normal(out=rr[i])
        rr *= spec.noise
        # one stacked (1, d) @ (d, k) product per user, a block of users at a time: each
        # user's product is the same BLAS call, and so the same bits, as a product of its own.
        # Adding it to the scaled noise is the same sum as adding the noise to it.
        per_block = max(1, CHUNK_ROWS // k)
        for start in range(0, n_users, per_block):
            part = slice(start, start + per_block)
            rr[part] += np.matmul(user_latents[part, None, :],
                                  item_latents[vi[part]].transpose(0, 2, 1))[:, 0, :]
        ui = np.repeat(np.arange(n_users, dtype=np.int32), k)
        return tokens, ui, vi.ravel(), np.clip(rr, 1.0, 5.0, out=rr).ravel()

    s_tokens, s_ui, s_vi, s_r = emit(source_user_latents, source_items, "si")
    t_tokens, t_ui, t_vi, t_r = emit(target_user_latents, target_items, "ti")

    source = DomainDataset(tuple(source_users), tuple(s_tokens), s_ui, s_vi, s_r)
    target = DomainDataset(tuple(target_users), tuple(t_tokens), t_ui, t_vi, t_r)
    scenario = build_scenario(source, target, spec.beta, spec.seed)
    sidecar = SyntheticSidecar(
        source_user_latents=source_user_latents,
        target_user_latents=target_user_latents,
        source_item_latents=source_items,
        target_item_latents=target_items,
        latent_mean=mean,
        map_kind=spec.map_kind,
        map_matrix=q,
        seed=spec.seed,
    )
    return scenario, sidecar


def save_manifest(scenario: CdrScenario, path, source_ratings: str, target_ratings: str,
                  digests: tuple[str, str] | None = None) -> None:
    """Write the scenario manifest: paths, beta, seed, and split membership.

    Paths are stored as given (conventionally relative to the manifest's
    own directory) so a run directory is relocatable and byte-stable.
    ``digests``, the sha256 of the source and the target rating file (as
    :func:`write_ratings` returns them), are stored under
    ``source_ratings_sha256`` and ``target_ratings_sha256``.
    """
    doc = {
        "format_version": MANIFEST_VERSION,
        "source_ratings": source_ratings,
        "target_ratings": target_ratings,
        "beta": scenario.beta,
        "seed": scenario.seed,
        "train_users": scenario.train_user_tokens,
        "test_users": scenario.test_user_tokens,
    }
    if digests is not None:
        doc.update(zip(_DIGEST_KEYS, digests))
    write_json(path, doc, indent=2)


def _user_tokens(value) -> list[str]:
    if not (isinstance(value, list) and all(isinstance(u, str) for u in value)):
        raise TypeError("split membership must be a list of user tokens")
    return value


def load_scenario(manifest_path) -> CdrScenario:
    """Rebuild a scenario from its manifest, trusting the stored membership lists.

    ``beta`` and ``seed`` must be a finite float and a non-negative integer.
    The membership lists ``train_users`` and ``test_users`` come together or
    not at all. They are used as is, without drawing the seeded split;
    without them the split is recomputed from ``(beta, seed)``. A rating
    file whose sha256 differs from the one the manifest records for it
    (``source_ratings_sha256``, ``target_ratings_sha256``; either may be
    absent) raises ValidationError naming the file, after both files are read.
    """
    manifest_path = Path(manifest_path)
    with json_document(manifest_path, "manifest") as (doc, manifest_digest):
        if doc.get("format_version") != MANIFEST_VERSION:
            raise ValidationError(f"unsupported manifest version {doc.get('format_version')!r}")
        paths = [manifest_path.parent / doc[key] for key in ("source_ratings", "target_ratings")]
        beta, seed = number(float, doc["beta"], "beta"), number(int, doc["seed"], "seed")
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")
        membership = None
        if "train_users" in doc or "test_users" in doc:
            # one list without the other is a missing key, not a recomputed split
            membership = _user_tokens(doc["train_users"]), _user_tokens(doc["test_users"])
        recorded = [doc.get(key) for key in _DIGEST_KEYS]
    source, target = map(ingest_domain, paths)
    for path, dataset, digest in zip(paths, (source, target), recorded):
        if digest is not None and digest != dataset.digest:
            raise ValidationError(f"rating file {path} is not the one {manifest_path} was "
                                  f"written with: its sha256 differs from the recorded one")
    scenario = build_scenario(source, target, beta, seed, membership)
    scenario.inputs = {"manifest": manifest_digest,
                       "source_ratings": scenario.source.digest,
                       "target_ratings": scenario.target.digest}
    return scenario


# (dtype, ndim) of each array of a sidecar, in file order
_SIDECAR_ARRAYS = {"source_user_latents": ("f8", 2), "target_user_latents": ("f8", 2),
                   "source_item_latents": ("f8", 2), "target_item_latents": ("f8", 2),
                   "latent_mean": ("f8", 1), "map_matrix": ("f8", 2)}


def save_sidecar(sidecar: SyntheticSidecar, path) -> None:
    """Write a header with ``map_kind`` and ``seed``, then the six latents as float64 records."""
    write_artifact(path, "synthetic_sidecar", SIDECAR_VERSION,
                   {"map_kind": sidecar.map_kind, "seed": sidecar.seed},
                   arrays={name: np.asarray(getattr(sidecar, name), dtype=np.float64)
                           for name in _SIDECAR_ARRAYS})


def load_sidecar(path) -> SyntheticSidecar:
    """Read a sidecar back, each array of its own rank as float64.

    ``seed`` must be a non-negative integer and ``map_kind`` one of ``MAP_KINDS``; another
    header, a truncated, pickled or ill-typed record raises ValidationError naming ``path``.
    """
    with read_artifact(path, "synthetic_sidecar", SIDECAR_VERSION, "sidecar",
                       arrays=_SIDECAR_ARRAYS) as (doc, _):
        if doc["map_kind"] not in MAP_KINDS:
            raise ValidationError(f"unknown map kind {doc['map_kind']!r} in {path}")
        seed = number(int, doc["seed"], "seed")
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")
        return SyntheticSidecar(**{name: doc[name] for name in _SIDECAR_ARRAYS},
                                map_kind=doc["map_kind"], seed=seed)
