"""Interaction logs, session building, filtering, splits, and instances.

The pipeline: raw interaction rows are loaded with item identifiers remapped
to a dense 1..N index, grouped into per-user daily sessions (or pre-grouped
by an explicit session column), filtered to a fixed point, split 8:1:1 by
session start time, and finally expanded into (prefix, target) prediction
instances. Everything downstream of the split sees a compact item index with
no holes, so the split step re-maps identifiers to the train vocabulary and
reports the composed mapping for persistence.

The record types InteractionRecord, Session and PredictionInstance are named
tuples: immutable, equal and hashed field by field, and built by position or
keyword with defaults. A log makes one record per row and a split one
instance per target, so this module builds them in bulk with tuple.__new__,
which skips the generated __new__ and its Python frame. len(session) counts
its items, so Session has no working _make or _replace.

The functions that build these objects in bulk (load_interactions,
build_sessions, apply_filters, chronological_split, read_split_manifest and
expand_all) pause the cyclic garbage collector while they run. What they
build holds only ints, strings, tuples and None and can form no cycle, yet
every few hundred new tuples would start a collection that walks them all
again. Each restores the caller's collector state, also when it raises.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import gzip
import json
import math
import os
import zlib
from collections import Counter
from dataclasses import dataclass
from itertools import chain, compress, filterfalse, repeat
from operator import floordiv, itemgetter, ne
from typing import NamedTuple

import numpy as np

from .errors import (
    ConfigError,
    DataError,
    EmptyInputError,
    ParseError,
    SamplingError,
    SplitError,
)

SECONDS_PER_DAY = 86400
TASKS = ("repeat", "unseen")

_COLUMN_NAMES = {"user", "session", "item", "time", "-"}


class InteractionRecord(NamedTuple):
    item_id: int
    timestamp: int
    user_tag: str | None = None
    session_tag: str | None = None


class Session(NamedTuple):
    items: tuple[int, ...]
    start_ts: int
    user_tag: str | None = None

    def __len__(self) -> int:
        return len(self.items)


@dataclass
class FilterConfig:
    min_item_count: int = 5
    min_session_len: int = 2
    max_session_len: int = 50  # 0 disables the cap
    split_by_day: bool = True
    drop_over_length: bool = False  # drop instead of truncating over-cap sessions

    def __post_init__(self):
        # a floor of 0 would keep sessions that lost every item
        if self.min_session_len < 1:
            raise ConfigError(f"min_session_len must be >= 1, got {self.min_session_len}")


@dataclass
class SessionSplit:
    train: list[Session]
    valid: list[Session]
    test: list[Session]
    item_count: int
    id_map: dict[int, int] | None = None  # pre-split dense id -> final id

    def all_sessions(self) -> list[Session]:
        return self.train + self.valid + self.test


class PredictionInstance(NamedTuple):
    prefix: tuple[int, ...]
    target: int
    parent_items: tuple[int, ...]
    user_tag: str | None = None
    known_user: bool = False


_new = tuple.__new__  # _new(Session, (items, start_ts, user_tag)): a record, no __new__ call
_ITEMS = itemgetter(0)  # Session.items, InteractionRecord.item_id
_TIME = itemgetter(1)  # Session.start_ts, InteractionRecord.timestamp
_SESSION_TAG = itemgetter(3)  # InteractionRecord.session_tag


@contextlib.contextmanager
def _collector_paused():
    """Disable the cyclic garbage collector for the block; its earlier
    state comes back however the block ends."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


# -- loading ------------------------------------------------------------------


def _parse_columns(columns: str) -> list[str]:
    cols = [c.strip() for c in columns.split(",")]
    bad = [c for c in cols if c not in _COLUMN_NAMES]
    if bad:
        raise DataError(f"unknown column names {bad}; allowed: {sorted(_COLUMN_NAMES)}")
    if "item" not in cols or "time" not in cols:
        raise DataError("column format must include 'item' and 'time'")
    for name in ("user", "session", "item", "time"):
        if cols.count(name) > 1:
            raise DataError(f"column '{name}' given more than once")
    return cols


def _floored(text: str, where: str) -> int:
    """A timestamp that is no integer string, floored; ParseError when it
    is no number, nan or an infinity."""
    try:
        return math.floor(float(text))
    except (ValueError, OverflowError):  # OverflowError: inf
        raise ParseError(f"{where}: bad timestamp {text!r}")


@_collector_paused()
def load_interactions(
    path: str,
    columns: str = "user,item,time",
    delimiter: str | None = None,
    skip_header: bool = False,
) -> tuple[list[InteractionRecord], dict[str, int]]:
    """Read a delimited interaction file into records plus the item-id map.

    columns names the fields of each row in order, from
    {user, session, item, time, -} ('-' skips a field). Item identifiers are
    opaque strings remapped to dense integers 1..N in order of first
    appearance; the returned mapping must be persisted so later stages and
    checkpoints agree on what each index means. Gzip input is detected by
    a .gz suffix. Timestamps are integer seconds: an integer is read
    exactly and any other number is floored. A malformed row raises
    ParseError naming its line number.
    """
    cols = _parse_columns(columns)
    if delimiter is None:
        base = path[:-3] if path.endswith(".gz") else path
        delimiter = "," if base.endswith(".csv") else "\t"
    opener = gzip.open if path.endswith(".gz") else open
    n_cols, item_at, time_at = len(cols), cols.index("item"), cols.index("time")
    user_at = cols.index("user") if "user" in cols else None
    session_at = cols.index("session") if "session" in cols else None
    records: list[InteractionRecord] = []
    append = records.append
    item_map: dict[str, int] = {}
    user_tag = session_tag = None
    try:
        with opener(path, "rt", encoding="utf-8") as fh:
            lines = enumerate(fh, start=1)
            if skip_header:
                next(lines, None)
            for lineno, line in lines:
                line = line.rstrip("\n")  # text mode reads "\r\n" and "\r" as "\n"
                if not line:
                    continue
                parts = line.split(delimiter)
                if len(parts) != n_cols:
                    raise ParseError(
                        f"{path}: line {lineno}: expected {n_cols} fields, got {len(parts)}"
                    )
                raw_item = parts[item_at]
                if session_at is not None:
                    session_tag = parts[session_at]
                if not raw_item or session_tag == "":
                    field = "session" if raw_item else "item"
                    raise ParseError(f"{path}: line {lineno}: empty {field} field")
                try:
                    ts = int(parts[time_at])
                except ValueError:
                    ts = _floored(parts[time_at], f"{path}: line {lineno}")
                item_id = item_map.get(raw_item)
                if item_id is None:
                    item_id = item_map[raw_item] = len(item_map) + 1
                if user_at is not None:
                    user_tag = parts[user_at] or None
                append(_new(InteractionRecord, (item_id, ts, user_tag, session_tag)))
    except (UnicodeDecodeError, EOFError, zlib.error) as exc:  # EOFError: truncated gzip
        raise ParseError(f"{path}: unreadable: {exc}")
    if not records:
        raise EmptyInputError(f"{path}: no interactions parsed")
    return records, item_map


# -- session building ---------------------------------------------------------


@_collector_paused()
def build_sessions(
    records: list[InteractionRecord],
    cfg: FilterConfig,
    anonymize: bool = False,
) -> list[Session]:
    """Group interactions into sessions ordered by time.

    With an explicit session column the groups are taken as-is; otherwise
    each user's stream is cut at UTC day boundaries (when split_by_day).
    Over-cap sessions keep their most recent max_session_len items, or are
    dropped entirely when drop_over_length is set.
    """
    if not records:
        raise EmptyInputError("no interaction records")
    pregrouped = set(map(_SESSION_TAG, records)) != {None}
    key_at = 3 if pregrouped else 2  # session_tag or user_tag
    groups: dict[object, list[InteractionRecord]] = {}
    for r in records:
        key = r[key_at]
        if key in groups:
            groups[key].append(r)
        else:
            groups[key] = [r]

    by_day = cfg.split_by_day and not pregrouped
    cap = cfg.max_session_len
    sessions: list[Session] = []
    for rows in groups.values():
        rows.sort(key=_TIME)
        if by_day:
            days = list(map(floordiv, map(_TIME, rows), repeat(SECONDS_PER_DAY)))
            cuts = list(compress(range(1, len(days)), map(ne, days, days[1:])))  # day changes
            chunks = [rows[a:b] for a, b in zip([0] + cuts, cuts + [len(rows)])]
        else:
            chunks = [rows]
        for chunk in chunks:
            if 0 < cap < len(chunk):
                if cfg.drop_over_length:
                    continue
                chunk = chunk[-cap:]
            first = chunk[0]
            tag = None if anonymize else first.user_tag
            sessions.append(_new(Session, (tuple(map(_ITEMS, chunk)), first.timestamp, tag)))
    return sessions


@_collector_paused()
def apply_filters(sessions: list[Session], cfg: FilterConfig) -> list[Session]:
    """Drop rare items and short sessions until both conditions hold at once.

    Removing an item can push a session under the length floor, and removing
    that session lowers other items' counts, so the two filters are iterated
    to a fixed point.
    """
    current = list(sessions)
    while True:
        counts = Counter(chain.from_iterable(map(_ITEMS, current)))
        bad_items = {i for i, c in counts.items() if c < cfg.min_item_count}
        changed = False
        next_sessions: list[Session] = []
        for s in current:
            items = s.items
            if bad_items and not bad_items.isdisjoint(items):
                items = tuple(filterfalse(bad_items.__contains__, items))
                changed = True
            if len(items) < cfg.min_session_len:
                changed = True
                continue
            next_sessions.append(
                s if items is s.items else _new(Session, (items, s.start_ts, s.user_tag))
            )
        current = next_sessions
        if not current:
            raise EmptyInputError("all sessions removed by filtering")
        if not changed:
            return current


@_collector_paused()
def chronological_split(
    sessions: list[Session],
    ratios: tuple[int, int, int] = (8, 1, 1),
    min_session_len: int = 2,
) -> SessionSplit:
    """Split sessions by start time into train/valid/test parts.

    Counts use floor(n * ratio / total) for train and valid; test takes the
    remainder. Valid and test sessions drop items absent from the train
    vocabulary and are re-checked against the session length floor. Item ids
    are then re-indexed to the compact train vocabulary (1..N) so that
    embedding tables, negative sampling, and catalog scoring have no holes;
    id_map records the re-indexing.
    """
    n = len(sessions)
    if n < 3:
        raise SplitError(f"need at least 3 sessions to split, got {n}")
    total = sum(ratios)
    if total <= 0 or any(r < 0 for r in ratios):
        raise SplitError(f"bad split ratios {ratios}")
    if min_session_len < 1:
        raise SplitError(f"min_session_len must be >= 1, got {min_session_len}")
    ordered = sorted(sessions, key=_TIME)
    n_train = n * ratios[0] // total
    n_valid = n * ratios[1] // total
    train = ordered[:n_train]
    valid = ordered[n_train:n_train + n_valid]
    test = ordered[n_train + n_valid:]
    if not train:
        raise SplitError("empty train portion")

    vocab = sorted(set(chain.from_iterable(map(_ITEMS, train))))
    id_map = dict(zip(vocab, range(1, len(vocab) + 1)))
    new_id, known = id_map.__getitem__, id_map.__contains__

    def remap(part: list[Session], prune: bool) -> list[Session]:
        out = []
        for s in part:
            items = tuple(map(new_id, filter(known, s.items) if prune else s.items))
            if prune and len(items) < min_session_len:
                continue
            out.append(_new(Session, (items, s.start_ts, s.user_tag)))
        return out

    return SessionSplit(
        train=remap(train, prune=False),
        valid=remap(valid, prune=True),
        test=remap(test, prune=True),
        item_count=len(vocab),
        id_map=id_map,
    )


# -- instances ----------------------------------------------------------------


def expand_instances(
    session: Session,
    task: str,
    known_users: set[str] | None = None,
) -> list[PredictionInstance]:
    """Expand one session into next-item prediction instances.

    For t = 2..n the prefix is the first t-1 items and the target is item t.
    Under the 'unseen' task, instances whose target already occurs in the
    prefix are omitted.
    """
    if task not in TASKS:
        raise DataError(f"unknown task {task!r}; expected one of {TASKS}")
    items = session.items
    if len(items) < 2:
        raise DataError(f"cannot expand a session of length {len(items)}")
    user = session.user_tag
    known = bool(known_users and user in known_users)
    if task == "repeat":
        return [_new(PredictionInstance, (items[:t], items[t], items, user, known))
                for t in range(1, len(items))]
    return [_new(PredictionInstance, (prefix, target, items, user, known))
            for t in range(1, len(items))
            if (target := items[t]) not in (prefix := items[:t])]


@_collector_paused()
def expand_all(
    sessions: list[Session],
    task: str,
    known_users: set[str] | None = None,
) -> list[PredictionInstance]:
    out: list[PredictionInstance] = []
    for s in sessions:
        out.extend(expand_instances(s, task, known_users))
    return out


# numpy's Generator.choice(pop, C, replace=False) runs Floyd's algorithm and
# then shuffles, unless pop > _TAIL_SHUFFLE_POP and C > pop // 50, where it
# shuffles the tail of a full range instead
_TAIL_SHUFFLE_POP = 10_000


def sample_negatives(
    targets: np.ndarray,
    vocab_size: int,
    count: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Per-row uniform negatives without replacement from {1..N} minus that
    row's target: a (len(targets), count) int64 array.

    Row i equals what rng.choice(N - 1, count, replace=False) would draw for
    it after rows 0..i-1, with the target skipped, and the generator ends in
    the same state. Floyd's draws and the shuffle's swap positions never
    depend on an earlier result, so one rng.integers call draws them for the
    whole batch, and the insert and swap rules then run one column at a time
    across all rows.
    """
    if count >= vocab_size:
        raise SamplingError(
            f"cannot draw {count} negatives from a catalog of {vocab_size} items"
        )
    targets = np.asarray(targets, dtype=np.int64).reshape(-1, 1)
    B, pop = targets.shape[0], vocab_size - 1
    if pop > _TAIL_SHUFFLE_POP and count > pop // 50:
        out = np.array(
            [rng.choice(pop, size=count, replace=False) for _ in range(B)], dtype=np.int64
        ).reshape(B, count)
    else:
        # per row: Floyd step k draws from [0, pop - count + k], then swap
        # step i = count-1..1 of the shuffle draws from [0, i]
        highs = np.concatenate([np.arange(pop - count + 1, pop + 1), np.arange(count, 1, -1)])
        draws = rng.integers(0, highs, size=(B, highs.size))
        out = np.empty((B, count), dtype=np.int64)
        for k in range(count):
            val = draws[:, k]
            taken = (out[:, :k] == val[:, None]).any(axis=1)
            out[:, k] = np.where(taken, pop - count + k, val)
        rows = np.arange(B)
        for col, i in enumerate(range(count - 1, 0, -1), start=count):
            j = draws[:, col]
            held = out[rows, j]
            out[rows, j] = out[:, i]
            out[:, i] = held
    out += 1
    out += out >= targets
    return out


def flag_known_users(
    train_sessions: list[Session],
    ratio: float,
    min_sessions: int,
    rng: np.random.Generator,
) -> list[str]:
    """Pick a seeded fraction of users with enough train sessions.

    Only users with at least min_sessions train sessions are eligible; a
    floor(ratio * eligible) subset is drawn without replacement. Returned
    sorted so downstream row assignment is deterministic.
    """
    if not 0.0 <= ratio <= 1.0:
        raise DataError(f"known-user ratio must be in [0, 1], got {ratio}")
    counts = Counter(s.user_tag for s in train_sessions if s.user_tag is not None)
    eligible = sorted(tag for tag, c in counts.items() if c >= min_sessions)
    k = int(len(eligible) * ratio)
    if k == 0:
        return []
    chosen = rng.choice(len(eligible), size=k, replace=False)
    return sorted(eligible[i] for i in chosen)


# -- persistence ----------------------------------------------------------------

_SPLIT_FILES = {"train": "train.jsonl", "valid": "valid.jsonl", "test": "test.jsonl"}
STATS_FILE = "stats.txt"
ITEM_MAP_FILE = "item_map.tsv"
MANIFEST_FILE = "manifest.json"


def split_stats(split: SessionSplit) -> dict:
    sessions = split.all_sessions()
    interactions = sum(map(len, map(_ITEMS, sessions)))
    return {
        "interactions": interactions,
        "items": split.item_count,
        "sessions": len(sessions),
        "avg_length": interactions / len(sessions) if sessions else 0.0,
    }


def format_stats(stats: dict) -> str:
    """Fixed four-line layout: counts plus mean session length (2 decimals)."""
    return (
        f"# interactions\t{stats['interactions']}\n"
        f"# items\t{stats['items']}\n"
        f"# sessions\t{stats['sessions']}\n"
        f"avg. length\t{stats['avg_length']:.2f}\n"
    )


def _session_lines(sessions: list[Session]) -> str:
    """One line per session, each the bytes of json.dumps({"items": ...,
    "start_ts": ..., "user": ...}, sort_keys=True, separators=(",", ":"))
    and a newline; each user tag is encoded once."""
    users: dict[str | None, str] = {}
    lines = []
    for items, start_ts, user_tag in sessions:
        user = users.get(user_tag)
        if user is None:
            user = users[user_tag] = json.dumps(user_tag)
        items = ",".join(map(str, items))
        lines.append(f'{{"items":[{items}],"start_ts":{start_ts},"user":{user}}}\n')
    return "".join(lines)


_DECODER = json.JSONDecoder()  # the decoder json.loads uses when given no options


def _parse_line(line: str):
    """json.loads(line). A line holding one value and then its newline takes
    a single scan; any other line goes through json.loads itself, so its
    errors keep their wording."""
    try:
        value, end = _DECODER.raw_decode(line)
    except ValueError:
        return json.loads(line)
    return value if line[end:] in ("", "\n") else json.loads(line)


def _bulk_sessions(values: list, item_count: int) -> tuple[list[Session], int] | None:
    """The parsed lines as Sessions plus their largest item id (0 for none),
    or None unless every value is an object with a non-empty 'items' list of
    ids in 1..item_count, an integer 'start_ts' and a 'user' string or null.
    Each check runs once over all the values, not once per value."""
    if not values:
        return [], 0
    if set(map(type, values)) != {dict}:
        return None
    items = list(map(dict.get, values, repeat("items")))
    if set(map(type, items)) != {list} or not all(items):
        return None
    flat = list(chain.from_iterable(items))
    starts = list(map(dict.get, values, repeat("start_ts")))
    users = list(map(dict.get, values, repeat("user")))
    if (
        set(map(type, flat)) != {int}
        or not 1 <= min(flat) <= (top := max(flat)) <= item_count
        or set(map(type, starts)) != {int}
        or not all(map(dict.__contains__, values, repeat("user")))
        or not set(map(type, users)) <= {str, type(None)}
    ):
        return None
    return list(map(_new, repeat(Session), zip(map(tuple, items), starts, users))), top


def _read_sessions(fpath: str, item_count: int) -> tuple[list[Session], int]:
    """One split file's sessions plus their largest item id. DataError names
    the first line, blank lines aside, that holds no JSON or no session."""
    try:
        with open(fpath, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise DataError(f"{fpath}: not UTF-8 text: {exc}")
    numbered = [(lineno, line) for lineno, line in enumerate(lines, start=1) if line.strip()]
    values = []
    error = None
    for lineno, line in numbered:
        try:
            values.append(_parse_line(line))
        except (ValueError, RecursionError) as exc:  # RecursionError: deep nesting
            error = DataError(f"{fpath}: line {lineno}: {exc}")
            break
    parsed = _bulk_sessions(values, item_count)
    if parsed is None:  # name the first line that is no session
        for (lineno, _), d in zip(numbered, values):
            if _bulk_sessions([d], item_count) is None:
                raise DataError(
                    f"{fpath}: line {lineno}: expected a non-empty 'items' list of ids in "
                    f"1..{item_count}, an integer 'start_ts' and a 'user' string or null"
                )
    if error is not None:
        raise error
    return parsed


def write_split_manifest(
    split: SessionSplit,
    out_dir: str,
    raw_item_map: dict[str, int],
    filter_cfg: FilterConfig,
    ratios: tuple[int, int, int],
) -> dict:
    """Persist a split as three session files, the item map, and stats.

    Output bytes are a pure function of the split and configuration, so a
    re-run over identical input produces identical files. An earlier run's
    manifest is removed first and the new one written last, so no manifest
    vouches for half-written split files.
    """
    os.makedirs(out_dir, exist_ok=True)
    try:
        os.remove(os.path.join(out_dir, MANIFEST_FILE))
    except FileNotFoundError:
        pass
    parts = {"train": split.train, "valid": split.valid, "test": split.test}
    for name, sessions in parts.items():
        with open(os.path.join(out_dir, _SPLIT_FILES[name]), "w", encoding="utf-8") as fh:
            fh.write(_session_lines(sessions))

    id_map = split.id_map or {}
    composed = [(id_map[dense], raw) for raw, dense in raw_item_map.items() if dense in id_map]
    composed.sort(key=itemgetter(0))
    with open(os.path.join(out_dir, ITEM_MAP_FILE), "w", encoding="utf-8") as fh:
        fh.write("".join([f"{raw}\t{final}\n" for final, raw in composed]))

    stats = split_stats(split)
    with open(os.path.join(out_dir, STATS_FILE), "w", encoding="utf-8") as fh:
        fh.write(format_stats(stats))

    manifest = {
        "version": 1,
        "item_count": split.item_count,
        "counts": {name: len(sessions) for name, sessions in parts.items()},
        "stats": stats,
        "ratios": list(ratios),
        "filter": dataclasses.asdict(filter_cfg),
        "files": dict(_SPLIT_FILES),
    }
    with open(os.path.join(out_dir, MANIFEST_FILE), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return manifest


@_collector_paused()
def read_split_manifest(data_dir: str) -> tuple[SessionSplit, dict]:
    path = os.path.join(data_dir, MANIFEST_FILE)
    if not os.path.exists(path):
        raise DataError(f"no manifest at {path}; run prepare first")
    with open(path, encoding="utf-8") as fh:
        try:
            manifest = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
            raise DataError(f"{path}: not a JSON manifest: {exc}")
    files = manifest.get("files") if isinstance(manifest, dict) else None
    counts = manifest.get("counts") if isinstance(manifest, dict) else None
    if (
        not isinstance(files, dict)
        or sorted(files) != sorted(_SPLIT_FILES)
        or not all(isinstance(f, str) and "\0" not in f for f in files.values())
        or type(manifest.get("item_count")) is not int
        or not isinstance(counts, dict)
        or sorted(counts) != sorted(_SPLIT_FILES)
        or not all(type(c) is int for c in counts.values())
    ):
        raise DataError(
            f"{path}: manifest needs 'files' naming the train, valid and test "
            "files, an integer 'item_count' and integer session 'counts' for each"
        )
    item_count = manifest["item_count"]
    parts, tops = {}, {}
    for name, fname in files.items():
        parts[name], tops[name] = _read_sessions(os.path.join(data_dir, fname), item_count)
    top = tops["train"]
    if top != item_count:
        raise DataError(
            f"{path}: item_count {item_count} is not the largest train item id ({top})"
        )
    for name, fname in files.items():
        if len(parts[name]) != counts[name]:
            raise DataError(
                f"{os.path.join(data_dir, fname)}: {len(parts[name])} sessions, "
                f"but the manifest counts {counts[name]}"
            )
    split = SessionSplit(
        train=parts["train"],
        valid=parts["valid"],
        test=parts["test"],
        item_count=item_count,
    )
    return split, manifest
