"""Interaction logs, session building, filtering, splits, and instances.

The pipeline: raw interaction rows are loaded with item identifiers remapped
to a dense 1..N index, grouped into per-user daily sessions (or pre-grouped
by an explicit session column), filtered to a fixed point, split 8:1:1 by
session start time, and finally expanded into (prefix, target) prediction
instances. Everything downstream of the split sees a compact item index with
no holes, so the split step re-maps identifiers to the train vocabulary and
reports the composed mapping for persistence.
"""

from __future__ import annotations

import gzip
import json
import os
import zlib
from collections import Counter
from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class InteractionRecord:
    item_id: int
    timestamp: int
    user_tag: str | None = None
    session_tag: str | None = None


@dataclass(frozen=True)
class Session:
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


@dataclass(frozen=True)
class PredictionInstance:
    prefix: tuple[int, ...]
    target: int
    parent_items: tuple[int, ...]
    user_tag: str | None = None
    known_user: bool = False


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
    a .gz suffix. Timestamps are integer seconds (numeric values are
    floored). A malformed row raises ParseError naming its line number.
    """
    cols = _parse_columns(columns)
    if delimiter is None:
        base = path[:-3] if path.endswith(".gz") else path
        delimiter = "," if base.endswith(".csv") else "\t"
    opener = gzip.open if path.endswith(".gz") else open
    records: list[InteractionRecord] = []
    item_map: dict[str, int] = {}
    try:
        with opener(path, "rt", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                if skip_header and lineno == 1:
                    continue
                line = line.rstrip("\n").rstrip("\r")
                if not line:
                    continue
                parts = line.split(delimiter)
                if len(parts) != len(cols):
                    raise ParseError(
                        f"{path}: line {lineno}: expected {len(cols)} fields, got {len(parts)}"
                    )
                row = dict(zip(cols, parts))
                raw_item = row["item"]
                try:
                    ts = int(float(row["time"]))
                except (ValueError, OverflowError):  # OverflowError: inf
                    raise ParseError(f"{path}: line {lineno}: bad timestamp {row['time']!r}")
                if raw_item not in item_map:
                    item_map[raw_item] = len(item_map) + 1
                records.append(
                    InteractionRecord(
                        item_id=item_map[raw_item],
                        timestamp=ts,
                        user_tag=row.get("user") or None,
                        session_tag=row.get("session") or None,
                    )
                )
    except (UnicodeDecodeError, EOFError, zlib.error) as exc:  # EOFError: truncated gzip
        raise ParseError(f"{path}: unreadable: {exc}")
    if not records:
        raise EmptyInputError(f"{path}: no interactions parsed")
    return records, item_map


# -- session building ---------------------------------------------------------


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
    pregrouped = any(r.session_tag is not None for r in records)
    groups: dict[object, list[InteractionRecord]] = {}
    for r in records:
        key = r.session_tag if pregrouped else r.user_tag
        groups.setdefault(key, []).append(r)

    sessions: list[Session] = []
    for key, rows in groups.items():
        rows = sorted(rows, key=lambda r: r.timestamp)
        if pregrouped or not cfg.split_by_day:
            chunks = [rows]
        else:
            chunks = []
            for r in rows:
                if chunks and r.timestamp // SECONDS_PER_DAY == chunks[-1][-1].timestamp // SECONDS_PER_DAY:
                    chunks[-1].append(r)
                else:
                    chunks.append([r])
        for chunk in chunks:
            if cfg.max_session_len > 0 and len(chunk) > cfg.max_session_len:
                if cfg.drop_over_length:
                    continue
                chunk = chunk[-cfg.max_session_len:]
            tag = None if anonymize else chunk[0].user_tag
            sessions.append(
                Session(
                    items=tuple(r.item_id for r in chunk),
                    start_ts=chunk[0].timestamp,
                    user_tag=tag,
                )
            )
    return sessions


def apply_filters(sessions: list[Session], cfg: FilterConfig) -> list[Session]:
    """Drop rare items and short sessions until both conditions hold at once.

    Removing an item can push a session under the length floor, and removing
    that session lowers other items' counts, so the two filters are iterated
    to a fixed point.
    """
    current = list(sessions)
    while True:
        counts = Counter(i for s in current for i in s.items)
        bad_items = {i for i, c in counts.items() if c < cfg.min_item_count}
        changed = False
        next_sessions: list[Session] = []
        for s in current:
            items = tuple(i for i in s.items if i not in bad_items)
            if len(items) != len(s.items):
                changed = True
            if len(items) < cfg.min_session_len:
                changed = True
                continue
            next_sessions.append(s if items == s.items else Session(items, s.start_ts, s.user_tag))
        current = next_sessions
        if not current:
            raise EmptyInputError("all sessions removed by filtering")
        if not changed:
            return current


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
    ordered = sorted(sessions, key=lambda s: s.start_ts)
    n_train = n * ratios[0] // total
    n_valid = n * ratios[1] // total
    train = ordered[:n_train]
    valid = ordered[n_train:n_train + n_valid]
    test = ordered[n_train + n_valid:]
    if not train:
        raise SplitError("empty train portion")

    vocab = {i for s in train for i in s.items}
    id_map = {old: new for new, old in enumerate(sorted(vocab), start=1)}

    def remap(part: list[Session], prune: bool) -> list[Session]:
        out = []
        for s in part:
            items = tuple(id_map[i] for i in s.items if i in vocab) if prune else tuple(
                id_map[i] for i in s.items
            )
            if prune and len(items) < min_session_len:
                continue
            out.append(Session(items, s.start_ts, s.user_tag))
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
    if len(session.items) < 2:
        raise DataError(f"cannot expand a session of length {len(session.items)}")
    known = bool(known_users and session.user_tag in known_users)
    out = []
    items = session.items
    for t in range(2, len(items) + 1):
        prefix = items[: t - 1]
        target = items[t - 1]
        if task == "unseen" and target in prefix:
            continue
        out.append(
            PredictionInstance(
                prefix=prefix,
                target=target,
                parent_items=items,
                user_tag=session.user_tag,
                known_user=known,
            )
        )
    return out


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
    interactions = sum(len(s) for s in sessions)
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


def _session_to_json(s: Session) -> str:
    return json.dumps(
        {"items": list(s.items), "start_ts": s.start_ts, "user": s.user_tag},
        sort_keys=True,
        separators=(",", ":"),
    )


def _session_from_json(line: str, item_count: int) -> Session:
    """One session line; raises ValueError unless it is an object with a
    non-empty 'items' list of ids in 1..item_count, an integer 'start_ts'
    and a 'user' string or null."""
    d = json.loads(line)
    items = d.get("items") if isinstance(d, dict) else None
    if (
        not isinstance(items, list)
        or set(map(type, items)) != {int}
        or not 1 <= min(items) <= max(items) <= item_count
        or type(d.get("start_ts")) is not int
        or "user" not in d
        or not isinstance(d["user"], (str, type(None)))
    ):
        raise ValueError(
            f"expected a non-empty 'items' list of ids in 1..{item_count}, an integer "
            "'start_ts' and a 'user' string or null"
        )
    return Session(items=tuple(items), start_ts=d["start_ts"], user_tag=d["user"])


def write_split_manifest(
    split: SessionSplit,
    out_dir: str,
    raw_item_map: dict[str, int],
    filter_cfg: FilterConfig,
    ratios: tuple[int, int, int],
) -> dict:
    """Persist a split as three session files, the item map, and stats.

    Output bytes are a pure function of the split and configuration, so a
    re-run over identical input produces identical files.
    """
    os.makedirs(out_dir, exist_ok=True)
    parts = {"train": split.train, "valid": split.valid, "test": split.test}
    for name, sessions in parts.items():
        with open(os.path.join(out_dir, _SPLIT_FILES[name]), "w", encoding="utf-8") as fh:
            for s in sessions:
                fh.write(_session_to_json(s) + "\n")

    id_map = split.id_map or {}
    composed = {
        raw: id_map[dense] for raw, dense in raw_item_map.items() if dense in id_map
    }
    with open(os.path.join(out_dir, ITEM_MAP_FILE), "w", encoding="utf-8") as fh:
        for raw, final in sorted(composed.items(), key=lambda kv: kv[1]):
            fh.write(f"{raw}\t{final}\n")

    stats = split_stats(split)
    with open(os.path.join(out_dir, STATS_FILE), "w", encoding="utf-8") as fh:
        fh.write(format_stats(stats))

    manifest = {
        "version": 1,
        "item_count": split.item_count,
        "counts": {name: len(sessions) for name, sessions in parts.items()},
        "stats": stats,
        "ratios": list(ratios),
        "filter": {
            "min_item_count": filter_cfg.min_item_count,
            "min_session_len": filter_cfg.min_session_len,
            "max_session_len": filter_cfg.max_session_len,
            "split_by_day": filter_cfg.split_by_day,
            "drop_over_length": filter_cfg.drop_over_length,
        },
        "files": dict(_SPLIT_FILES),
    }
    with open(os.path.join(out_dir, MANIFEST_FILE), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return manifest


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
    parts = {}
    for name, fname in files.items():
        fpath = os.path.join(data_dir, fname)
        try:
            with open(fpath, encoding="utf-8") as fh:
                lines = fh.readlines()
        except UnicodeDecodeError as exc:
            raise DataError(f"{fpath}: not UTF-8 text: {exc}")
        parts[name] = []
        for lineno, line in enumerate(lines, start=1):
            if line.strip():
                try:
                    parts[name].append(_session_from_json(line, item_count))
                except (ValueError, RecursionError) as exc:  # RecursionError: deep nesting
                    raise DataError(f"{fpath}: line {lineno}: {exc}")
    top = max((max(s.items) for s in parts["train"]), default=0)
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
