"""Per-instance numpy reference of the model's forward and scoring.

This is the oracle the batched production path is checked against: one
session at a time, plain numpy, no autodiff. It follows the formulas in the
module docstrings of proxyrec.selector, proxyrec.encoder and
proxyrec.scoring. Strict mode (inference) raises on a degenerate mixture;
non-strict mode (training) pads the denominator with EPS. Parameters are
read by name from a dict of arrays, w, keyed as ModelParams.named() keys them.

The data section at the end reads an interaction log and a prepared split
the plain way, one row or line at a time with a dict per row and one
json.loads per line, as the oracle for proxyrec.data's bulk readers.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from proxyrec.data import InteractionRecord, Session, SessionSplit
from proxyrec.errors import (
    ConfigError,
    DataError,
    DegenerateProxyError,
    EmptyInputError,
    LengthError,
    MetricError,
    ParseError,
)
from proxyrec.scoring import SCORING_MODES
from proxyrec.trainer import ADAM_BETA1, ADAM_BETA2, ADAM_EPS

EPS = 1e-12


# -- selection -------------------------------------------------------------------


def _leaky(x: np.ndarray, slope: float = 0.1) -> np.ndarray:
    return np.where(x > 0.0, x, slope * x)


def encode_logits(items, w) -> np.ndarray:
    """Per-session selection logits: position-wise FFN scores, averaged."""
    idx = np.asarray(items, dtype=np.int64)
    n = idx.shape[0]
    pos = w["sel_pos"]
    if n == 0:
        raise LengthError("cannot encode an empty session")
    if n > pos.shape[0]:
        raise LengthError(
            f"session length {n} exceeds positional table of {pos.shape[0]} rows"
        )
    x = w["items"][idx] + pos[:n]
    return (_leaky(x @ w["sel_w1"]) @ w["sel_w2"]).mean(axis=0)


def selection_distribution(
    logits: np.ndarray, tau: float, user_bias: np.ndarray | None = None
) -> np.ndarray:
    """softmax((logits + bias) / tau), stabilized by max subtraction."""
    if tau <= 0.0:
        raise ConfigError(f"temperature must be positive, got {tau}")
    z = logits if user_bias is None else logits + user_bias
    z = z / tau
    z = z - z.max()
    e = np.exp(z)
    return e / e.sum()


def assemble_proxy(pi: np.ndarray, proxies: np.ndarray, strict: bool = True) -> tuple[np.ndarray, float]:
    """(proxy, gamma) with proxy = gamma * sum_j pi_j P_j and
    ||proxy|| = sum_j pi_j ||P_j||."""
    combined = pi @ proxies
    norm = float(np.linalg.norm(combined))
    mixed_norms = float(pi @ np.linalg.norm(proxies, axis=1))
    if strict:
        if norm < EPS:
            raise DegenerateProxyError(f"proxy combination has norm {norm:.3e}; cannot rescale")
        gamma = mixed_norms / norm
    else:
        gamma = mixed_norms / (norm + EPS)
    return gamma * combined, gamma


def _select(items, instance, params, tau, strict):
    w = params.named()
    logits = encode_logits(items, w)
    row = params.bias_row(instance.user_tag) if instance.known_user else 0
    pi = selection_distribution(logits, tau, w["user_bias"][row] if row else None)
    proxy, _ = assemble_proxy(pi, w["proxies"], strict=strict)
    return pi, proxy


def select_for_training(instance, params, tau: float):
    """(pi, proxy) for a training instance: logits from the whole parent session."""
    return _select(instance.parent_items, instance, params, tau, strict=False)


def select_for_inference(instance, params, tau: float):
    """(pi, proxy) for an evaluation instance: logits from the prefix only."""
    return _select(instance.prefix, instance, params, tau, strict=True)


# -- short-term encoder ------------------------------------------------------------


def _relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def _softmax_rows(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def attention_weights(items, w) -> np.ndarray:
    """The (n, n) attention matrix of one prefix."""
    idx = np.asarray(items, dtype=np.int64)
    n = idx.shape[0]
    pos = w["enc_pos"]
    if n == 0 or n > pos.shape[0]:
        raise LengthError(f"bad prefix length {n} for positional table {pos.shape[0]}")
    d = w["items"].shape[1]
    x = w["items"][idx] + pos[n - 1 :: -1]
    q = _relu(x @ w["enc_wq"])
    k = _relu(x @ w["enc_wk"])
    return _softmax_rows(q @ k.T / np.sqrt(d))


def encode_short_term(items, w) -> np.ndarray:
    """Encode a prefix into one d-vector read off the most recent position."""
    idx = np.asarray(items, dtype=np.int64)
    n = idx.shape[0]
    pos = w["enc_pos"]
    if n == 0:
        raise LengthError("cannot encode an empty prefix")
    if n > pos.shape[0]:
        raise LengthError(
            f"prefix length {n} exceeds positional table of {pos.shape[0]} rows"
        )
    d = w["items"].shape[1]
    x = w["items"][idx] + pos[n - 1 :: -1]
    q = _relu(x @ w["enc_wq"])
    k = _relu(x @ w["enc_wk"])
    att = _softmax_rows(q @ k.T / np.sqrt(d))
    z = att @ x + x
    last = z[-1]
    return _relu(last @ w["enc_w1"] + w["enc_b1"]) @ w["enc_w2"] + w["enc_b2"]


# -- scoring -----------------------------------------------------------------------


def hyperplane_normal(pi: np.ndarray, normals: np.ndarray, strict: bool = True) -> np.ndarray:
    """Unit normal of the session's hyperplane: normalized mixture of rows."""
    w = pi @ normals
    norm = float(np.linalg.norm(w))
    if strict:
        if norm < EPS:
            raise DegenerateProxyError(f"hyperplane normal has norm {norm:.3e}; cannot normalize")
        return w / norm
    return w / (norm + EPS)


def project_to_hyperplane(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Remove the component along unit normal v: x - (v.x) v, for (d,) or (..., d).

    A stack is reduced row by row, not by a matrix-vector product, so equal
    rows project to equal vectors wherever they sit in the stack.
    """
    return x - (x * v).sum(axis=-1, keepdims=True) * v if x.ndim > 1 else x - (v @ x) * v


def dissimilarity(proxy, short, item_vec: np.ndarray, normal, mode: str = "full"):
    """Score one item (or a stack of items) against the session state."""
    if mode not in SCORING_MODES:
        raise ConfigError(f"unknown scoring mode {mode!r}; expected one of {SCORING_MODES}")
    if mode == "full":
        q = proxy + project_to_hyperplane(short, normal)
        target = project_to_hyperplane(item_vec, normal)
    elif mode == "proxy_only":
        q = proxy
        target = project_to_hyperplane(item_vec, normal)
    elif mode == "short_only":
        q = short
        target = item_vec
    elif mode == "no_projection":
        q = proxy + short
        target = item_vec
    else:  # dot_product
        q = proxy + project_to_hyperplane(short, normal)
        target = project_to_hyperplane(item_vec, normal)
        return -(target * q).sum(axis=-1) if item_vec.ndim > 1 else -float(q @ target)
    diff = q - target
    out = (diff * diff).sum(axis=-1)
    return out if item_vec.ndim > 1 else float(out)


def score_catalog(proxy, short, normal, item_table: np.ndarray, mask=None, mode: str = "full"):
    """Dissimilarity of every catalog item; row 0 and masked ids score +inf."""
    scores = np.empty(item_table.shape[0], dtype=np.float64)
    scores[0] = np.inf
    scores[1:] = dissimilarity(proxy, short, item_table[1:], normal, mode)
    if mask is not None:
        idx = np.fromiter(mask, dtype=np.int64)
        if idx.size:
            if idx.min() < 0 or idx.max() >= scores.shape[0]:
                raise MetricError(f"mask ids outside catalog: {idx.min()}..{idx.max()}")
            scores[idx] = np.inf
    return scores


def score_instance(params, instance, tau: float, task: str, mode: str = "full") -> np.ndarray:
    """Catalog scores (N+1,) for one instance; unseen task masks the prefix."""
    proxy = normal = short = None
    if mode != "short_only":
        pi, proxy = select_for_inference(instance, params, tau)
        normal = hyperplane_normal(pi, params.named()["normals"], strict=True)
    if mode != "proxy_only":
        short = encode_short_term(instance.prefix, params.named())
    mask = instance.prefix if task == "unseen" else None
    return score_catalog(proxy, short, normal, params.items, mask=mask, mode=mode)


def rank_of_target(scores: np.ndarray, target: int) -> int:
    """1-based rank of the target under ascending score, ties broken by id.

    rank = 1 + #(strictly better) + #(tied with a smaller id). Masked items
    carry +inf and can never outrank anything finite; a non-finite target
    score means the target itself was masked out, which is a caller bug.
    """
    if not 1 <= target < scores.shape[0]:
        raise MetricError(f"target id {target} outside catalog of {scores.shape[0] - 1}")
    st = scores[target]
    if not np.isfinite(st):
        raise MetricError(f"target id {target} has non-finite score {st}")
    better = int(np.count_nonzero(scores < st))
    tied_before = int(np.count_nonzero(scores[:target] == st))
    return 1 + better + tied_before


def reference_ranks(params, instances, task: str, tau: float, mode: str = "full") -> np.ndarray:
    """Rank of every target, one instance and one catalog row at a time."""
    return np.asarray(
        [rank_of_target(score_instance(params, i, tau, task, mode), i.target) for i in instances],
        dtype=np.int64,
    )


# -- training objective --------------------------------------------------------------


def hinge_term(dist_pos: float, dist_neg: float, margin: float) -> float:
    """max(margin + dist_pos - dist_neg, 0) for a single candidate pair."""
    return max(margin + dist_pos - dist_neg, 0.0)


def reference_objective(instances, params, tau, cfg, negatives):
    """Per-instance recomputation of the batch loss J."""
    total = 0.0
    for inst, negs in zip(instances, negatives):
        proxy = normal = short = None
        if cfg.mode != "short_only":
            pi, proxy = select_for_training(inst, params, tau)
            normal = hyperplane_normal(pi, params.named()["normals"], strict=False)
        if cfg.mode != "proxy_only":
            short = encode_short_term(inst.prefix, params.named())
        d_pos = dissimilarity(proxy, short, params.items[inst.target], normal, cfg.mode)
        for neg in negs:
            d_neg = dissimilarity(proxy, short, params.items[int(neg)], normal, cfg.mode)
            total += hinge_term(d_pos, d_neg, cfg.margin)
        total += cfg.lambda_dist * d_pos
        if cfg.mode != "short_only":
            total += cfg.lambda_orthog * abs(float(normal @ proxy)) / (
                np.linalg.norm(proxy) + EPS
            )
    return total


# -- negatives and the parameter update -------------------------------------------


def reference_negatives(targets, vocab_size: int, count: int, rng) -> np.ndarray:
    """One rng.choice(N - 1, count, replace=False) per row, target skipped."""
    rows = []
    for target in targets:
        draw = rng.choice(vocab_size - 1, size=count, replace=False) + 1
        draw[draw >= target] += 1
        rows.append(draw)
    return np.array(rows, dtype=np.int64).reshape(-1, count)


def reference_adam_step(named, grads, state, lr: float) -> None:
    """Adam with bias correction, one temporary per operation."""
    state.step += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    c1 = 1.0 - b1 ** state.step
    c2 = 1.0 - b2 ** state.step
    for name, p in named.items():
        g = grads[name]
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * g * g
        p -= lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)


def reference_project_constraints(named) -> None:
    """Item/proxy rows clipped into the unit ball, normal rows at unit norm,
    with np.linalg.norm row norms."""
    for table in (named["items"], named["proxies"]):
        norms = np.linalg.norm(table, axis=1)
        over = norms > 1.0
        if over.any():
            table[over] /= norms[over, None]
    vn = np.linalg.norm(named["normals"], axis=1)
    named["normals"] /= np.maximum(vn, EPS)[:, None]
    named["user_bias"][0] = 0.0


# -- data: logs and split files ----------------------------------------------------


def reference_timestamp(text: str) -> int | None:
    """An integer string as that integer, any other finite number rounded
    down, and None for anything else."""
    try:
        return int(text)
    except ValueError:
        pass
    try:
        value = float(text)
    except ValueError:
        return None
    if math.isnan(value) or math.isinf(value):
        return None
    return int(value // 1)


def reference_load_interactions(path, columns="user,item,time", delimiter="\t",
                                skip_header=False):
    """load_interactions on a plain-text log: a dict per row, checks in
    order (field count, empty item, empty session, timestamp)."""
    cols = [c.strip() for c in columns.split(",")]
    records, item_map = [], {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if (skip_header and lineno == 1) or not line:
                continue
            parts = line.split(delimiter)
            where = f"{path}: line {lineno}"
            if len(parts) != len(cols):
                raise ParseError(f"{where}: expected {len(cols)} fields, got {len(parts)}")
            row = dict(zip(cols, parts))
            for name in ("item", "session"):
                if row.get(name) == "":
                    raise ParseError(f"{where}: empty {name} field")
            ts = reference_timestamp(row["time"])
            if ts is None:
                raise ParseError(f"{where}: bad timestamp {row['time']!r}")
            item_map.setdefault(row["item"], len(item_map) + 1)
            records.append(InteractionRecord(
                item_id=item_map[row["item"]], timestamp=ts,
                user_tag=row.get("user") or None, session_tag=row.get("session"),
            ))
    if not records:
        raise EmptyInputError(f"{path}: no interactions parsed")
    return records, item_map


def reference_split_file(fpath, item_count: int) -> list[Session]:
    """One split file, one json.loads and one shape check per non-blank line."""
    sessions = []
    with open(fpath, encoding="utf-8") as fh:
        lines = fh.readlines()
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            d = json.loads(line)
        except (ValueError, RecursionError) as exc:
            raise DataError(f"{fpath}: line {lineno}: {exc}")
        items = d.get("items") if isinstance(d, dict) else None
        if not (
            isinstance(items, list)
            and items
            and all(type(i) is int and 1 <= i <= item_count for i in items)
            and type(d.get("start_ts")) is int
            and "user" in d
            and (d["user"] is None or isinstance(d["user"], str))
        ):
            raise DataError(
                f"{fpath}: line {lineno}: expected a non-empty 'items' list of ids in "
                f"1..{item_count}, an integer 'start_ts' and a 'user' string or null"
            )
        sessions.append(Session(items=tuple(items), start_ts=d["start_ts"], user_tag=d["user"]))
    return sessions


def reference_read_split(data_dir) -> SessionSplit:
    """read_split_manifest for a well-formed manifest whose split files may
    be damaged: each file in the manifest's order, then the train item
    check, then the session counts."""
    path = os.path.join(data_dir, "manifest.json")
    with open(path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    item_count, files = manifest["item_count"], manifest["files"]
    parts = {name: reference_split_file(os.path.join(data_dir, fname), item_count)
             for name, fname in files.items()}
    top = max((i for s in parts["train"] for i in s.items), default=0)
    if top != item_count:
        raise DataError(
            f"{path}: item_count {item_count} is not the largest train item id ({top})"
        )
    for name, fname in files.items():
        if len(parts[name]) != manifest["counts"][name]:
            raise DataError(
                f"{os.path.join(data_dir, fname)}: {len(parts[name])} sessions, "
                f"but the manifest counts {manifest['counts'][name]}"
            )
    return SessionSplit(parts["train"], parts["valid"], parts["test"], item_count)
