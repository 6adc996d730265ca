"""Correctness checks the benchmark applies to every run.

Each check compares the program's output with a computation made apart from
it, or tests a property the method must have. A check returns a list of
problems; an empty list means it passed.

The ranking oracle re-derives the paper's scoring from the raw parameter
arrays, one candidate item at a time, without calling any proxyrec function:
selection logits from the prefix, the annealed softmax (plus the user's bias
row for a known user), the proxy rescaled to the mixed row norm, the
normalized hyperplane normal, the short-term encoder, and for every candidate
x the distance ||(p + s_perp) - x_perp||^2, with the prefix items masked. The
target's rank counts the candidates strictly closer; a candidate within
rounding of the target's distance may fall on either side of it (the program
breaks exact ties by id), so there the oracle gives a rank interval.
"""

from __future__ import annotations

import math

import numpy as np

TIE_RTOL = 1e-9  # relative band treated as "within rounding" of the target


def _softmax(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max())
    return e / e.sum()


def named_arrays(params) -> dict[str, np.ndarray]:
    return {k: np.asarray(v) for k, v in params.named().items()}


def oracle_query(w: dict[str, np.ndarray], user_row: int, prefix, tau: float):
    """(query p + s_perp, unit normal v) for one instance from raw arrays."""
    items = w["items"]
    n = len(prefix)
    x_sel = np.stack([items[i] + w["sel_pos"][j] for j, i in enumerate(prefix)])
    h = x_sel @ w["sel_w1"]
    h = np.where(h > 0.0, h, 0.1 * h)
    logits = (h @ w["sel_w2"]).sum(axis=0) / n
    if user_row:
        logits = logits + w["user_bias"][user_row]
    pi = _softmax(logits / tau)

    combined = pi @ w["proxies"]
    mixed = sum(pi[j] * math.sqrt(float(w["proxies"][j] @ w["proxies"][j])) for j in range(pi.size))
    p = combined * (mixed / math.sqrt(float(combined @ combined)))
    normal = pi @ w["normals"]
    v = normal / math.sqrt(float(normal @ normal))

    x = np.stack([items[i] + w["enc_pos"][n - 1 - j] for j, i in enumerate(prefix)])
    q = np.maximum(x @ w["enc_wq"], 0.0)
    k = np.maximum(x @ w["enc_wk"], 0.0)
    att = np.stack([_softmax(row) for row in (q @ k.T) / math.sqrt(items.shape[1])])
    last = (att @ x + x)[n - 1]
    s = np.maximum(last @ w["enc_w1"] + w["enc_b1"], 0.0) @ w["enc_w2"] + w["enc_b2"]
    return p + (s - float(s @ v) * v), v


def oracle_rank_interval(w, user_row: int, prefix, target: int, tau: float) -> tuple[int, int]:
    """(lowest, highest) 1-based rank the target may take; equal without near-ties."""
    query, v = oracle_query(w, user_row, prefix, tau)
    items = w["items"]
    masked = set(prefix)
    dist = {}
    for i in range(1, items.shape[0]):
        if i in masked:
            continue
        x = items[i]
        diff = query - (x - float(x @ v) * v)
        dist[i] = float(diff @ diff)
    dt = dist[target]
    band = TIE_RTOL * max(abs(dt), 1.0)
    others = [di for i, di in dist.items() if i != target]
    lo = 1 + sum(1 for di in others if di < dt - band)
    hi = 1 + sum(1 for di in others if di <= dt + band)
    return lo, hi


def metrics_bounds(intervals, ks) -> dict[str, tuple[float, float]]:
    """Bounds on recall@k and MRR@k implied by per-instance rank intervals."""
    lo = np.asarray([a for a, _ in intervals], dtype=np.float64)
    hi = np.asarray([b for _, b in intervals], dtype=np.float64)
    out = {}
    for k in ks:
        best = np.where(lo <= k, 1.0, 0.0)
        worst = np.where(hi <= k, 1.0, 0.0)
        out[f"recall@{k}"] = (float(worst.mean()), float(best.mean()))
        out[f"mrr@{k}"] = (
            float(np.where(hi <= k, 1.0 / hi, 0.0).mean()),
            float(np.where(lo <= k, 1.0 / lo, 0.0).mean()),
        )
    return out


def compare_metrics(reported: dict[str, float], bounds: dict[str, tuple[float, float]]) -> list[str]:
    problems = []
    for key, (low, high) in bounds.items():
        value = reported[key]
        slack = 1e-12 * max(1.0, abs(high))
        if not low - slack <= value <= high + slack:
            problems.append(f"{key} = {value!r} outside oracle range [{low!r}, {high!r}]")
    return problems


def rank_intervals(params, instances, tau: float) -> list[tuple[int, int]]:
    """Oracle rank interval of every instance's target."""
    w = named_arrays(params)
    rows = {tag: i + 1 for i, tag in enumerate(params.user_tags)}
    return [
        oracle_rank_interval(
            w, rows.get(inst.user_tag, 0) if inst.known_user else 0, inst.prefix, inst.target, tau
        )
        for inst in instances
    ]


def check_ranking(params, instances, task: str, tau: float, report, ks) -> list[str]:
    """evaluate's recall/MRR on the sampled instances against the oracle."""
    if task != "unseen":
        return [f"the oracle masks the prefix, so it covers the unseen task only, not {task!r}"]
    reported = {}
    for k in ks:
        reported[f"recall@{k}"] = report.recall[k]
        reported[f"mrr@{k}"] = report.mrr[k]
    return compare_metrics(reported, metrics_bounds(rank_intervals(params, instances, tau), ks))


def check_prepared(split, manifest: dict, min_session_len: int) -> list[str]:
    """Dense 1..N ids, a chronological split, no out-of-vocabulary item in
    valid or test, and no session under the length floor."""
    problems = []
    n = split.item_count
    train_items = {i for s in split.train for i in s.items}
    if train_items != set(range(1, n + 1)):
        problems.append(f"train vocabulary is not exactly 1..{n}")
    if manifest.get("item_count") != n:
        problems.append("manifest item_count disagrees with the split")
    for name in ("valid", "test"):
        outside = {i for s in getattr(split, name) for i in s.items} - train_items
        if outside:
            problems.append(f"{len(outside)} {name} items are not in the train vocabulary")
    parts = [split.train, split.valid, split.test]
    for earlier, later in zip(parts, parts[1:]):
        if earlier and later and max(s.start_ts for s in earlier) > min(s.start_ts for s in later):
            problems.append("split is not chronological")
    short = sum(1 for part in parts for s in part if len(s.items) < min_session_len)
    if short:
        problems.append(f"{short} sessions shorter than the floor {min_session_len}")
    return problems


def check_fitted(params, history: list[dict], recall20: float, test_instances) -> list[str]:
    """Constraints hold, the loss fell, and recall beats a uniform ranking."""
    problems = []
    w = named_arrays(params)
    for table in ("items", "proxies"):
        worst = float(np.linalg.norm(w[table], axis=1).max())
        if worst > 1.0 + 1e-12:
            problems.append(f"{table} row norm {worst!r} outside the unit ball")
    dev = float(np.abs(np.linalg.norm(w["normals"], axis=1) - 1.0).max())
    if dev > 1e-12:
        problems.append(f"normal row norms deviate from 1 by {dev!r}")
    if np.any(w["user_bias"][0] != 0.0):
        problems.append("anonymous user-bias row is not zero")
    if not history[-1]["loss"] < history[0]["loss"]:
        problems.append(
            f"last epoch loss {history[-1]['loss']!r} not below first {history[0]['loss']!r}"
        )
    n = params.item_count
    baseline = float(np.mean([min(1.0, 20 / (n - len(set(i.prefix)))) for i in test_instances]))
    if not recall20 > baseline:
        problems.append(f"recall@20 {recall20!r} not above the uniform baseline {baseline!r}")
    return problems


def check_checkpoint(saved_params, saved_adam, loaded_params, loaded_adam) -> list[str]:
    """Every parameter and optimizer array comes back with the same bits."""
    problems = []
    pairs = [(f"param {k}", v, loaded_params.named().get(k)) for k, v in saved_params.named().items()]
    for moment in ("m", "v"):
        saved, loaded = getattr(saved_adam, moment), getattr(loaded_adam, moment)
        pairs += [(f"adam.{moment}.{k}", v, loaded.get(k)) for k, v in saved.items()]
    for name, a, b in pairs:
        if b is None or a.shape != b.shape or a.dtype != b.dtype or a.tobytes() != b.tobytes():
            problems.append(f"{name} differs after the checkpoint round trip")
    if saved_adam.step != loaded_adam.step:
        problems.append("adam step differs after the checkpoint round trip")
    if list(saved_params.user_tags) != list(loaded_params.user_tags):
        problems.append("user tags differ after the checkpoint round trip")
    return problems
