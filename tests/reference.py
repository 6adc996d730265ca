"""Per-instance numpy reference of the model's forward and scoring.

This is the oracle the batched production path is checked against: one
session at a time, plain numpy, no autodiff. It follows the formulas in the
module docstrings of proxyrec.selector, proxyrec.encoder and
proxyrec.scoring. Strict mode (inference) raises on a degenerate mixture;
non-strict mode (training) pads the denominator with EPS.
"""

from __future__ import annotations

import numpy as np

from proxyrec.errors import ConfigError, DegenerateProxyError, LengthError, MetricError
from proxyrec.evaluator import rank_of_target
from proxyrec.scoring import SCORING_MODES

EPS = 1e-12


# -- selection -------------------------------------------------------------------


def _leaky(x: np.ndarray, slope: float = 0.1) -> np.ndarray:
    return np.where(x > 0.0, x, slope * x)


def encode_logits(items, item_table: np.ndarray, sel) -> np.ndarray:
    """Per-session selection logits: position-wise FFN scores, averaged."""
    idx = np.asarray(items, dtype=np.int64)
    n = idx.shape[0]
    if n == 0:
        raise LengthError("cannot encode an empty session")
    if n > sel.pos.shape[0]:
        raise LengthError(
            f"session length {n} exceeds positional table of {sel.pos.shape[0]} rows"
        )
    x = item_table[idx] + sel.pos[:n]
    return (_leaky(x @ sel.w1) @ sel.w2).mean(axis=0)


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


def assemble_proxy(pi: np.ndarray, bank, strict: bool = True) -> tuple[np.ndarray, float]:
    """(proxy, gamma) with proxy = gamma * sum_j pi_j P_j and
    ||proxy|| = sum_j pi_j ||P_j||."""
    combined = pi @ bank.proxies
    norm = float(np.linalg.norm(combined))
    mixed_norms = float(pi @ np.linalg.norm(bank.proxies, axis=1))
    if strict:
        if norm < EPS:
            raise DegenerateProxyError(f"proxy combination has norm {norm:.3e}; cannot rescale")
        gamma = mixed_norms / norm
    else:
        gamma = mixed_norms / (norm + EPS)
    return gamma * combined, gamma


def _select(items, instance, params, tau, strict):
    logits = encode_logits(items, params.items, params.selector)
    row = params.bias_row(instance.user_tag) if instance.known_user else 0
    pi = selection_distribution(logits, tau, params.user_bias[row] if row else None)
    proxy, _ = assemble_proxy(pi, params.bank, strict=strict)
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


def attention_weights(items, item_table: np.ndarray, enc) -> np.ndarray:
    """The (n, n) attention matrix of one prefix."""
    idx = np.asarray(items, dtype=np.int64)
    n = idx.shape[0]
    if n == 0 or n > enc.pos.shape[0]:
        raise LengthError(f"bad prefix length {n} for positional table {enc.pos.shape[0]}")
    d = item_table.shape[1]
    x = item_table[idx] + enc.pos[n - 1 :: -1]
    q = _relu(x @ enc.wq)
    k = _relu(x @ enc.wk)
    return _softmax_rows(q @ k.T / np.sqrt(d))


def encode_short_term(items, item_table: np.ndarray, enc) -> np.ndarray:
    """Encode a prefix into one d-vector read off the most recent position."""
    idx = np.asarray(items, dtype=np.int64)
    n = idx.shape[0]
    if n == 0:
        raise LengthError("cannot encode an empty prefix")
    if n > enc.pos.shape[0]:
        raise LengthError(
            f"prefix length {n} exceeds positional table of {enc.pos.shape[0]} rows"
        )
    d = item_table.shape[1]
    x = item_table[idx] + enc.pos[n - 1 :: -1]
    q = _relu(x @ enc.wq)
    k = _relu(x @ enc.wk)
    att = _softmax_rows(q @ k.T / np.sqrt(d))
    z = att @ x + x
    last = z[-1]
    return _relu(last @ enc.w1 + enc.b1) @ enc.w2 + enc.b2


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
    """Remove the component along unit normal v: x - (v.x) v, for (d,) or (..., d)."""
    return x - np.expand_dims(x @ v, -1) * v if x.ndim > 1 else x - (v @ x) * v


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
        return -(target @ q) if item_vec.ndim > 1 else -float(q @ target)
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
        normal = hyperplane_normal(pi, params.bank.normals, strict=True)
    if mode != "proxy_only":
        short = encode_short_term(instance.prefix, params.items, params.encoder)
    mask = instance.prefix if task == "unseen" else None
    return score_catalog(proxy, short, normal, params.items, mask=mask, mode=mode)


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
            normal = hyperplane_normal(pi, params.bank.normals, strict=False)
        if cfg.mode != "proxy_only":
            short = encode_short_term(inst.prefix, params.items, params.encoder)
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
