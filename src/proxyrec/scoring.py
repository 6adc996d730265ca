"""Combining both interest signals on a proxy-specific hyperplane.

Each proxy row has a companion normal vector; the session's mixture of
normals (renormalized to unit length) defines a hyperplane. The short-term
vector and every candidate item are projected onto that hyperplane before
measuring squared Euclidean distance to the proxy-plus-short-term query:

    dist(session, item) = || (proxy + s_perp) - item_perp ||^2

Smaller is better everywhere in this module. Alternative modes cover the
ablations: each drops one ingredient (proxy only, short-term only, no
projection) or swaps the metric for a negated dot product.

session_state is the model's forward for a batch; training scores a few
candidates per instance through project and distance, and evaluation scores
the whole catalog through catalog_scores, which expands the same distance
into one matrix product against catalog_table.
"""

from __future__ import annotations

import itertools

import numpy as np

from .autodiff import Tensor
from .encoder import encode_prefixes
from .errors import ConfigError, MetricError
from .selector import select

SCORING_MODES = ("full", "proxy_only", "short_only", "no_projection", "dot_product")
PROJECTED_MODES = ("full", "proxy_only", "dot_product")


def project(x: Tensor, v: Tensor, mode: str) -> Tensor:
    """Candidates as the mode sees them: x - (v.x) v on the hyperplane of unit
    normal v in the projected modes, x unchanged otherwise.

    Rows x (B, d) pair with normals v (B, d); a candidate stack (B, C, d)
    reuses each instance's normal for all of its C rows.
    """
    if mode not in PROJECTED_MODES:
        return x
    if x.ndim > v.ndim:
        v = v.reshape(v.data.shape[0], 1, v.data.shape[-1])
    return x - x.inner(v, keepdims=True) * v


def query(p: Tensor | None, v: Tensor | None, s: Tensor | None, mode: str) -> Tensor:
    """The session's query point: proxy plus projected short-term state, or
    the single ingredient (or unprojected sum) an ablation keeps."""
    if mode not in SCORING_MODES:
        raise ConfigError(f"unknown scoring mode {mode!r}; expected one of {SCORING_MODES}")
    if mode == "proxy_only":
        return p
    if mode == "short_only":
        return s
    if mode == "no_projection":
        return p + s
    return p + project(s, v, mode)


def distance(q: Tensor, x: Tensor, mode: str) -> Tensor:
    """Dissimilarity of queries to candidates already passed through project;
    dot_product negates the inner product to keep smaller meaning closer."""
    if mode == "dot_product":
        return -q.inner(x)
    return q.sq_dist(x)


def session_state(
    instances, bias_rows, leaves: dict[str, Tensor], tau: float, mode: str, strict: bool
):
    """(p, v, q) for a batch: proxies, hyperplane normals and query points.

    p and v are None in short_only mode. strict is the inference regime
    (selection from each prefix, degenerate mixtures raise); training passes
    strict=False (selection from each parent session, EPS padding).
    """
    p = v = s = None
    if mode != "short_only":
        _, p, v = select(instances, bias_rows, leaves, tau, strict)
    if mode != "proxy_only":
        s = encode_prefixes([i.prefix for i in instances], leaves)
    return p, v, query(p, v, s, mode)


def catalog_table(items: np.ndarray) -> np.ndarray:
    """The item table (N+1, d) with a ||x||^2 column and a ones column
    appended: the catalog operand of catalog_scores, built once per ranking."""
    sq = (items * items).sum(axis=1, keepdims=True)
    return np.hstack([items, sq, np.ones_like(sq)])


def catalog_scores(
    q: np.ndarray, v: np.ndarray | None, table: np.ndarray, mode: str, masks=None
) -> np.ndarray:
    """Distance (B, N+1) of every catalog row to every query row.

    table is catalog_table(items), rows [x, ||x||^2, 1]. With unit normals v
    the projected distance expands to

        ||q - x_perp||^2 = ||q||^2 + ||x||^2 + x.w - (x.v)^2,   w = 2((q.v)v - q)

    so one product of the stacked rows [w, 1, ||q||^2] and [v, 0, 0] with the
    table gives ||q||^2 + ||x||^2 + x.w in its upper half and x.v in its
    lower; x.v is squared and subtracted in place, two elementwise passes in
    all. The unprojected modes take w = -2q and need only the upper half;
    dot_product scores -q.x_perp = x.((q.v)v - q), one product against X
    alone. Row 0 of the item table is padding and scores +inf, as does every
    id in masks[b] for query row b. The expansion rounds differently from
    distance(), by far less than any gap it is trusted to order.
    """
    B, d = q.shape
    projected = mode in PROJECTED_MODES
    if mode == "dot_product":
        scores = ((q * v).sum(axis=1, keepdims=True) * v - q) @ table[:, :d].T
    else:
        lhs = np.hstack([-2.0 * q, np.ones((B, 1)), (q * q).sum(axis=1, keepdims=True)])
        if projected:
            lhs[:, :d] += 2.0 * (q * v).sum(axis=1, keepdims=True) * v
            lhs = np.vstack([lhs, np.hstack([v, np.zeros((B, 2))])])
        out = lhs @ table.T
        scores = out[:B]
        if projected:
            vx = out[B:]
            vx *= vx
            scores -= vx
    scores[:, 0] = np.inf
    if masks is not None:
        rows = np.repeat(np.arange(len(masks)), [len(m) for m in masks])
        cols = np.fromiter(itertools.chain.from_iterable(masks), dtype=np.int64, count=rows.size)
        if cols.size:
            if cols.min() < 0 or cols.max() >= scores.shape[1]:
                raise MetricError(f"mask ids outside catalog: {cols.min()}..{cols.max()}")
            scores[rows, cols] = np.inf
    return scores
