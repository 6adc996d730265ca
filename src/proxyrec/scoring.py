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
into two matrix products.
"""

from __future__ import annotations

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


def catalog_scores(
    q: np.ndarray, v: np.ndarray | None, items: np.ndarray, mode: str, masks=None
) -> np.ndarray:
    """Distance (B, N+1) of every catalog row to every query row.

    Expands ||q - x_perp||^2 = ||q||^2 + ||x||^2 - 2 q.x + (x.v)(2 q.v - x.v)
    so the catalog enters only through the products q X' and v X'. Row 0 of
    the item table is padding and scores +inf, as does every id in masks[b]
    for query row b. The expansion rounds differently from distance(), by
    far less than any gap it is trusted to order.
    """
    qx = q @ items.T
    if mode == "dot_product":
        vx = v @ items.T
        scores = vx * (q * v).sum(axis=1, keepdims=True) - qx
    else:
        scores = (q * q).sum(axis=1, keepdims=True) + (items * items).sum(axis=1) - 2.0 * qx
        if mode in PROJECTED_MODES:
            vx = v @ items.T
            scores += vx * (2.0 * (q * v).sum(axis=1, keepdims=True) - vx)
    scores[:, 0] = np.inf
    if masks is not None:
        rows = np.repeat(np.arange(len(masks)), [len(m) for m in masks])
        cols = np.fromiter((i for m in masks for i in m), dtype=np.int64, count=rows.size)
        if cols.size:
            if cols.min() < 0 or cols.max() >= scores.shape[1]:
                raise MetricError(f"mask ids outside catalog: {cols.min()}..{cols.max()}")
            scores[rows, cols] = np.inf
    return scores
