"""Combining both interest signals on a proxy-specific hyperplane.

Each proxy row has a companion normal vector; the session's mixture of
normals (renormalized to unit length) defines a hyperplane. The short-term
vector and every candidate item are projected onto that hyperplane before
measuring squared Euclidean distance to the proxy-plus-short-term query:

    dist(session, item) = || (proxy + s_perp) - item_perp ||^2

Smaller is better everywhere in this module. Alternative modes cover the
ablations: each drops one ingredient (proxy only, short-term only, no
projection) or swaps the metric for a negated dot product.

MODES says which of these terms each mode keeps. project, query and
distance are numpy functions, the one definition of the scoring math:
training's loss head (trainer.loss_head) scores a few candidates per
instance through them, session_state builds evaluation's query points with
them, and the evaluator scores each target and re-scores near ties with
them. Evaluation screens the whole catalog through catalog_scores, which
expands the same distance into one matrix product against catalog_table in
the table's dtype. The evaluator passes a float32 copy of the table, or the
float64 table where float32 could overflow, and trusts the screen only
outside a band around the target's exact score whose width bounds the
expansion's rounding (derived in evaluator's docstring); entries inside it
are settled by distance itself.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

import numpy as np

from .autodiff import Tensor
from .encoder import encode_prefixes
from .errors import ConfigError, MetricError
from .selector import select


class Terms(NamedTuple):
    """What a scoring mode keeps of the model."""

    proxy: bool  # the query holds the proxy
    short: bool  # the query holds the short-term state
    projected: bool  # the short-term state and the candidates lie on the hyperplane
    dot: bool  # dissimilarity is the negated inner product, not the squared distance


MODES = {
    "full": Terms(True, True, True, False),
    "proxy_only": Terms(True, False, True, False),
    "short_only": Terms(False, True, False, False),
    "no_projection": Terms(True, True, False, False),
    "dot_product": Terms(True, True, True, True),
}
SCORING_MODES = tuple(MODES)


def mode_terms(mode: str) -> Terms:
    """The Terms of mode; ConfigError for a mode MODES does not name."""
    if mode not in MODES:
        raise ConfigError(f"unknown scoring mode {mode!r}; expected one of {SCORING_MODES}")
    return MODES[mode]


def project(x: np.ndarray, v: np.ndarray | None, mode: str) -> np.ndarray:
    """Candidates as the mode sees them: x - (v.x) v on the hyperplane of unit
    normal v in the projected modes, x unchanged otherwise.

    Rows x (B, d) pair with normals v (B, d); a candidate stack (B, C, d)
    reuses each instance's normal for all of its C rows.
    """
    if not mode_terms(mode).projected:
        return x
    if x.ndim > v.ndim:
        v = v.reshape(v.shape[0], 1, v.shape[-1])
    return x - (x * v).sum(axis=-1, keepdims=True) * v


def query(p: np.ndarray | None, v: np.ndarray | None, s: np.ndarray | None, mode: str) -> np.ndarray:
    """The session's query point: proxy plus projected short-term state, or
    the single ingredient (or unprojected sum) an ablation keeps."""
    terms = mode_terms(mode)
    if not terms.short:
        return p
    if not terms.proxy:
        return s
    return p + project(s, v, mode)


def distance(q: np.ndarray, x: np.ndarray, mode: str) -> np.ndarray:
    """Dissimilarity over the last axis of queries to candidates already
    passed through project; dot_product negates the inner product to keep
    smaller meaning closer."""
    if mode_terms(mode).dot:
        return -(q * x).sum(axis=-1)
    diff = q - x
    return (diff * diff).sum(axis=-1)


def session_state(
    instances, bias_rows, leaves: dict[str, Tensor], tau: float, mode: str, strict: bool
):
    """(p, v, q) arrays for a batch: proxies, hyperplane normals and query
    points, from the selector's and the encoder's ops. p and v are None in
    short_only mode.

    strict is the inference regime (selection from each prefix, degenerate
    mixtures raise); training runs the same ops with strict=False (selection
    from each parent session, EPS padding).
    """
    terms = mode_terms(mode)
    p = v = s = None
    if terms.proxy:
        p, v = select(instances, bias_rows, leaves, tau, strict)[1].data
    if terms.short:
        s = encode_prefixes([i.prefix for i in instances], leaves).data
    return p, v, query(p, v, s, mode)


def catalog_table(items: np.ndarray) -> np.ndarray:
    """The item table (N+1, d) with a ||x||^2 column and a ones column
    appended, in float64: the catalog operand of catalog_scores, built once
    per ranking (the evaluator screens against a float32 copy)."""
    sq = (items * items).sum(axis=1, keepdims=True)
    return np.hstack([items, sq, np.ones_like(sq)])


def stacked_rows(mode: str) -> int:
    """Rows of catalog_scores' product per query: 2 where it stacks the x.v
    rows under the distance rows (the projected distances), else 1."""
    terms = mode_terms(mode)
    return 2 if terms.projected and not terms.dot else 1


def catalog_scores(
    q: np.ndarray, v: np.ndarray | None, table: np.ndarray, mode: str, masks=None
) -> np.ndarray:
    """Distance (B, N+1) of every catalog row to every query row, in the
    dtype of table.

    table is catalog_table(items), rows [x, ||x||^2, 1], or a copy of it in
    another float dtype. With unit normals v the projected distance expands to

        ||q - x_perp||^2 = ||q||^2 + ||x||^2 + x.w - (x.v)^2,   w = 2((q.v)v - q)

    so one product of the stacked rows [w, 1, ||q||^2] and [v, 0, 0] with the
    table gives ||q||^2 + ||x||^2 + x.w in its upper half and x.v in its
    lower; x.v is squared and subtracted in place, two elementwise passes in
    all. The unprojected modes take w = -2q and need only the upper half;
    dot_product scores -q.x_perp = x.((q.v)v - q), one product against X
    alone. The query rows are built in float64 and cast to table's dtype for
    the product. Row 0 of the item table is padding and scores +inf, as does
    every id in masks[b] for query row b. The expansion rounds differently
    from distance(); evaluator's module docstring bounds by how much. The
    result is a view of the product, so it keeps all stacked_rows(mode) * B
    of its rows alive until it is released.
    """
    B, d = q.shape
    stacked = stacked_rows(mode) == 2
    if mode_terms(mode).dot:
        lhs = (q * v).sum(axis=1, keepdims=True) * v - q
        scores = lhs.astype(table.dtype, copy=False) @ table[:, :d].T
    else:
        lhs = np.hstack([-2.0 * q, np.ones((B, 1)), (q * q).sum(axis=1, keepdims=True)])
        if stacked:
            lhs[:, :d] += 2.0 * (q * v).sum(axis=1, keepdims=True) * v
            lhs = np.vstack([lhs, np.hstack([v, np.zeros((B, 2))])])
        out = lhs.astype(table.dtype, copy=False) @ table.T
        scores = out[:B]
        if stacked:
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
