"""Ranking evaluation: deterministic rank-of-target, recall@k and MRR@k.

Scores come from the model's forward in its inference regime: the selection
distribution is computed from the prefix only (the part of the session
actually observed at prediction time), degenerate mixtures raise instead of
being padded, and on the unseen task every prefix item is masked out of the
catalog before ranking.

Instances are scored in instance order, in chunks of at most
min(CHUNK_ROWS, CHUNK_ELEMENTS // (S * (N+1))) rows, where S =
scoring.stacked_rows(mode) counts the product rows per query: 2 in the
projected distance modes, which stack the x.v rows under the distance rows,
else 1. One batched forward gives a chunk's query points q and normals v.

Each row's target score et = distance(q, project(x_target, v)) is computed
exactly, in float64, as training computes it. The rest of the catalog is
only screened: scoring.catalog_scores expands the distance into one matrix
product against a float32 copy of catalog_table, made once per call, and
two elementwise passes. A chunk's product, at most CHUNK_ELEMENTS float32
values (4 MiB), goes straight to ranking and is freed before the next
chunk's is built, so one block is held at a time. The forward packs a
chunk's prefixes into one run table with no padding, so the order of the
instances costs nothing.

The screen is trusted only outside a band of half-width

    band = 8 (d+4) (u + u64) (1 + ||q||^2 + max ||x||^2)

around et, where u is the unit roundoff of the screen's dtype (2^-24 for
float32) and u64 = 2^-53. Write S = 1 + ||q||^2 + max ||x||^2. A K-term dot
product of operands rounded to the screen's dtype is off by at most
gamma_(K+2) sum |a_j||b_j|, gamma_m = m u / (1 - m u) (Higham, Accuracy and
Stability of Numerical Algorithms, section 3.1). The distance row has
K = d+2 terms, [w, 1, ||q||^2] . [x, ||x||^2, 1], and
sum |a_j||b_j| <= ||w|| ||x|| + ||x||^2 + ||q||^2 <= 2S, because
w = 2((q.v)v - q) is twice q's component off the unit normal, so
||w|| <= 2||q|| and 2||q|| ||x|| <= ||q||^2 + ||x||^2. The x.v row is off by
gamma_(d+4) ||x||, so its square by (2 gamma_(d+4) + u) ||x||^2, and the
subtraction adds u times a result of at most 2S. The float64 work before the
cast (w, the squared norms, a normal whose norm is 1 only to rounding) adds
at most (3d + 4) u64 S. That is (4d + 19) u S to first order in float32 and
(7d + 23) u S when the screen is float64 itself, both within 8 (d+4) u S;
the dot_product and unprojected modes have smaller operands. The exact
float64 scores are off from the distance to the stored normal's hyperplane
by at most (5d + 12) u64 S to first order, within 8 (d+4) u64 S. So a
screened entry lies within band of its exact float64 score, and the band's
edges are rounded outward to the screen's dtype. Items screened below
et - band are exactly closer and are counted with one comparison per row.
Those inside the band are gathered for the whole chunk with one nonzero and
scored again as (row, item) pairs by the per-row project and distance, so
identical item rows tie exactly. Then

    rank = 1 + #(below the band)
             + #(band candidates strictly closer, or tied with a smaller id)

so an item tied with the target counts against it only when its id is
smaller. Every rank is the one the exact float64 scores give, whatever BLAS
kernel or thread count sums the screen.

Float32 holds the screen only while its values stay far from overflow: a
chunk where 1 + max ||q||^2 + max ||x||^2 reaches SCREEN_LIMIT = 2^100 runs
the same code on the float64 table with u = u64. Underflow to float32's
subnormals costs less than one ulp of the 1 in S. Each instance is ranked on
its own row; which chunk it falls in can move its query point by rounding
only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor
from .data import TASKS, PredictionInstance
from .errors import ConfigError, MetricError, NumericError
from .scoring import (
    catalog_scores,
    catalog_table,
    distance,
    mode_terms,
    project,
    session_state,
    stacked_rows,
)

# values in one chunk's catalog product (4 MiB of float32), every stacked row counted
CHUNK_ELEMENTS = 2**20
CHUNK_ROWS = 256  # instances per chunk at most; bounds a chunk's run table and score rows
SCREEN_LIMIT = 2.0**100  # 1 + ||q||^2 + max ||x||^2 from here on is screened in float64
_U64 = np.finfo(np.float64).eps / 2  # unit roundoff of the exact float64 scores


@dataclass
class MetricsReport:
    recall: dict[int, float]
    mrr: dict[int, float]
    count: int

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "recall": {str(k): v for k, v in sorted(self.recall.items())},
            "mrr": {str(k): v for k, v in sorted(self.mrr.items())},
        }

    def as_text(self) -> str:
        lines = [f"{'k':>4}  {'recall@k':>10}  {'mrr@k':>10}"]
        for k in sorted(self.recall):
            lines.append(f"{k:>4}  {self.recall[k]:>10.6f}  {self.mrr[k]:>10.6f}")
        lines.append(f"({self.count} instances)")
        return "\n".join(lines)


def compute_ranks(
    params,
    instances: list[PredictionInstance],
    task: str,
    tau: float,
    mode: str = "full",
) -> np.ndarray:
    """Rank of every instance's target, in instance order."""
    mode_terms(mode)  # raises ConfigError for an unknown mode
    if task not in TASKS:
        raise ConfigError(f"unknown task {task!r}; expected one of {TASKS}")
    items = params.items
    targets = np.fromiter((i.target for i in instances), dtype=np.int64, count=len(instances))
    bad = (targets < 1) | (targets >= items.shape[0])
    if bad.any():
        raise MetricError(f"target id {targets[bad][0]} outside catalog of {items.shape[0] - 1}")
    # leaves that need no gradient: the forward records nothing
    leaves = {name: Tensor(arr) for name, arr in params.named().items()}
    table = catalog_table(items)
    x_max = float(table[:, -2].max())
    table32 = None
    if 1.0 + x_max < SCREEN_LIMIT:  # the float64 table is rebuilt for a chunk that needs it
        table32, table = table.astype(np.float32), None
    per_chunk = max(1, min(CHUNK_ROWS, CHUNK_ELEMENTS // (stacked_rows(mode) * items.shape[0])))
    ranks = np.empty(len(instances), dtype=np.int64)
    for lo in range(0, len(instances), per_chunk):
        where = slice(lo, lo + per_chunk)
        chunk = instances[where]
        bias_rows = params.bias_rows(chunk)
        _, v, q = session_state(chunk, bias_rows, leaves, tau, mode, strict=True)
        et = distance(q, project(items[targets[where]], v, mode), mode)
        if np.isnan(et).any():  # masks never reach et: the forward itself failed
            raise NumericError(f"target id {targets[where][np.isnan(et)][0]} has score nan")
        if 1.0 + float((q * q).sum(axis=1).max()) + x_max < SCREEN_LIMIT:
            screen = table32
        else:
            if table is None:
                table = catalog_table(items)
            screen = table
        masks = [i.prefix for i in chunk] if task == "unseen" else None
        # no name keeps the block, so it is freed before the next chunk's
        ranks[where] = _rank_rows(
            catalog_scores(q, v, screen, mode, masks),
            targets[where],
            et,
            screen_band(q, x_max, screen.dtype),
            q,
            v,
            items,
            mode,
        )
    return ranks


def screen_band(q: np.ndarray, x_max: float, dtype) -> np.ndarray:
    """Half-width, per query row, of the band around an exact float64 score
    outside which a screen computed in dtype orders the catalog correctly:
    8 (d+4) (u + u64) (1 + ||q||^2 + x_max), derived in the module docstring."""
    u = np.finfo(dtype).eps / 2
    return 8 * (q.shape[1] + 4) * (u + _U64) * (1.0 + (q * q).sum(axis=1) + x_max)


def _rank_rows(scores, targets, et, band, q, v, items, mode) -> np.ndarray:
    """Rank of each row's target, whose exact score is et, among that row's
    screened scores.

    Items screened below et - band count as closer outright. Those inside
    the band are scored again as (row, item) pairs by project and distance,
    and count when strictly closer or tied with a smaller id.
    """
    n, width = scores.shape
    at_target = (np.arange(n), targets)
    st = scores[at_target]
    bad = ~(np.isfinite(st) & np.isfinite(et))
    if bad.any():  # masks give +inf: the target lies in its own prefix
        b = np.flatnonzero(bad)[0]
        raise MetricError(f"target id {targets[b]} has non-finite score {st[b]}")
    edge = scores.dtype.type(np.inf)
    below = scores < np.nextafter((et - band).astype(scores.dtype), -edge)[:, None]
    near = scores <= np.nextafter((et + band).astype(scores.dtype), edge)[:, None]
    near ^= below
    near[at_target] = False  # the target is no rival of its own
    # np.nonzero on the 2-D mask is several times slower than on its ravel
    rows, cols = np.divmod(np.flatnonzero(near), width)
    exact = distance(q[rows], project(items[cols], None if v is None else v[rows], mode), mode)
    ert = et[rows]
    closer = (exact < ert) | ((exact == ert) & (cols < targets[rows]))
    # count_nonzero along an axis casts every bool to intp; summing an int8
    # view into int32 counts the same, about twice as fast
    counted = below.view(np.int8).sum(axis=1, dtype=np.int32)
    return 1 + counted + np.bincount(rows[closer], minlength=n)


def metrics_from_ranks(ranks: np.ndarray, ks: tuple[int, ...]) -> MetricsReport:
    if ranks.size == 0:
        raise MetricError("metrics over zero instances are undefined")
    recall, mrr = {}, {}
    for k in ks:
        if k < 1:
            raise ConfigError(f"cutoff must be >= 1, got {k}")
        hit = ranks <= k
        recall[int(k)] = float(np.mean(hit))
        mrr[int(k)] = float(np.mean(np.where(hit, 1.0 / ranks, 0.0)))
    return MetricsReport(recall=recall, mrr=mrr, count=int(ranks.size))


def evaluate(
    params,
    instances: list[PredictionInstance],
    task: str,
    ks: tuple[int, ...] = (5, 10, 20),
    tau: float = 0.01,
    mode: str = "full",
) -> MetricsReport:
    """Recall@k and MRR@k over prediction instances at a fixed temperature."""
    if not instances:
        raise MetricError("metrics over zero instances are undefined")
    ranks = compute_ranks(params, instances, task, tau, mode=mode)
    return metrics_from_ranks(ranks, tuple(ks))
