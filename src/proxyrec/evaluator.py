"""Ranking evaluation: deterministic rank-of-target, recall@k and MRR@k.

Scores come from the model's forward in its inference regime: the selection
distribution is computed from the prefix only (the part of the session
actually observed at prediction time), degenerate mixtures raise instead of
being padded, and on the unseen task every prefix item is masked out of the
catalog before ranking.

Instances are scored in instance order, in chunks of at most
min(CHUNK_ROWS, CHUNK_ELEMENTS // (N+1)) rows. One batched forward gives a
chunk's query points, and scoring.catalog_scores scores the whole catalog
against them with folded matrix products: the item table gains a ||x||^2
column and a ones column once per call, so each chunk costs one matrix
product and two elementwise passes. The forward packs a chunk's prefixes
into one run table with no padding, so the order of the instances costs
nothing.

A whole chunk is then ranked with array operations. The products may round
two equal distances differently, so each row's target score st defines a
band of half-width TIE_BAND * (1 + ||q||^2 + max ||x||^2). Candidates below
st - band are counted with one comparison per row. The band's candidates,
the target included, are gathered for the whole chunk with one nonzero and
scored again as (row, item) pairs by the per-row project and distance that
training uses, so identical item rows tie exactly. Then

    rank = 1 + #(below the band)
             + #(band candidates strictly closer, or tied with a smaller id)

so an item tied with the target counts against it only when its id is
smaller. Each instance is ranked on its own row; which chunk it falls in
can move its query point by rounding only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, no_grad
from .data import TASKS, PredictionInstance
from .errors import ConfigError, MetricError, NumericError
from .scoring import (
    SCORING_MODES,
    catalog_scores,
    catalog_table,
    distance,
    project,
    session_state,
)

CHUNK_ELEMENTS = 2**20  # catalog scores held per chunk (8 MiB of float64)
CHUNK_ROWS = 256  # instances per chunk at most; bounds a chunk's run table and score rows
TIE_BAND = 1e-9  # relative to the squared norms entering the expanded distance


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
    if mode not in SCORING_MODES:
        raise ConfigError(f"unknown scoring mode {mode!r}; expected one of {SCORING_MODES}")
    if task not in TASKS:
        raise ConfigError(f"unknown task {task!r}; expected one of {TASKS}")
    items = params.items
    leaves = {name: Tensor(arr) for name, arr in params.named().items()}
    table = catalog_table(items)
    x_max = float(table[:, -2].max())
    per_chunk = max(1, min(CHUNK_ROWS, CHUNK_ELEMENTS // items.shape[0]))
    targets = np.fromiter((i.target for i in instances), dtype=np.int64, count=len(instances))
    ranks = np.empty(len(instances), dtype=np.int64)
    with no_grad():
        for lo in range(0, len(instances), per_chunk):
            where = slice(lo, lo + per_chunk)
            chunk = instances[where]
            bias_rows = params.bias_rows(chunk)
            _, v, q = session_state(chunk, bias_rows, leaves, tau, mode, strict=True)
            qd, vd = q.data, None if v is None else v.data
            masks = [i.prefix for i in chunk] if task == "unseen" else None
            scores = catalog_scores(qd, vd, table, mode, masks)
            bands = TIE_BAND * (1.0 + (qd * qd).sum(axis=1) + x_max)
            ranks[where] = _rank_rows(scores, targets[where], bands, qd, vd, items, mode)
    return ranks


def _rank_rows(scores, targets, bands, q, v, items, mode) -> np.ndarray:
    """Rank of each row's target among that row's scores.

    Candidates below the target's band count as closer outright. Those
    inside it, the target included, are scored again as (row, item) pairs by
    project and distance, and count when strictly closer or tied with a
    smaller id.
    """
    n = scores.shape[0]
    bad = (targets < 1) | (targets >= scores.shape[1])
    if bad.any():
        t = targets[bad][0]
        raise MetricError(f"target id {t} outside catalog of {scores.shape[1] - 1}")
    st = scores[np.arange(n), targets]
    if np.isnan(st).any():  # masks give +inf, never nan: the forward itself failed
        raise NumericError(f"target id {targets[np.isnan(st)][0]} has score nan")
    if not np.isfinite(st).all():
        b = np.flatnonzero(~np.isfinite(st))[0]
        raise MetricError(f"target id {targets[b]} has non-finite score {st[b]}")
    below = scores < (st - bands)[:, None]
    near = scores <= (st + bands)[:, None]
    near ^= below
    # np.nonzero on the 2-D mask is several times slower than on its ravel
    rows, cols = np.divmod(np.flatnonzero(near), scores.shape[1])
    cand = project(Tensor(items[cols]), None if v is None else Tensor(v[rows]), mode)
    exact = distance(Tensor(q[rows]), cand, mode).data
    row_target = targets[rows]
    is_target = cols == row_target
    exact_t = np.empty(n)
    exact_t[rows[is_target]] = exact[is_target]
    et = exact_t[rows]
    closer = (exact < et) | ((exact == et) & (cols < row_target))
    return 1 + np.count_nonzero(below, axis=1) + np.bincount(rows[closer], minlength=n)


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
