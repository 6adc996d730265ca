"""Ranking evaluation: deterministic rank-of-target, recall@k and MRR@k.

Scores come from the model's forward in its inference regime: the selection
distribution is computed from the prefix only (the part of the session
actually observed at prediction time), degenerate mixtures raise instead of
being padded, and on the unseen task every prefix item is masked out of the
catalog before ranking.

Instances are visited in a stable order of prefix length and scored in
chunks of at most min(CHUNK_ROWS, CHUNK_ELEMENTS // (N+1)) rows; ranks are
written back in instance order. One batched forward gives a chunk's query
points, and two matrix products score the whole catalog against them. The
forward pads each chunk to its longest prefix, so length order keeps the
padding small, and the row cap bounds the padded blocks. The two products
may round two equal distances differently, so every candidate within a
narrow band of the target's score is scored again, together with the
target, by the per-row distance that training uses; identical item rows
then tie exactly. Ranks are deterministic under score ties: an item tied
with the target counts against it only when its id is smaller. Each
instance is ranked on its own row; which chunk it falls in, and how far
that chunk is padded, can move its query point by rounding only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, no_grad
from .data import PredictionInstance
from .errors import ConfigError, MetricError
from .scoring import SCORING_MODES, catalog_scores, distance, project, session_state

CHUNK_ELEMENTS = 2**20  # catalog scores held per chunk (8 MiB of float64)
CHUNK_ROWS = 256  # instances per chunk at most; each chunk is one padded block
TIE_BAND = 1e-9  # relative to the squared norms entering the expanded distance


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
    items = params.items
    leaves = {name: Tensor(arr) for name, arr in params.named().items()}
    x_max = float((items * items).sum(axis=1).max())
    per_chunk = max(1, min(CHUNK_ROWS, CHUNK_ELEMENTS // items.shape[0]))
    order = np.argsort([len(i.prefix) for i in instances], kind="stable")
    ranks = np.empty(len(instances), dtype=np.int64)
    with no_grad():
        for lo in range(0, len(instances), per_chunk):
            where = order[lo : lo + per_chunk]
            chunk = [instances[i] for i in where]
            bias_rows = params.bias_rows(chunk)
            _, v, q = session_state(chunk, bias_rows, leaves, tau, mode, strict=True)
            qd, vd = q.data, None if v is None else v.data
            masks = [i.prefix for i in chunk] if task == "unseen" else None
            scores = catalog_scores(qd, vd, items, mode, masks)
            bands = TIE_BAND * (1.0 + (qd * qd).sum(axis=1) + x_max)
            for b, inst in enumerate(chunk):
                row, t = scores[b], inst.target
                if 1 <= t < row.shape[0] and np.isfinite(row[t]):
                    near = np.flatnonzero(np.abs(row - row[t]) <= bands[b])
                    v_b = None if vd is None else Tensor(vd[b : b + 1])
                    cand = project(Tensor(items[near]), v_b, mode)
                    row[near] = distance(Tensor(qd[b : b + 1]), cand, mode).data
                ranks[where[b]] = rank_of_target(row, t)
    return ranks


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
