"""Ranking metrics and the inference scoring path."""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from proxyrec import evaluator
from proxyrec.autodiff import Tensor
from proxyrec.data import PredictionInstance, chronological_split, expand_all
from proxyrec.errors import ConfigError, DegenerateProxyError, MetricError
from proxyrec.evaluator import (
    MetricsReport,
    compute_ranks,
    evaluate,
    metrics_from_ranks,
)
from proxyrec.scoring import (
    SCORING_MODES,
    catalog_scores,
    catalog_table,
    distance,
    project,
    session_state,
)
from proxyrec.synth import planted_corpus
from proxyrec.trainer import TrainConfig, init_model, make_leaves, objective
from reference import rank_of_target, reference_ranks
from reference import score_instance as reference_scores


def score_instance(params, instance, tau, task, mode="full"):
    """One instance's catalog row through the batched inference forward."""
    leaves = {name: Tensor(arr) for name, arr in params.named().items()}
    _, v, q = session_state([instance], params.bias_rows([instance]), leaves, tau, mode, True)
    masks = [instance.prefix] if task == "unseen" else None
    return catalog_scores(q, v, catalog_table(params.items), mode, masks)[0]


def slow_rank(scores, target):
    """Independent oracle: position in the list sorted by (score, id)."""
    order = sorted(range(len(scores)), key=lambda i: (scores[i], i))
    return order.index(target) + 1


class TestRankOfTarget:
    def test_hand_values(self):
        scores = np.array([np.inf, 0.5, 0.2, 0.5, 0.1, np.inf])
        assert rank_of_target(scores, 4) == 1
        assert rank_of_target(scores, 2) == 2
        assert rank_of_target(scores, 1) == 3  # tie at 0.5, smaller id wins
        assert rank_of_target(scores, 3) == 4

    def test_matches_sorting_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            n = int(rng.integers(2, 40))
            scores = np.empty(n + 1)
            scores[0] = np.inf
            # coarse grid forces plenty of exact ties
            scores[1:] = rng.integers(0, 6, size=n) / 4.0
            masked = rng.integers(1, n + 1, size=max(n // 4, 1))
            scores[masked] = np.inf
            finite = [i for i in range(1, n + 1) if np.isfinite(scores[i])]
            if not finite:
                continue
            target = int(rng.choice(finite))
            assert rank_of_target(scores, target) == slow_rank(scores.tolist(), target)

    def test_masked_target_rejected(self):
        scores = np.array([np.inf, 1.0, np.inf])
        with pytest.raises(MetricError):
            rank_of_target(scores, 2)

    def test_out_of_range_target_rejected(self):
        scores = np.array([np.inf, 1.0, 2.0])
        with pytest.raises(MetricError):
            rank_of_target(scores, 0)
        with pytest.raises(MetricError):
            rank_of_target(scores, 3)


class TestMetrics:
    def test_hand_values(self):
        report = metrics_from_ranks(np.array([1, 3, 25]), (5, 20))
        assert report.recall[5] == pytest.approx(2 / 3)
        assert report.recall[20] == pytest.approx(2 / 3)
        assert report.mrr[5] == pytest.approx((1.0 + 1.0 / 3.0) / 3.0)
        assert report.mrr[20] == pytest.approx((1.0 + 1.0 / 3.0) / 3.0)
        assert report.count == 3

    def test_rank_exactly_k_counts(self):
        report = metrics_from_ranks(np.array([20]), (20,))
        assert report.recall[20] == 1.0
        assert report.mrr[20] == pytest.approx(0.05)

    def test_empty_and_bad_cutoffs(self):
        with pytest.raises(MetricError):
            metrics_from_ranks(np.array([], dtype=np.int64), (5,))
        with pytest.raises(ConfigError):
            metrics_from_ranks(np.array([1]), (0,))

    def test_report_rendering(self):
        report = MetricsReport(recall={5: 0.5, 20: 0.75}, mrr={5: 0.25, 20: 0.3}, count=8)
        text = report.as_text()
        assert "recall@k" in text and "(8 instances)" in text
        d = report.as_dict()
        assert d["recall"]["20"] == 0.75
        assert d["count"] == 8


def build_instances(rng, n, n_items):
    out = []
    for _ in range(n):
        length = int(rng.integers(2, 6))
        parent = tuple(int(x) for x in rng.integers(1, n_items + 1, size=length))
        out.append(
            PredictionInstance(
                prefix=parent[:-1], target=parent[-1], parent_items=parent
            )
        )
    return out


class TestEvaluate:
    def _setup(self, seed=3):
        cfg = TrainConfig(embed_dim=4, proxy_count=3, max_len=8, seed=seed)
        params = init_model(15, cfg)
        instances = build_instances(np.random.default_rng(seed), 20, 15)
        return params, instances

    def test_unseen_masks_every_prefix_item(self):
        params, instances = self._setup()
        for inst in instances:
            scores = score_instance(params, inst, 1.0, "unseen")
            for item in inst.prefix:
                assert scores[item] == np.inf
            if inst.target not in inst.prefix:
                assert np.isfinite(scores[inst.target])

    def test_repeat_keeps_prefix_items(self):
        params, instances = self._setup()
        inst = instances[0]
        scores = score_instance(params, inst, 1.0, "repeat")
        assert all(np.isfinite(scores[i]) for i in inst.prefix)

    def test_modes_disagree(self):
        params, instances = self._setup()
        inst = next(i for i in instances if i.target not in i.prefix)
        per_mode = {
            m: score_instance(params, inst, 1.0, "repeat", mode=m)[1:]
            for m in ("full", "proxy_only", "short_only", "no_projection", "dot_product")
        }
        assert not np.allclose(per_mode["full"], per_mode["short_only"])
        assert not np.allclose(per_mode["full"], per_mode["no_projection"])

    def test_chunking_is_deterministic(self, monkeypatch):
        params, instances = self._setup()
        usable = [i for i in instances if i.target not in i.prefix]
        whole = compute_ranks(params, usable, "unseen", 1.0)
        for rows in (1, 3, 7):  # 16 catalog rows, 2 stacked per instance in "full" mode
            monkeypatch.setattr(evaluator, "CHUNK_ELEMENTS", 2 * 16 * rows)
            np.testing.assert_array_equal(compute_ranks(params, usable, "unseen", 1.0), whole)

    def test_ranking_holds_one_chunk_block_at_a_time(self, monkeypatch):
        # 32 rows a chunk, 4 chunks; a block is 2 stacked rows of N+1 float32
        # per instance in "full" mode, so CHUNK_ELEMENTS * 4 bytes
        n_items, rows = 2000, 32
        params = init_model(n_items, TrainConfig(embed_dim=4, proxy_count=3, max_len=8, seed=3))
        instances = build_instances(np.random.default_rng(3), 4 * rows, n_items)
        monkeypatch.setattr(evaluator, "CHUNK_ELEMENTS", 2 * (n_items + 1) * rows)
        compute_ranks(params, instances, "repeat", 1.0)  # warm any first-call caches
        tracemalloc.start()
        try:
            compute_ranks(params, instances, "repeat", 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        table = catalog_table(params.items).nbytes
        assert peak < table + 1.5 * evaluator.CHUNK_ELEMENTS * 4

    def test_evaluate_report(self):
        params, instances = self._setup()
        usable = [i for i in instances if i.target not in i.prefix]
        report = evaluate(params, usable, "unseen", ks=(5, 10, 20), tau=1.0)
        assert report.count == len(usable)
        assert 0.0 <= report.recall[5] <= report.recall[10] <= report.recall[20] <= 1.0
        for k in (5, 10, 20):
            assert report.mrr[k] <= report.recall[k]

    def test_no_instances_rejected(self):
        params, _ = self._setup()
        with pytest.raises(MetricError):
            evaluate(params, [], "unseen")

    def test_bad_mode_rejected(self):
        params, instances = self._setup()
        with pytest.raises(ConfigError):
            compute_ranks(params, instances[:1], "unseen", 1.0, mode="nope")

    def test_bad_task_rejected(self):
        # a misspelled task must not fall back to the repeat protocol
        params, instances = self._setup()
        with pytest.raises(ConfigError, match="'Unseen'"):
            compute_ranks(params, instances[:1], "Unseen", 1.0)
        with pytest.raises(ConfigError, match="'Unseen'"):
            evaluate(params, instances[:1], "Unseen")


class TestBatchedRanking:
    @pytest.mark.parametrize("task", ["unseen", "repeat"])
    @pytest.mark.parametrize("mode", SCORING_MODES)
    def test_ranks_equal_per_instance_reference(self, mode, task):
        split = chronological_split(
            planted_corpus(n_users=6, n_items=80, sessions_per_user=12, seed=5)
        )
        tags = sorted({s.user_tag for s in split.train})[:4]
        cfg = TrainConfig(embed_dim=8, proxy_count=5, max_len=50, mode=mode, seed=4)
        params = init_model(split.item_count, cfg, user_tags=tags)
        params.user_bias[1:] = np.random.default_rng(9).normal(size=params.user_bias[1:].shape)
        instances = expand_all(split.test, task, set(tags))
        assert any(i.known_user for i in instances) and not all(i.known_user for i in instances)
        got = compute_ranks(params, instances, task, 0.3, mode=mode)
        np.testing.assert_array_equal(got, reference_ranks(params, instances, task, 0.3, mode))

    @pytest.mark.parametrize("mode", SCORING_MODES)
    def test_copied_item_rows_rank_by_id(self, mode):
        # copies near the end of the catalog fall on the matrix product's
        # tail path, which can round two equal rows to different scores
        rng = np.random.default_rng(0)
        cfg = TrainConfig(embed_dim=15, proxy_count=3, max_len=8, seed=2)
        params = init_model(206, cfg)
        groups = [(118, 204), (3, 206), (40, 120, 205), (77, 203)]
        for group in groups:
            params.items[list(group[1:])] = params.items[group[0]]
        instances = []
        for _ in range(12):
            prefix = tuple(int(x) for x in rng.integers(1, 3, size=int(rng.integers(1, 4))))
            for group in groups:
                instances += [
                    PredictionInstance(prefix=prefix, target=t, parent_items=prefix + (t,))
                    for t in group
                ]
        assert len(instances) <= evaluator.CHUNK_ROWS  # one chunk ranks every tie
        ranks = compute_ranks(params, instances, "unseen", 1.0, mode=mode)
        want = reference_ranks(params, instances, "unseen", 1.0, mode)
        np.testing.assert_array_equal(ranks, want)
        lo = 0
        for _ in range(12):
            for group in groups:
                np.testing.assert_array_equal(np.diff(ranks[lo : lo + len(group)]), 1)
                lo += len(group)

    @pytest.mark.parametrize(
        "target, task, prefix",
        [(0, "repeat", (1,)), (16, "repeat", (1,)), (-1, "repeat", (1,)), (3, "unseen", (2, 3))],
        ids=["padding-row", "past-catalog", "negative", "masked-in-own-prefix"],
    )
    def test_bad_target_in_a_chunk_raises(self, target, task, prefix):
        cfg = TrainConfig(embed_dim=4, proxy_count=3, max_len=8, seed=3)
        params = init_model(15, cfg)
        good = PredictionInstance(prefix=(4,), target=5, parent_items=(4, 5))
        bad = PredictionInstance(prefix=prefix, target=target, parent_items=prefix + (target,))
        with pytest.raises(MetricError, match=f"target id {target} "):
            compute_ranks(params, [good, bad, good], task, 1.0)

    def test_cancelling_mixture_raises_only_at_inference(self):
        cfg = TrainConfig(embed_dim=2, proxy_count=2, max_len=4, negatives=2, seed=1)
        params = init_model(6, cfg)
        named = params.named()
        named["proxies"][:] = [[0.5, 0.0], [-0.5, 0.0]]
        named["normals"][:] = [[0.0, 1.0], [0.0, -1.0]]
        named["sel_w2"][:] = 0.0  # equal logits: pi = (1/2, 1/2) cancels both banks
        inst = PredictionInstance(prefix=(1, 2), target=3, parent_items=(1, 2, 3))
        with pytest.raises(DegenerateProxyError):
            evaluate(params, [inst], "unseen", tau=1.0)
        J, _ = objective([inst], make_leaves(params), 1.0, cfg, np.array([[4, 5]]))
        assert np.isfinite(J.data)


class TestScreen:
    """The float32 screen and the band around each target's exact score."""

    @pytest.fixture(scope="class")
    def corpus(self):
        split = chronological_split(
            planted_corpus(n_users=10, n_items=300, sessions_per_user=30, seed=5)
        )
        tags = sorted({s.user_tag for s in split.train})[:4]
        return split, tags

    def _model(self, corpus, mode, task):
        split, tags = corpus
        cfg = TrainConfig(embed_dim=24, proxy_count=5, max_len=50, mode=mode, seed=4)
        params = init_model(split.item_count, cfg, user_tags=tags)
        params.user_bias[1:] = np.random.default_rng(9).normal(size=params.user_bias[1:].shape)
        return params, expand_all(split.test, task, set(tags))

    @staticmethod
    def _screen_dtypes(monkeypatch):
        """Record the dtype of every table compute_ranks screens against."""
        seen = []

        def spy(q, v, table, mode, masks=None):
            seen.append(table.dtype)
            return catalog_scores(q, v, table, mode, masks)

        monkeypatch.setattr(evaluator, "catalog_scores", spy)
        return seen

    @pytest.mark.parametrize("task", ["unseen", "repeat"])
    @pytest.mark.parametrize("mode", SCORING_MODES)
    def test_near_copies_of_targets_rank_as_exact_scores_say(self, corpus, mode, task, monkeypatch):
        # copies scaled by 1 + 1e-7 N(0,1): closer together than float32 can
        # resolve, yet far outside a 1e-9 relative band
        params, instances = self._model(corpus, mode, task)
        rng = np.random.default_rng(1)
        targets = np.unique([i.target for i in instances])
        free = np.setdiff1d(np.arange(1, params.items.shape[0]), targets)
        src = np.repeat(rng.choice(targets, size=min(40, targets.size), replace=False), 2)
        dst = rng.choice(free, size=src.size, replace=False)
        params.items[dst] = params.items[src] * (1 + 1e-7 * rng.standard_normal((src.size, 1)))
        seen = self._screen_dtypes(monkeypatch)
        got = compute_ranks(params, instances, task, 0.3, mode)
        assert set(seen) == {np.dtype(np.float32)}
        np.testing.assert_array_equal(got, reference_ranks(params, instances, task, 0.3, mode))
        gaps = []
        for inst in instances:
            scores = reference_scores(params, inst, 0.3, task, mode)
            for c in dst[src == inst.target]:
                if np.isfinite(scores[c]):
                    gaps.append(abs(scores[c] / scores[inst.target] - 1))
        assert any(1e-9 < g < 2**-24 for g in gaps)

    @pytest.mark.parametrize("task", ["unseen", "repeat"])
    @pytest.mark.parametrize("mode", SCORING_MODES)
    def test_exact_copies_at_the_catalog_end_rank_by_id(self, corpus, mode, task, monkeypatch):
        params, instances = self._model(corpus, mode, task)
        rng = np.random.default_rng(2)
        targets = np.unique([i.target for i in instances])
        free = np.setdiff1d(np.arange(1, params.items.shape[0]), targets)
        src = rng.choice(targets, size=min(12, targets.size), replace=False)
        params.items[free[-src.size :]] = params.items[src]
        seen = self._screen_dtypes(monkeypatch)
        got = compute_ranks(params, instances, task, 0.3, mode)
        assert set(seen) == {np.dtype(np.float32)}
        np.testing.assert_array_equal(got, reference_ranks(params, instances, task, 0.3, mode))

    @pytest.mark.parametrize("task", ["unseen", "repeat"])
    @pytest.mark.parametrize("mode", SCORING_MODES)
    def test_rows_too_large_for_float32_screen_in_float64(self, corpus, mode, task, monkeypatch):
        # ||x||^2 = 1e80 would overflow a float32 product; no prefix holds
        # these rows, so the forward itself stays finite
        params, instances = self._model(corpus, mode, task)
        used = {i.target for i in instances} | {x for i in instances for x in i.prefix}
        free = np.setdiff1d(np.arange(1, params.items.shape[0]), sorted(used))
        params.items[free[:: max(1, free.size // 6)]] *= 1e40
        seen = self._screen_dtypes(monkeypatch)
        got = compute_ranks(params, instances, task, 0.3, mode)
        assert set(seen) == {np.dtype(np.float64)}
        np.testing.assert_array_equal(got, reference_ranks(params, instances, task, 0.3, mode))

    @settings(max_examples=150, deadline=None)
    @given(
        d=st.integers(1, 128),
        q_exp=st.floats(-6, 6),
        x_exp=st.floats(-6, 6),
        seed=st.integers(0, 2**32 - 1),
        mode=st.sampled_from(SCORING_MODES),
    )
    def test_screened_entries_lie_within_the_band(self, d, q_exp, x_exp, seed, mode):
        rng = np.random.default_rng(seed)
        q = rng.standard_normal((4, d)) * 10.0**q_exp
        v = rng.standard_normal((4, d))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        items = rng.standard_normal((40, d)) * 10.0**x_exp
        items *= 10.0 ** rng.uniform(-2, 0, size=(40, 1))  # rows of many sizes
        items[1:6] = q[0] * (1 + 1e-3 * rng.standard_normal((5, d)))  # near the query
        items[0] = 0.0
        table = catalog_table(items)
        x_max = float(table[:, -2].max())
        exact = distance(q[:, None, :], project(items[None, 1:], v, mode), mode)
        for dtype in (np.float32, np.float64):
            screened = catalog_scores(q, v, table.astype(dtype), mode)[:, 1:]
            band = evaluator.screen_band(q, x_max, dtype)
            assert np.all(np.abs(screened.astype(np.float64) - exact) <= band[:, None])


# compute_ranks on a d=64, 2,000-item random model in every mode; prints the ranks
_RANKS = """
import json
import numpy as np
from proxyrec.data import PredictionInstance
from proxyrec.evaluator import compute_ranks
from proxyrec.scoring import SCORING_MODES
from proxyrec.trainer import TrainConfig, init_model
params = init_model(2000, TrainConfig(embed_dim=64, proxy_count=20, max_len=8, seed=3))
rng = np.random.default_rng(3)
instances = []
for _ in range(600):
    session = tuple(int(x) for x in rng.integers(1, 2001, size=int(rng.integers(2, 7))))
    instances.append(PredictionInstance(prefix=session[:-1], target=session[-1],
                                        parent_items=session))
print(json.dumps({m: compute_ranks(params, instances, "repeat", 0.5, m).tolist()
                  for m in SCORING_MODES}))
"""

_USABLE_CORES = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


@pytest.mark.skipif((_USABLE_CORES or 1) < 2, reason="needs 2 usable cores")
def test_blas_thread_count_does_not_change_the_ranks():
    src = str(Path(evaluator.__file__).parents[1])
    ranks = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        run = subprocess.run(
            [sys.executable, "-c", _RANKS], env=env, capture_output=True, text=True,
            timeout=300, check=True,
        )
        ranks.append(json.loads(run.stdout))
    for mode in SCORING_MODES:
        np.testing.assert_array_equal(ranks[0][mode], ranks[1][mode])
