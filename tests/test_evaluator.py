"""Ranking metrics and the inference scoring path."""

import numpy as np
import pytest

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
from proxyrec.scoring import SCORING_MODES, catalog_scores, catalog_table, session_state
from proxyrec.synth import planted_corpus
from proxyrec.trainer import TrainConfig, init_model, make_leaves, objective
from reference import rank_of_target, reference_ranks


def score_instance(params, instance, tau, task, mode="full"):
    """One instance's catalog row through the batched inference forward."""
    leaves = {name: Tensor(arr) for name, arr in params.named().items()}
    _, v, q = session_state([instance], params.bias_rows([instance]), leaves, tau, mode, True)
    masks = [instance.prefix] if task == "unseen" else None
    vd = None if v is None else v.data
    return catalog_scores(q.data, vd, catalog_table(params.items), mode, masks)[0]


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
        for rows in (1, 3, 7):  # 16 catalog rows: CHUNK_ELEMENTS // 16 == rows
            monkeypatch.setattr(evaluator, "CHUNK_ELEMENTS", 16 * rows)
            np.testing.assert_array_equal(compute_ranks(params, usable, "unseen", 1.0), whole)

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
