"""Training loop: objective graph, Adam, constraints, checkpoints, resume."""

import ctypes
import dataclasses
import importlib
import json
import os
import platform
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from proxyrec import evaluator as evaluator_module
from proxyrec import trainer as trainer_module
from proxyrec.data import (
    PredictionInstance,
    Session,
    chronological_split,
    expand_all,
    sample_negatives,
)
from proxyrec.autodiff import Tensor
from proxyrec.cli import main
from proxyrec.errors import CheckpointError, ConfigError, DataError, LengthError
from proxyrec.evaluator import MetricsReport
from proxyrec.scoring import mode_terms
from proxyrec.selector import temperature
from proxyrec.synth import planted_corpus
from proxyrec.trainer import (
    AdamState,
    TrainConfig,
    adam_step,
    fit,
    init_model,
    load_checkpoint,
    make_leaves,
    objective,
    project_constraints,
    save_checkpoint,
    train_epoch,
)
from gradcheck import finite_difference_check
from reference import (
    hinge_term,
    reference_adam_step,
    reference_objective,
    reference_project_constraints,
)


def small_cfg(**over) -> TrainConfig:
    base = dict(
        embed_dim=4, proxy_count=3, max_len=6, batch_size=8, epochs=3,
        negatives=2, seed=1, learning_rate=0.01,
    )
    base.update(over)
    return TrainConfig(**base)


def make_instances(rng, n, n_items, max_parent=5, tags=("u1", "u2"), known=False):
    out = []
    for _ in range(n):
        length = int(rng.integers(2, max_parent + 1))
        parent = tuple(int(x) for x in rng.integers(1, n_items + 1, size=length))
        t = int(rng.integers(2, length + 1))
        out.append(
            PredictionInstance(
                prefix=parent[: t - 1],
                target=parent[t - 1],
                parent_items=parent,
                user_tag=str(rng.choice(tags)),
                known_user=known and bool(rng.integers(0, 2)),
            )
        )
    return out


class TestObjective:
    @pytest.mark.parametrize(
        "mode", ["full", "proxy_only", "short_only", "no_projection", "dot_product"]
    )
    def test_batched_graph_matches_per_instance_reference(self, mode):
        cfg = small_cfg(mode=mode)
        rng = np.random.default_rng(42)
        params = init_model(10, cfg, user_tags=["u1", "u2"])
        params.user_bias[1:] = rng.normal(size=params.user_bias[1:].shape) * 0.1
        instances = make_instances(rng, 7, 10, known=True)
        negs = np.stack([rng.integers(1, 11, size=cfg.negatives) for _ in instances])
        bias_rows = [params.bias_row(i.user_tag) if i.known_user else 0 for i in instances]

        leaves = make_leaves(params)
        J, parts = objective(instances, leaves, 0.7, cfg, negs, bias_rows)
        expect = reference_objective(instances, params, 0.7, cfg, negs)
        assert float(J.data) == pytest.approx(expect, rel=1e-10)
        assert parts["loss"] == pytest.approx(expect, rel=1e-10)

    def test_gradients_match_finite_differences(self):
        cfg = small_cfg()
        rng = np.random.default_rng(5)
        params = init_model(8, cfg, user_tags=["u1"])
        params.user_bias[1] = rng.normal(size=cfg.proxy_count) * 0.1
        instances = make_instances(rng, 4, 8, known=True)
        negs = np.stack([rng.integers(1, 9, size=cfg.negatives) for _ in instances])
        bias_rows = [params.bias_row(i.user_tag) if i.known_user else 0 for i in instances]
        leaves = make_leaves(params)

        report = finite_difference_check(
            lambda: objective(instances, leaves, 1.0, cfg, negs, bias_rows)[0],
            leaves,
            h=1e-5,
        )
        assert report.ok(1e-4), report.max_rel_err

    @pytest.mark.parametrize(
        "mode", ["full", "proxy_only", "short_only", "no_projection", "dot_product"]
    )
    @pytest.mark.parametrize("lambdas", [(0.1, 0.1), (0.0, 0.1), (0.1, 0.0)],
                             ids=["both", "no-dist", "no-orthog"])
    def test_items_gradient_sums_in_the_walk_order(self, mode, lambdas, monkeypatch):
        # floating point addition does not associate, so the items table's
        # gradient keeps its bits only if its four contributions arrive in
        # one order, the same with either lambda at zero: the negatives'
        # gather, the encoder, the targets' gather, then the selector
        cfg = small_cfg(mode=mode, lambda_dist=lambdas[0], lambda_orthog=lambdas[1])
        rng = np.random.default_rng(14)
        params = init_model(10, cfg, user_tags=["u1", "u2"])
        instances = make_instances(rng, 6, 10, known=True)
        negs = np.stack([rng.integers(1, 11, size=cfg.negatives) for _ in instances])
        leaves = make_leaves(params)
        named = {
            "negatives": negs.tobytes(),
            "targets": np.array([i.target for i in instances]).tobytes(),
            "encoder": np.concatenate([i.prefix for i in instances]).tobytes(),
            "selector": np.concatenate([i.parent_items for i in instances]).tobytes(),
        }
        seen = []
        accum_rows = Tensor.accum_rows

        def spy(self, index, g):
            if self is leaves["items"]:
                seen.append(next(n for n, b in named.items()
                                 if np.asarray(index, dtype=np.int64).tobytes() == b))
            accum_rows(self, index, g)

        monkeypatch.setattr(Tensor, "accum_rows", spy)
        J, _ = objective(instances, leaves, 0.7, cfg, negs, params.bias_rows(instances))
        J.backward()
        terms = mode_terms(mode)
        drop = {"encoder"} if not terms.short else {"selector"} if not terms.proxy else set()
        assert seen == [n for n in ("negatives", "encoder", "targets", "selector")
                        if n not in drop]

    @pytest.mark.parametrize("mode,lambda_orthog,read", [
        ("no_projection", 0.0, False),
        ("no_projection", 0.1, True),
        ("full", 0.0, True),
        ("proxy_only", 0.0, True),
    ])
    def test_normals_get_a_gradient_only_where_the_loss_reads_v(self, mode, lambda_orthog, read):
        # without projections and the orthogonality term J reads v nowhere:
        # the selection tail's normal branch runs on a zero gradient
        cfg = small_cfg(mode=mode, lambda_orthog=lambda_orthog)
        rng = np.random.default_rng(21)
        params = init_model(10, cfg, user_tags=["u1", "u2"])
        instances = make_instances(rng, 6, 10, known=True)
        negs = np.stack([rng.integers(1, 11, size=cfg.negatives) for _ in instances])
        leaves = make_leaves(params)
        J, _ = objective(instances, leaves, 0.7, cfg, negs, params.bias_rows(instances))
        J.backward()
        # exactly zero where J reads v nowhere, nonzero elsewhere
        assert leaves["normals"].grad.any() == read
        assert leaves["proxies"].grad.any()

    def test_telemetry_parts(self):
        cfg = small_cfg()
        rng = np.random.default_rng(6)
        params = init_model(8, cfg)
        instances = make_instances(rng, 5, 8)
        negs = np.stack([rng.integers(1, 9, size=cfg.negatives) for _ in instances])
        J, parts = objective(instances, make_leaves(params), 1.0, cfg, negs)
        assert parts["hinge"] >= 0
        assert parts["reg_dist"] >= 0
        assert parts["reg_orthog"] >= 0
        assert parts["loss"] == pytest.approx(
            parts["hinge"] + cfg.lambda_dist * parts["reg_dist"]
            + cfg.lambda_orthog * parts["reg_orthog"],
            rel=1e-12,
        )

    def test_empty_batch_rejected(self):
        cfg = small_cfg()
        params = init_model(8, cfg)
        with pytest.raises(DataError):
            objective([], make_leaves(params), 1.0, cfg, np.zeros((0, 2), dtype=np.int64))

    def test_negative_shape_mismatch_rejected(self):
        cfg = small_cfg()
        rng = np.random.default_rng(7)
        params = init_model(8, cfg)
        instances = make_instances(rng, 3, 8)
        with pytest.raises(ConfigError):
            objective(instances, make_leaves(params), 1.0, cfg, np.ones((3, 5), dtype=np.int64))

    def test_overlong_prefix_rejected(self):
        cfg = small_cfg()  # max_len 6
        params = init_model(8, cfg)
        parent = tuple([1] * 9)
        inst = PredictionInstance(prefix=parent[:8], target=2, parent_items=parent)
        with pytest.raises(LengthError):
            objective([inst], make_leaves(params), 1.0, cfg, np.ones((1, 2), dtype=np.int64))


class TestHinge:
    def test_values(self):
        assert hinge_term(2.0, 1.0, 0.5) == 1.5
        assert hinge_term(1.0, 2.0, 0.5) == 0.0
        assert hinge_term(1.0, 1.5, 0.5) == 0.0  # exactly at the margin
        assert hinge_term(1.0, 1.0, 0.5) == 0.5


class TestAdam:
    def test_matches_independent_recurrence(self):
        rng = np.random.default_rng(8)
        p = rng.normal(size=(3, 2))
        named = {"w": p.copy()}
        state = AdamState.zeros(named)
        grads_seq = [rng.normal(size=(3, 2)) for _ in range(5)]
        for g in grads_seq:
            adam_step(named, {"w": g}, state, lr=0.05)

        # independent recurrence, scalar by scalar
        m = np.zeros((3, 2))
        v = np.zeros((3, 2))
        q = p.copy()
        for t, g in enumerate(grads_seq, start=1):
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            mhat = m / (1 - 0.9**t)
            vhat = v / (1 - 0.999**t)
            q = q - 0.05 * mhat / (np.sqrt(vhat) + 1e-8)
        np.testing.assert_allclose(named["w"], q, atol=1e-12)
        assert state.step == 5

    def test_first_step_size_is_lr(self):
        # bias correction makes the first step lr * g/|g| (up to eps)
        named = {"w": np.array([1.0])}
        state = AdamState.zeros(named)
        adam_step(named, {"w": np.array([7.0])}, state, lr=0.1)
        assert named["w"][0] == pytest.approx(0.9, abs=1e-7)


    @pytest.mark.parametrize(
        "shape",
        [(6, 3), (5,), (2500, 16), (3, 20_000)],
        ids=["table", "bias", "blocks-of-rows", "rows-wider-than-a-block"],
    )
    def test_bit_equal_to_out_of_place_form(self, shape):
        rng = np.random.default_rng(21)
        p = rng.normal(size=shape)
        ours, theirs = {"w": p.copy()}, {"w": p.copy()}
        ours_state, theirs_state = AdamState.zeros(ours), AdamState.zeros(theirs)
        for _ in range(5):
            g = rng.normal(size=shape)
            g[0] = -0.0  # a signed zero gradient takes the same path
            adam_step(ours, {"w": g}, ours_state, lr=0.05)
            reference_adam_step(theirs, {"w": g}, theirs_state, lr=0.05)
            for a, b in ((ours, theirs), (ours_state.m, theirs_state.m),
                         (ours_state.v, theirs_state.v)):
                assert a["w"].tobytes() == b["w"].tobytes()
        assert ours_state.step == theirs_state.step == 5


def _allocated_peak(fn) -> int:
    """Peak bytes traced while fn runs, after one warm-up call."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestNoTableSizedTemporaries:
    """After a warm-up, the update reuses its buffers."""

    def setup_method(self):
        self.params = init_model(2000, small_cfg(embed_dim=16, proxy_count=8))
        self.table_bytes = self.params.items.nbytes

    def test_adam_step(self):
        named = self.params.named()
        grads = {k: np.full_like(a, 1e-3) for k, a in named.items()}
        state = AdamState.zeros(named)
        peak = _allocated_peak(lambda: adam_step(named, grads, state, lr=1e-3))
        assert peak < self.table_bytes


class TestConstraints:
    def test_rows_clipped_and_normals_unit(self):
        cfg = small_cfg()
        params = init_model(8, cfg)
        params.items[3] = np.array([3.0, 0.0, 0.0, 0.0])
        params.items[4] = np.array([0.1, 0.0, 0.2, 0.0])
        named = params.named()
        named["proxies"][0] = np.full(4, 2.0)
        named["normals"][1] = np.array([0.0, 5.0, 0.0, 0.0])
        params.user_bias[0] = 9.9
        before_small = params.items[4].copy()
        project_constraints(params)
        assert np.linalg.norm(params.items[3]) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_array_equal(params.items[4], before_small)  # inside: untouched
        assert np.linalg.norm(named["proxies"][0]) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(named["normals"][1], [0.0, 1.0, 0.0, 0.0], atol=1e-15)
        assert (params.user_bias[0] == 0.0).all()

    def test_bit_equal_to_linalg_norm_form(self):
        cfg = small_cfg(proxy_count=5)
        ours = init_model(30, cfg, user_tags=["x"])
        rng = np.random.default_rng(4)
        named = ours.named()
        for name in ("items", "proxies", "normals"):
            named[name][:] = rng.normal(size=named[name].shape)
        named["items"][1] = [1.0, 0.0, 0.0, 0.0]  # at norm 1: left alone
        named["items"][2] = [0.6, 0.8, 0.0, 0.0]
        named["items"][3] *= 1e-3  # well inside
        named["proxies"][0] = [0.0, -1.0, 0.0, 0.0]
        named["user_bias"][0] = 2.0
        theirs = ours.copy()
        project_constraints(ours)
        reference_project_constraints(theirs.named())
        for name, arr in ours.named().items():
            assert arr.tobytes() == theirs.named()[name].tobytes(), name

    def test_init_is_deterministic_and_constrained(self):
        cfg = small_cfg(seed=9)
        a = init_model(15, cfg, user_tags=["x"])
        b = init_model(15, cfg, user_tags=["x"])
        for k, arr in a.named().items():
            np.testing.assert_array_equal(arr, b.named()[k])
        c = init_model(15, small_cfg(seed=10), user_tags=["x"])
        assert any((a.named()[k] != c.named()[k]).any() for k in ("items", "proxies"))
        assert (a.items[0] == 0.0).all()
        np.testing.assert_allclose(np.linalg.norm(a.named()["normals"], axis=1), 1.0, atol=1e-12)
        assert np.linalg.norm(a.items, axis=1).max() <= 1.0 + 1e-12
        assert a.user_bias.shape == (2, cfg.proxy_count)
        assert (a.user_bias == 0.0).all()
        b1 = a.named()["enc_b1"]
        assert b1.shape == (4,) and (b1 == 0.0).all()


def tiny_sessions(n=40, n_items=12, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        length = int(rng.integers(3, 6))
        items = tuple(int(x) for x in rng.integers(1, n_items + 1, size=length))
        out.append(Session(items=items, start_ts=i * 1000, user_tag=f"u{i % 3}"))
    return out


class TestEpochLoop:
    def test_epoch_is_deterministic(self):
        rng = np.random.default_rng(11)
        instances = make_instances(rng, 12, 9)

        def run(cfg):
            params = init_model(9, cfg)
            leaves = make_leaves(params)
            adam = AdamState.zeros(params.named())
            stats = train_epoch(instances, params, leaves, adam, cfg, epoch=0, tau=1.0)
            return params, stats

        # the default lambdas, then either one at zero
        for lambda_dist, lambda_orthog in ((0.1, 0.1), (0.0, 0.1), (0.1, 0.0)):
            cfg = small_cfg(batch_size=4, negatives=2, lambda_dist=lambda_dist,
                            lambda_orthog=lambda_orthog)
            p1, s1 = run(cfg)
            p2, s2 = run(cfg)
            for k, arr in p1.named().items():
                assert arr.tobytes() == p2.named()[k].tobytes(), (cfg, k)
            assert s1 == s2
            assert np.isfinite(s1["loss"])
            assert s1["grad_norm"] > 0

    def test_updates_move_parameters(self):
        cfg = small_cfg(batch_size=4)
        rng = np.random.default_rng(12)
        instances = make_instances(rng, 12, 9)
        params = init_model(9, cfg)
        before = params.items.copy()
        leaves = make_leaves(params)
        train_epoch(instances, params, leaves, AdamState.zeros(params.named()), cfg, 0, 1.0)
        assert (params.items != before).any()
        assert (params.items[0] == 0.0).all()  # padding row never trained

    def test_second_epoch_lowers_mean_loss_on_planted_corpus(self):
        corpus = planted_corpus(
            n_users=5, n_items=50, sessions_per_user=20, owners_per_item=2, seed=3
        )
        split = chronological_split(corpus)
        cfg = small_cfg(embed_dim=16, proxy_count=6, batch_size=64, max_len=50)
        instances = expand_all(split.train, cfg.task, set())
        params = init_model(split.item_count, cfg)
        leaves = make_leaves(params)
        adam = AdamState.zeros(params.named())
        sched = cfg.schedule()
        first = train_epoch(instances, params, leaves, adam, cfg, 0, temperature(0, sched))
        second = train_epoch(instances, params, leaves, adam, cfg, 1, temperature(1, sched))
        assert second["loss"] < first["loss"]

    def test_epoch_matches_a_stepwise_reference(self):
        # the reference makes fresh leaves every batch, so a gradient left
        # over from an earlier batch, or an unpinned anonymous row, differs
        cfg = small_cfg(batch_size=4)
        rng = np.random.default_rng(14)
        instances = make_instances(rng, 14, 9, known=True)  # 4 batches, the last of 2
        assert {i.known_user for i in instances} == {True, False}
        ours = init_model(9, cfg, user_tags=["u1", "u2"])
        theirs = ours.copy()
        ours_adam = AdamState.zeros(ours.named())
        theirs_adam = AdamState.zeros(theirs.named())
        epoch, tau = 1, 0.8
        stats = train_epoch(instances, ours, make_leaves(ours), ours_adam, cfg, epoch, tau)

        stream = np.random.default_rng([cfg.seed, trainer_module._STREAM_EPOCH, epoch])
        perm = stream.permutation(len(instances))
        loss = 0.0
        for start in range(0, len(instances), cfg.batch_size):
            batch = [instances[i] for i in perm[start : start + cfg.batch_size]]
            targets = np.array([i.target for i in batch], dtype=np.int64)
            negs = sample_negatives(targets, theirs.item_count, cfg.negatives, stream)
            leaves = make_leaves(theirs)
            J, parts = objective(batch, leaves, tau, cfg, negs, theirs.bias_rows(batch))
            J.backward()
            grads = {name: t.grad for name, t in leaves.items()}
            grads["user_bias"][0] = 0.0
            reference_adam_step(theirs.named(), grads, theirs_adam, cfg.learning_rate)
            reference_project_constraints(theirs.named())
            loss += parts["loss"]

        assert stats["batches"] == theirs_adam.step == ours_adam.step == 4
        assert stats["loss"] == loss / len(instances)
        for name, arr in ours.named().items():
            assert arr.tobytes() == theirs.named()[name].tobytes(), name
            assert ours_adam.m[name].tobytes() == theirs_adam.m[name].tobytes(), name
            assert ours_adam.v[name].tobytes() == theirs_adam.v[name].tobytes(), name

    def test_anonymous_bias_row_stays_pinned(self):
        cfg = small_cfg(batch_size=4)
        rng = np.random.default_rng(13)
        params = init_model(9, cfg, user_tags=["u1", "u2"])
        instances = make_instances(rng, 12, 9, known=True)
        # force at least one flagged instance
        instances[0] = PredictionInstance(
            prefix=(1, 2), target=3, parent_items=(1, 2, 3), user_tag="u1", known_user=True
        )
        leaves = make_leaves(params)
        train_epoch(instances, params, leaves, AdamState.zeros(params.named()), cfg, 0, 1.0)
        assert (params.user_bias[0] == 0.0).all()
        assert (params.user_bias[1] != 0.0).any()


class TestFit:
    def test_early_stopping_and_best_snapshot(self):
        sessions = tiny_sessions()
        split = chronological_split(sessions)
        cfg = small_cfg(epochs=30, patience=2, batch_size=8, proxy_count=3)
        result = fit(split, cfg)
        assert len(result.history) < 30  # patience kicked in
        vals = [h["val_recall20"] for h in result.history]
        assert result.val_recall20 == max(vals)
        assert result.epoch == int(np.argmax(vals))
        assert result.tau == result.history[result.epoch]["tau"]

    def test_snapshot_keeps_the_best_epochs_bytes(self, monkeypatch):
        # validation recall is scripted, so epoch 1 is best and epoch 2 worse;
        # fit looks proxyrec.evaluator.evaluate up per call
        def scripted(*recalls):
            it = iter(recalls)
            return lambda *args, **kwargs: MetricsReport({20: next(it)}, {20: 0.0}, 1)

        split = chronological_split(tiny_sessions())
        cfg = small_cfg(epochs=3, patience=3)
        monkeypatch.setattr(evaluator_module, "evaluate", scripted(0.1, 0.3, 0.2))
        result = fit(split, cfg, [])
        assert (result.epoch, result.val_recall20, len(result.history)) == (1, 0.3, 3)
        assert result.tau == result.history[1]["tau"]
        # the live state of a fit that stops after epoch 1
        params = init_model(split.item_count, cfg, [])
        adam = AdamState.zeros(params.named())
        monkeypatch.setattr(evaluator_module, "evaluate", scripted(0.1, 0.3))
        fit(split, dataclasses.replace(cfg, epochs=2), [], params=params, adam=adam)
        assert result.adam.step == adam.step
        for got, want in (
            (result.params.named(), params.named()),
            (result.adam.m, adam.m),
            (result.adam.v, adam.v),
        ):
            assert got.keys() == want.keys()
            for name in want:
                assert got[name].tobytes() == want[name].tobytes(), name

    def test_start_epoch_past_the_last_is_rejected(self):
        split = chronological_split(tiny_sessions())
        with pytest.raises(ConfigError):
            fit(split, TrainConfig(epochs=2), [], start_epoch=2)

    def test_fit_looks_up_evaluate_once_per_epoch(self, monkeypatch):
        # the benchmark imports these layers by name and times validation by
        # replacing proxyrec.evaluator.evaluate, which fit must look up per call
        layers = {
            name: importlib.import_module(f"proxyrec.{name}")
            for name in (
                "data", "trainer", "autodiff", "selector", "encoder", "scoring", "evaluator"
            )
        }
        real = layers["evaluator"].evaluate
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[4])  # tau
            return real(*args, **kwargs)

        monkeypatch.setattr(layers["evaluator"], "evaluate", counted)
        cfg = small_cfg(epochs=3, patience=3)
        result = layers["trainer"].fit(chronological_split(tiny_sessions()), cfg)
        assert len(calls) == len(result.history) == 3
        assert calls == [h["tau"] for h in result.history]

    def test_fit_requires_instances(self):
        sessions = tiny_sessions(n=6)
        split = chronological_split(sessions)
        cfg = small_cfg(epochs=2, max_len=1)  # expansion impossible at this cap
        with pytest.raises((DataError, LengthError)):
            fit(split, cfg)


class TestCheckpoint:
    def test_roundtrip_bitwise(self, tmp_path):
        cfg = small_cfg()
        params = init_model(9, cfg, user_tags=["a", "b"])
        adam = AdamState.zeros(params.named())
        adam.step = 17
        adam.m["items"][2, 1] = 0.25
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(path, params, adam, epoch=4, tau=0.3, cfg=cfg)

        loaded, adam2, meta = load_checkpoint(path)
        for k, arr in params.named().items():
            np.testing.assert_array_equal(arr, loaded.named()[k])
        np.testing.assert_array_equal(adam.m["items"], adam2.m["items"])
        assert adam2.step == 17
        assert meta["epoch"] == 4
        assert meta["tau"] == 0.3
        assert meta["user_tags"] == ["a", "b"]
        assert meta["config"]["embed_dim"] == cfg.embed_dim
        assert loaded.bias_row("b") == 2

    def test_identical_state_identical_bytes(self, tmp_path):
        cfg = small_cfg()
        params = init_model(9, cfg)
        adam = AdamState.zeros(params.named())
        p1, p2 = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
        save_checkpoint(p1, params, adam, 0, 3.0, cfg)
        save_checkpoint(p2, params, adam, 0, 3.0, cfg)
        assert Path(p1).read_bytes() == Path(p2).read_bytes()

    def test_corruption_detected(self, tmp_path):
        cfg = small_cfg()
        params = init_model(9, cfg)
        adam = AdamState.zeros(params.named())
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(path, params, adam, 0, 3.0, cfg)
        raw = Path(path).read_bytes()

        bad_magic = str(tmp_path / "bad1.ckpt")
        Path(bad_magic).write_bytes(b"XXXX" + raw[4:])
        with pytest.raises(CheckpointError):
            load_checkpoint(bad_magic)

        truncated = str(tmp_path / "bad2.ckpt")
        Path(truncated).write_bytes(raw[: len(raw) // 2])
        with pytest.raises(CheckpointError):
            load_checkpoint(truncated)

        trailing = str(tmp_path / "bad3.ckpt")
        Path(trailing).write_bytes(raw + b"\x00")
        with pytest.raises(CheckpointError):
            load_checkpoint(trailing)

    def test_flipped_bit_detected(self, tmp_path):
        cfg = small_cfg()
        params = init_model(9, cfg)
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(path, params, AdamState.zeros(params.named()), 0, 3.0, cfg)
        raw = Path(path).read_bytes()
        meta_at = raw.index(b'"adam_step"')
        # a byte of the meta, and one of the last tensor block's float data
        for where, at in (("meta", meta_at), ("tensor", len(raw) - 12)):
            flipped = bytearray(raw)
            flipped[at] ^= 0x04
            bad = tmp_path / f"flip_{where}.ckpt"
            bad.write_bytes(bytes(flipped))
            with pytest.raises(CheckpointError, match=f"checksum mismatch in {where}"):
                load_checkpoint(str(bad))

    def test_version_1_is_refused(self, tmp_path, capsys):
        # version 1 carried no checksums, so a damaged file would load unseen
        cfg = small_cfg()
        params = init_model(9, cfg, user_tags=["a"])
        adam = AdamState.zeros(params.named())
        tensors = dict(params.named())
        tensors.update({f"adam.m.{k}": a for k, a in adam.m.items()})
        tensors.update({f"adam.v.{k}": a for k, a in adam.v.items()})
        # the meta fields the version 1 writer stored
        meta = json.dumps({"epoch": 1, "tau": 0.5, "adam_step": 3, "item_count": 9,
                           "user_tags": ["a"], "config": dataclasses.asdict(cfg)}).encode()
        # version 1: no checksums after the meta or the tensor blocks
        raw = [b"PXRC", struct.pack("<IQ", 1, len(meta)), meta, struct.pack("<Q", len(tensors))]
        for name in sorted(tensors):
            arr = np.ascontiguousarray(tensors[name], dtype="<f8")
            raw += [struct.pack("<H", len(name)), name.encode(), struct.pack("<B", arr.ndim)]
            raw += [struct.pack("<Q", n) for n in arr.shape] + [arr.tobytes()]
        path = tmp_path / "v1.ckpt"
        path.write_bytes(b"".join(raw))
        with pytest.raises(CheckpointError, match="format version 1, expected 2"):
            load_checkpoint(str(path))
        assert main(["evaluate", "--checkpoint", str(path), "--data", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "format version 1" in err and "Traceback" not in err

    def test_failed_write_keeps_the_old_file(self, tmp_path, monkeypatch):
        cfg = small_cfg()
        params = init_model(9, cfg)
        adam = AdamState.zeros(params.named())
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), params, adam, 0, 3.0, cfg)
        before = path.read_bytes()

        def crash(fd):
            raise OSError("disk gone")

        monkeypatch.setattr(trainer_module.os, "fsync", crash)
        with pytest.raises(OSError, match="disk gone"):
            save_checkpoint(str(path), params, adam, 5, 0.1, cfg)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["model.ckpt"]

    def test_missing_adam_tensors_detected(self, tmp_path):
        cfg = small_cfg()
        params = init_model(9, cfg)
        path = str(tmp_path / "no_adam.ckpt")
        save_checkpoint(path, params, AdamState(m={}, v={}), 0, 3.0, cfg)
        with pytest.raises(CheckpointError, match="adam"):
            load_checkpoint(path)

    def test_resume_replays_uninterrupted_run(self, tmp_path):
        cfg = small_cfg(batch_size=4, negatives=2, seed=21)
        rng = np.random.default_rng(14)
        instances = make_instances(rng, 16, 9)

        def epochs(params, adam, lo, hi):
            leaves = make_leaves(params)
            for e in range(lo, hi):
                train_epoch(instances, params, leaves, adam, cfg, e, tau=1.0)

        # straight-through run
        pa = init_model(9, cfg)
        aa = AdamState.zeros(pa.named())
        epochs(pa, aa, 0, 4)

        # interrupted at epoch 2, checkpointed, resumed in a fresh object graph
        pb = init_model(9, cfg)
        ab = AdamState.zeros(pb.named())
        epochs(pb, ab, 0, 2)
        path = str(tmp_path / "mid.ckpt")
        save_checkpoint(path, pb, ab, epoch=2, tau=1.0, cfg=cfg)
        pc, ac, meta = load_checkpoint(path)
        epochs(pc, ac, meta["epoch"], 4)

        for k, arr in pa.named().items():
            np.testing.assert_array_equal(arr, pc.named()[k])
        assert aa.step == ac.step


# three Adam steps at d=64, K=100; prints a digest of every parameter's bytes
_STEPS = """
import hashlib
from proxyrec.data import expand_all
from proxyrec.synth import planted_corpus
from proxyrec.trainer import AdamState, TrainConfig, init_model, make_leaves, train_epoch
cfg = TrainConfig(embed_dim=64, proxy_count=100, batch_size=128)
instances = expand_all(planted_corpus(sessions_per_user=10), "repeat")[: 3 * cfg.batch_size]
params = init_model(500, cfg)
train_epoch(instances, params, make_leaves(params), AdamState.zeros(params.named()), cfg, 0, 1.0)
print(hashlib.sha256(b"".join(a.tobytes() for a in params.named().values())).hexdigest())
"""


_USABLE_CORES = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


@pytest.mark.skipif((_USABLE_CORES or 1) < 2, reason="needs 2 usable cores")
@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 5: OpenBLAS splits the weight-gradient GEMMs by thread count",
)
def test_blas_thread_count_does_not_change_the_trained_bytes():
    src = str(Path(trainer_module.__file__).parents[1])
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        run = subprocess.run(
            [sys.executable, "-c", _STEPS], env=env, capture_output=True, text=True,
            timeout=300, check=True,
        )
        digests.append(run.stdout.strip())
    assert digests[0] == digests[1]


# a 2-epoch fit of a long_sessions-shaped corpus (sessions of 10 to 50 items,
# d=32, K=30, batches of 128); prints a digest of the trained parameters, the
# epoch stats and each epoch's minor page faults per batch. With argument
# "noop", fit leaves malloc's thresholds as they are.
_FIT = """
import hashlib, json, resource, sys
from proxyrec import trainer
from proxyrec.data import chronological_split
from proxyrec.synth import planted_corpus
if sys.argv[1:] == ["noop"]:
    trainer._keep_freed_heap = lambda: None
corpus = planted_corpus(n_users=20, n_items=500, sessions_per_user=20, length_range=(10, 50))
split = chronological_split(corpus)
cfg = trainer.TrainConfig(embed_dim=32, proxy_count=30, learning_rate=0.01, batch_size=128,
                          known_user_ratio=0.5, epochs=2, patience=2, seed=0)
faults = []
epoch = trainer.train_epoch
def counted(*args):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    stats = epoch(*args)
    faults.append((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / stats["batches"])
    return stats
trainer.train_epoch = counted
result = trainer.fit(split, cfg, trainer.pick_known_users(split, cfg))
digest = hashlib.sha256(b"".join(a.tobytes() for a in result.params.named().values()))
print(json.dumps({"digest": digest.hexdigest(), "history": result.history, "faults": faults}))
"""


def _fit_in_subprocess(*args) -> dict:
    src = str(Path(trainer_module.__file__).parents[1])
    run = subprocess.run(
        [sys.executable, "-c", _FIT, *args], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(run.stdout)


def _has_glibc_mallopt() -> bool:
    if not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc":
        return False
    return hasattr(ctypes.CDLL(None), "mallopt")


@pytest.mark.skipif(not _has_glibc_mallopt(), reason="needs Linux with glibc's mallopt")
def test_training_steps_do_not_fault_their_heap_back_in():
    # each batch frees a few MB of graph arrays; fit keeps that memory for
    # the next batch instead of faulting it back in (about 1,550 faults a
    # batch when glibc trims the heap top). A fresh process, so no other
    # test's heap counts
    faults = _fit_in_subprocess()["faults"]
    assert len(faults) == 2
    assert faults[1] <= 100, faults


def test_the_trained_bits_do_not_depend_on_the_allocator_setting():
    # the setting moves where arrays are placed; no kernel may round
    # differently for that
    shipped, untouched = _fit_in_subprocess(), _fit_in_subprocess("noop")
    assert shipped["digest"] == untouched["digest"]
    assert shipped["history"] == untouched["history"]
