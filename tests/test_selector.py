"""Proxy selection: temperature schedule, softmax, mixture assembly."""

import numpy as np
import pytest

from gradcheck import KinkRecorder
from proxyrec.autodiff import Tensor
from proxyrec.data import PredictionInstance
from proxyrec.errors import ConfigError, DegenerateProxyError, LengthError
from proxyrec.selector import (
    AnnealSchedule,
    _chained,
    _packed,
    assemble_proxy,
    select,
    selection_distribution as batched_distribution,
    selection_logits,
    temperature,
)
from proxyrec.trainer import TrainConfig, init_model

DEFAULT = AnnealSchedule(3.0, 0.01, 10)


def selection_distribution(logits, tau, bias=None):
    """One distribution through the batched softmax."""
    b = None if bias is None else np.asarray(bias)[None]
    return batched_distribution(np.asarray(logits)[None], tau, b)[0]


def proxy_and_gamma(pi, proxies, strict=True):
    """One assembled proxy and its rescaling factor ||proxy|| / ||pi @ P||."""
    proxy = assemble_proxy(pi[None], proxies, strict)[0][0]
    combined = np.linalg.norm(pi @ proxies)
    return proxy, float(np.linalg.norm(proxy) / combined) if combined else 0.0


def encode_logits(items, item_table, sel):
    leaves = {name: Tensor(arr) for name, arr in {"items": item_table, **sel}.items()}
    return selection_logits([items], leaves).data[0]


class TestTemperature:
    def test_endpoints_exact(self):
        assert temperature(0, DEFAULT) == 3.0
        assert temperature(10, DEFAULT) == 0.01

    def test_halfway_value(self):
        # 3 * (0.01/3)^(1/2) = sqrt(0.03)
        assert temperature(5, DEFAULT) == pytest.approx(0.17320508075688773, abs=1e-9)

    def test_clamped_after_final_epoch(self):
        for epoch in (10, 11, 50, 10_000):
            assert temperature(epoch, DEFAULT) == 0.01

    def test_nonincreasing(self):
        values = [temperature(e, DEFAULT) for e in range(0, 30)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_pinned_schedule_is_constant(self):
        pinned = AnnealSchedule(3.0, 3.0, 10)
        assert all(temperature(e, pinned) == 3.0 for e in range(25))

    def test_negative_epoch_rejected(self):
        with pytest.raises(ConfigError):
            temperature(-1, DEFAULT)

    def test_bad_schedules_rejected(self):
        with pytest.raises(ConfigError):
            AnnealSchedule(0.01, 3.0, 10)  # rising
        with pytest.raises(ConfigError):
            AnnealSchedule(3.0, 0.0, 10)  # non-positive floor
        with pytest.raises(ConfigError):
            AnnealSchedule(3.0, 0.01, 0)  # no epochs
        with pytest.raises(ConfigError):
            AnnealSchedule(float("inf"), 0.01, 10)  # temperature(1) would be inf * 0 = nan


class TestSelectionDistribution:
    def test_two_logit_oracle(self):
        pi = selection_distribution(np.array([1.0, 2.0]), 1.0)
        assert pi[0] == pytest.approx(0.2689414213699951, abs=1e-12)
        assert pi[1] == pytest.approx(0.7310585786300049, abs=1e-12)

    def test_sums_to_one(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            pi = selection_distribution(rng.normal(size=40), float(rng.uniform(0.01, 3)))
            assert pi.sum() == pytest.approx(1.0, abs=1e-12)
            assert (pi >= 0).all()

    def test_temperature_sharpens(self):
        logits = np.array([0.0, 0.1, -0.2, 0.05])
        warm = selection_distribution(logits, 3.0)
        cold = selection_distribution(logits, 0.01)
        assert cold.max() > warm.max()
        assert np.argmax(cold) == np.argmax(logits)

    def test_cold_limit_concentrates(self):
        # runner-up 0.1 behind, everyone else at least 0.2 behind
        rng = np.random.default_rng(3)
        for k in (3, 100, 3000):
            logits = np.full(k, -0.5)
            logits[: k - 2] -= rng.uniform(0.0, 5.0, size=k - 2)
            logits[-1] = 0.0
            logits[-2] = -0.1
            pi = selection_distribution(logits, 0.01)
            assert pi[-1] >= 0.999

    def test_cold_limit_worst_case_bound(self):
        # all competitors exactly at the gap: max mass is 1/(1+(K-1)e^(-gap/tau))
        for k in (3, 100, 3000):
            logits = np.zeros(k)
            logits[1:] = -0.1
            pi = selection_distribution(logits, 0.01)
            bound = 1.0 / (1.0 + (k - 1) * np.exp(-10.0))
            assert pi[0] == pytest.approx(bound, rel=1e-9)

    def test_bias_shifts_distribution(self):
        logits = np.zeros(4)
        bias = np.array([0.0, 2.0, 0.0, 0.0])
        pi = selection_distribution(logits, 1.0, bias)
        ref = selection_distribution(logits + bias, 1.0)
        np.testing.assert_allclose(pi, ref, rtol=0, atol=1e-15)
        assert np.argmax(pi) == 1

    def test_extreme_logits_stay_finite(self):
        pi = selection_distribution(np.array([1e4, 0.0, -1e4]), 0.01)
        assert np.isfinite(pi).all()
        assert pi.sum() == pytest.approx(1.0)

    def test_nonpositive_temperature_rejected(self):
        with pytest.raises(ConfigError):
            selection_distribution(np.zeros(3), 0.0)
        with pytest.raises(ConfigError):
            selection_distribution(np.zeros(3), -1.0)


class TestAssembleProxy:
    def test_two_proxy_oracle(self):
        proxies = np.array([[1.0, 0.0], [0.0, 1.0]])
        proxy, gamma = proxy_and_gamma(np.array([0.5, 0.5]), proxies)
        assert gamma == pytest.approx(np.sqrt(2.0), abs=1e-12)
        np.testing.assert_allclose(proxy, [np.sqrt(0.5), np.sqrt(0.5)], atol=1e-12)
        assert np.linalg.norm(proxy) == pytest.approx(1.0, abs=1e-12)

    def test_norm_identity_random(self):
        # ||proxy|| always equals the pi-weighted sum of row norms
        rng = np.random.default_rng(11)
        for _ in range(500):
            k, d = int(rng.integers(2, 12)), int(rng.integers(2, 9))
            proxies = rng.normal(size=(k, d))
            pi = rng.dirichlet(np.ones(k))
            proxy, _ = proxy_and_gamma(pi, proxies)
            expect = float(pi @ np.linalg.norm(proxies, axis=1))
            assert np.linalg.norm(proxy) == pytest.approx(expect, abs=1e-9)

    def test_one_hot_recovers_row(self):
        rng = np.random.default_rng(5)
        proxies = rng.normal(size=(4, 3))
        pi = np.array([0.0, 0.0, 1.0, 0.0])
        proxy, gamma = proxy_and_gamma(pi, proxies)
        np.testing.assert_allclose(proxy, proxies[2], atol=1e-12)
        assert gamma == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_strict_raises(self):
        with pytest.raises(DegenerateProxyError):
            proxy_and_gamma(np.array([0.5, 0.5]), np.zeros((2, 3)), strict=True)

    def test_degenerate_training_path_is_finite(self):
        proxy, gamma = proxy_and_gamma(np.array([0.5, 0.5]), np.zeros((2, 3)), strict=False)
        assert np.isfinite(proxy).all()
        assert np.isfinite(gamma)

    def test_cancelling_rows_are_degenerate(self):
        proxies = np.array([[1.0, 0.0], [-1.0, 0.0]])
        with pytest.raises(DegenerateProxyError):
            proxy_and_gamma(np.array([0.5, 0.5]), proxies)


class TestEncodeLogits:
    def _tiny(self):
        item_table = np.array(
            [[0.0, 0.0], [0.2, -0.1], [-0.3, 0.4], [0.5, 0.5]]
        )
        sel = {
            "sel_w1": np.array([[0.3, -0.2], [0.1, 0.4]]),
            "sel_w2": np.array([[1.0, 0.0, -1.0], [0.5, -0.5, 2.0]]),
            "sel_pos": np.array([[0.01, 0.02], [-0.05, 0.03], [0.07, -0.01]]),
        }
        return item_table, sel

    def test_hand_loop_oracle(self):
        item_table, sel = self._tiny()
        items = [2, 1, 3]
        got = encode_logits(items, item_table, sel)
        # independent computation, one position at a time
        acc = np.zeros(3)
        for j, it in enumerate(items):
            x = item_table[it] + sel["sel_pos"][j]
            h = x @ sel["sel_w1"]
            h = np.where(h > 0, h, 0.1 * h)
            acc += h @ sel["sel_w2"]
        np.testing.assert_allclose(got, acc / len(items), rtol=0, atol=1e-14)

    def test_position_changes_logits(self):
        item_table, sel = self._tiny()
        a = encode_logits([1, 2], item_table, sel)
        b = encode_logits([2, 1], item_table, sel)
        assert not np.allclose(a, b)

    def test_zero_positions_make_order_irrelevant(self):
        item_table, sel = self._tiny()
        flat = {**sel, "sel_pos": np.zeros_like(sel["sel_pos"])}
        a = encode_logits([1, 2, 3], item_table, flat)
        b = encode_logits([3, 1, 2], item_table, flat)
        np.testing.assert_allclose(a, b, atol=1e-14)

    def test_length_limits(self):
        item_table, sel = self._tiny()
        with pytest.raises(LengthError):
            encode_logits([], item_table, sel)
        with pytest.raises(LengthError):
            encode_logits([1, 2, 3, 1], item_table, sel)  # pos has 3 rows


def test_run_table_holds_only_real_rows():
    ids, positions, lengths, starts = _packed([(5, 6, 7), (9,), (2, 4)], 3, "session")
    np.testing.assert_array_equal(ids, [5, 6, 7, 9, 2, 4])
    np.testing.assert_array_equal(positions, [0, 1, 2, 0, 0, 1])
    np.testing.assert_array_equal(lengths, [3, 1, 2])
    np.testing.assert_array_equal(starts, [0, 3, 4])
    with pytest.raises(LengthError, match="session length 4"):
        _packed([(1,), (1, 2, 3, 4)], 3, "session")


def test_chained_table_holds_each_chain_once():
    seqs = [(5,), (5, 6), (5, 6), (9,), (2, 4), (2,)]
    ids, positions, lengths, starts, rows = _chained(seqs, 3, "session")
    np.testing.assert_array_equal(ids, [5, 6, 9, 2, 4, 2])
    np.testing.assert_array_equal(positions, [0, 1, 0, 0, 1, 0])
    # _packed's runs, each read from its chain's rows
    np.testing.assert_array_equal(lengths, [1, 2, 2, 1, 2, 1])
    np.testing.assert_array_equal(starts, [0, 1, 3, 5, 6, 8])
    np.testing.assert_array_equal(rows, [0, 0, 1, 0, 1, 2, 3, 4, 5])
    packed_ids, packed_positions, _, _ = _packed(seqs, 3, "session")
    np.testing.assert_array_equal(ids[rows], packed_ids)
    np.testing.assert_array_equal(positions[rows], packed_positions)


def both_logits(seqs, named):
    """selection_logits over the same lists: recorded (every leaf requires a
    gradient) and frozen, with the hidden rows each one reported."""
    out = []
    for live in (True, False):
        leaves = {n: Tensor(a, requires_grad=live) for n, a in named.items()}
        with KinkRecorder() as rec:
            logits = selection_logits(seqs, leaves)
        assert logits.requires_grad == live
        out += [logits.data, rec.preacts[0].shape[0]]
    return out


# name -> (sequences, rows the frozen path computes)
CHAINS = {
    "prefix chain": ([(3,), (3, 7), (3, 7, 2), (3, 7, 2, 9)], 4),
    # (3,) after (3, 7) does not start with it, so it opens a chain again
    "chain broken by another session": (
        [(3,), (3, 7), (5, 1), (3, 7, 2), (3, 7, 2, 9), (3,)], 9),
    # the unseen prefixes of (4, 8, 4, 6, 1): (4, 8) is skipped, its target
    # lies in it
    "unseen chain with skipped lengths": ([(4,), (4, 8, 4), (4, 8, 4, 6)], 4),
    "equal sequences back to back": ([(2, 5), (2, 5), (2, 5, 6), (2, 5, 6)], 3),
    "lone one-item prefix": ([(7,)], 1),
}


@pytest.mark.parametrize("name", CHAINS)
def test_frozen_logits_share_a_chains_rows_and_match_the_recorded_op(name):
    seqs, rows = CHAINS[name]
    params = init_model(20, TrainConfig(embed_dim=6, proxy_count=4, max_len=8, seed=3))
    recorded, recorded_rows, frozen, frozen_rows = both_logits(seqs, params.named())
    assert recorded_rows == sum(map(len, seqs))
    assert frozen_rows == rows
    np.testing.assert_allclose(frozen, recorded, rtol=0, atol=1e-12)


def test_frozen_logits_are_the_recorded_bits_at_d32():
    # the long_sessions shape: sessions of 10 to 50 items, every prefix in
    # expand_all's order, then each case above
    cfg = TrainConfig(embed_dim=32, proxy_count=30, max_len=50, seed=5)
    params = init_model(500, cfg)
    rng = np.random.default_rng(6)
    seqs = []
    for _ in range(12):
        parent = tuple(int(i) for i in rng.integers(1, 501, size=int(rng.integers(10, 51))))
        seqs += [parent[:t] for t in range(1, len(parent))]
    for case, _ in CHAINS.values():
        seqs += case
    recorded, _, frozen, rows = both_logits(seqs, params.named())
    assert rows < sum(map(len, seqs)) / 10
    assert frozen.tobytes() == recorded.tobytes()
    # a lone one-item prefix: a product one row high on both paths
    recorded, _, frozen, _ = both_logits([(7,)], params.named())
    assert frozen.tobytes() == recorded.tobytes()


@pytest.mark.parametrize("live", [True, False], ids=["recorded", "frozen"])
def test_an_over_long_session_raises_on_either_path(live):
    params = init_model(20, TrainConfig(embed_dim=6, proxy_count=4, max_len=8, seed=3))
    leaves = {n: Tensor(a, requires_grad=live) for n, a in params.named().items()}
    # the over-long sequence extends the chain before it
    seqs = [(1,), (1, 2), tuple(range(1, 10))]
    with pytest.raises(LengthError, match=r"^session length 9 outside positional table of 8 rows$"):
        selection_logits(seqs, leaves)


class TestSelectionPaths:
    def _model(self):
        cfg = TrainConfig(embed_dim=6, proxy_count=4, max_len=8, seed=3)
        return init_model(20, cfg, user_tags=["u1", "u2"])

    def _pi(self, params, inst, strict):
        leaves = {name: Tensor(arr) for name, arr in params.named().items()}
        pi, _ = select([inst], params.bias_rows([inst]), leaves, 1.0, strict)
        return pi[0]

    def test_training_uses_whole_parent_session(self):
        params = self._model()
        parent = (3, 7, 2, 9, 4)
        a = PredictionInstance(prefix=(3,), target=7, parent_items=parent)
        b = PredictionInstance(prefix=(3, 7, 2), target=9, parent_items=parent)
        np.testing.assert_array_equal(self._pi(params, a, False), self._pi(params, b, False))

    def test_inference_sees_prefix_only(self):
        params = self._model()
        parent = (3, 7, 2, 9, 4)
        a = PredictionInstance(prefix=(3,), target=7, parent_items=parent)
        b = PredictionInstance(prefix=(3, 7, 2), target=9, parent_items=parent)
        assert not np.allclose(self._pi(params, a, True), self._pi(params, b, True))

    def test_known_user_bias_applies_only_when_flagged(self):
        params = self._model()
        params.user_bias[params.bias_row("u1")] = np.array([5.0, 0.0, 0.0, 0.0])
        anon = PredictionInstance(prefix=(3, 7), target=9, parent_items=(3, 7, 9), user_tag="u1")
        known = PredictionInstance(
            prefix=(3, 7), target=9, parent_items=(3, 7, 9), user_tag="u1", known_user=True
        )
        pi_anon = self._pi(params, anon, True)
        pi_known = self._pi(params, known, True)
        assert not np.allclose(pi_anon, pi_known)
        assert np.argmax(pi_known) == 0

    def test_unknown_tag_falls_back_to_no_bias(self):
        params = self._model()
        params.user_bias[1:] = 3.0
        stranger = PredictionInstance(
            prefix=(3, 7), target=9, parent_items=(3, 7, 9), user_tag="nobody", known_user=True
        )
        anon = PredictionInstance(prefix=(3, 7), target=9, parent_items=(3, 7, 9))
        pi_s = self._pi(params, stranger, True)
        np.testing.assert_array_equal(pi_s, self._pi(params, anon, True))
