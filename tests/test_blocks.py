"""The block ops: selector.selection_logits and encoder.encode_prefixes.

Each block is one recorded op with a hand-written vector-Jacobian product.
Central differences check every input; one-sided differences check the left
derivative at an exactly-zero pre-activation, where the central quotient has
no single value to agree with.
"""

import tracemalloc

import numpy as np
import pytest

from gradcheck import KinkRecorder, finite_difference_check
from proxyrec.autodiff import Tensor
from proxyrec.data import PredictionInstance
from proxyrec.encoder import encode_prefixes
from proxyrec.selector import selection_logits
from proxyrec.trainer import TrainConfig, init_model, make_leaves, objective

D, HIDDEN, K, MAX_LEN, N_ITEMS = 4, 3, 5, 6, 9
# runs of lengths 2, 1, MAX_LEN, 3 (a repeated item) and 1
SEQS = [(1, 2), (3,), (4, 5, 6, 7, 8, 9), (2, 2, 5), (7,)]
T = sum(map(len, SEQS))


def selector_leaves(rng) -> dict[str, Tensor]:
    u = lambda *s: Tensor(rng.uniform(-0.5, 0.5, size=s), requires_grad=True)
    return {"items": u(N_ITEMS + 1, D), "sel_pos": u(MAX_LEN, D),
            "sel_w1": u(D, HIDDEN), "sel_w2": u(HIDDEN, K)}


def encoder_leaves(rng) -> dict[str, Tensor]:
    u = lambda *s: Tensor(rng.uniform(-0.5, 0.5, size=s), requires_grad=True)
    return {"items": u(N_ITEMS + 1, D), "enc_pos": u(MAX_LEN, D),
            "enc_wq": u(D, D), "enc_wk": u(D, D), "enc_w1": u(D, D),
            "enc_b1": u(D), "enc_w2": u(D, D), "enc_b2": u(D)}


BLOCKS = {
    "selector": (selection_logits, selector_leaves, K),
    "encoder": (encode_prefixes, encoder_leaves, D),
}


def weighted_sum(block, leaves, weight):
    return lambda: (block(SEQS, leaves) * Tensor(weight)).sum()


@pytest.mark.parametrize("name", BLOCKS)
def test_every_input_matches_finite_differences(name):
    block, make, width = BLOCKS[name]
    rng = np.random.default_rng(5)
    leaves = make(rng)
    weight = rng.normal(size=(len(SEQS), width))
    report = finite_difference_check(weighted_sum(block, leaves, weight), leaves, h=1e-5)
    assert set(report.per_tensor) == set(leaves)
    assert report.checked + report.skipped == sum(t.data.size for t in leaves.values())
    assert report.checked > 0.9 * (report.checked + report.skipped)
    assert report.ok(1e-4), report.per_tensor


def left_and_right_quotients(f, arr, index, h=1e-5):
    """One-sided difference quotients of f in the coordinate arr[index]."""
    saved = arr[index]
    f0 = f()
    arr[index] = saved - h
    f_left = f()
    arr[index] = saved + h
    f_right = f()
    arr[index] = saved
    return (f0 - f_left) / h, (f_right - f0) / h


def test_selector_kink_takes_the_slope():
    # sel_w1's column 1 is zero, so that hidden unit's pre-activation is
    # exactly 0.0 on every row; column 0 of every input row is positive, so
    # lowering sel_w1[0, 1] moves all of them below the kink
    rng = np.random.default_rng(6)
    leaves = selector_leaves(rng)
    leaves["items"].data[:, 0] += 1.0
    leaves["sel_pos"].data[:, 0] = np.abs(leaves["sel_pos"].data[:, 0])
    w1 = leaves["sel_w1"].data
    w1[:, 1] = 0.0
    weight = rng.normal(size=(len(SEQS), K))
    f = weighted_sum(selection_logits, leaves, weight)
    f().backward()
    analytic = leaves["sel_w1"].grad[0, 1]
    left, right = left_and_right_quotients(lambda: float(f().data), w1, (0, 1))
    assert analytic == pytest.approx(left, rel=1e-6)
    # the kink is real: the right derivative is ten times the left
    assert right == pytest.approx(10.0 * left, rel=1e-6)


def test_encoder_kinks_take_zero():
    # a zero column in enc_wq, enc_wk and (with enc_b1) enc_w1 puts one unit
    # of each relu exactly at 0.0; column 0 of every input row is positive,
    # so lowering row 0 of that column moves the unit below the kink, and
    # the query and key units the kinked ones meet stay above theirs
    rng = np.random.default_rng(7)
    leaves = encoder_leaves(rng)
    leaves["items"].data[:, 0] += 1.0
    leaves["enc_pos"].data[:, 0] = np.abs(leaves["enc_pos"].data[:, 0])
    kinks = {"enc_wq": (0, 1), "enc_wk": (0, 2), "enc_b1": (3,)}
    leaves["enc_wq"].data[:, 1] = 0.0
    leaves["enc_wk"].data[:, 2] = 0.0
    leaves["enc_wq"].data[0, 2] = leaves["enc_wk"].data[0, 1] = 2.0
    leaves["enc_w1"].data[:, 3] = 0.0
    leaves["enc_b1"].data[3] = 0.0
    weight = rng.normal(size=(len(SEQS), D))
    f = weighted_sum(encode_prefixes, leaves, weight)
    f().backward()
    for name, index in kinks.items():
        assert leaves[name].grad[index] == 0.0, name
        left, right = left_and_right_quotients(
            lambda: float(f().data), leaves[name].data, index
        )
        assert left == 0.0, name
        assert abs(right) > 1e-6, name


@pytest.mark.parametrize("name,shapes", [
    ("selector", [(T, HIDDEN)]),
    ("encoder", [(len(SEQS), D), (T, D), (len(SEQS), D)]),
])
def test_block_reports_each_kinked_preactivation(name, shapes):
    block, make, _ = BLOCKS[name]
    leaves = make(np.random.default_rng(8))
    with KinkRecorder() as rec:
        block(SEQS, leaves)
    assert [a.shape for a in rec.preacts] == shapes
    # each is the pre-activation, recorded before the block overwrites it
    first = rec.preacts[0]
    ids = np.concatenate(SEQS)
    if name == "selector":
        x = leaves["items"].data[ids] + leaves["sel_pos"].data[
            np.concatenate([np.arange(len(s)) for s in SEQS])]
        np.testing.assert_array_equal(first, x @ leaves["sel_w1"].data)
    else:
        last = leaves["items"].data[[s[-1] for s in SEQS]] + leaves["enc_pos"].data[0]
        np.testing.assert_array_equal(first, last @ leaves["enc_wq"].data)
    assert (first < 0).any()


@pytest.mark.parametrize("name", BLOCKS)
def test_frozen_inputs_keep_no_gradient_and_leave_the_others_bit_equal(name):
    block, make, width = BLOCKS[name]
    rng = np.random.default_rng(11)
    live = make(rng)
    weight = rng.normal(size=(len(SEQS), width))
    weighted_sum(block, live, weight)().backward()
    tables = [n for n in live if n == "items" or n.endswith("_pos")]
    for table in tables:
        for frozen_weight in (n for n in live if n not in tables):
            frozen = {table, frozen_weight}
            leaves = {n: Tensor(t.data, requires_grad=n not in frozen) for n, t in live.items()}
            weighted_sum(block, leaves, weight)().backward()
            for n, t in leaves.items():
                if n in frozen:
                    assert t.grad is None, (n, frozen)
                else:
                    assert t.grad.tobytes() == live[n].grad.tobytes(), (n, frozen)


@pytest.mark.parametrize("name", BLOCKS)
def test_frozen_leaves_record_nothing_and_compute_the_same_bits(name):
    block, make, _ = BLOCKS[name]
    leaves = make(np.random.default_rng(9))
    recorded = block(SEQS, leaves)
    assert recorded.requires_grad and recorded._prev and recorded._backward is not None
    plain = block(SEQS, {n: Tensor(t.data) for n, t in leaves.items()})
    assert not plain.requires_grad
    assert plain._prev == () and plain._backward is None
    assert plain.data.tobytes() == recorded.data.tobytes()


def test_recorded_long_session_batch_holds_little_memory():
    # a batch shaped like the long_sessions benchmark: 128 instances whose
    # parent sessions hold 10 to 50 items, d=32, K=30
    cfg = TrainConfig(embed_dim=32, proxy_count=30, max_len=50, batch_size=128)
    rng = np.random.default_rng(10)
    batch = []
    for _ in range(cfg.batch_size):
        parent = tuple(int(i) for i in rng.integers(1, 501, size=int(rng.integers(10, 51))))
        cut = int(rng.integers(1, len(parent)))
        batch.append(PredictionInstance(prefix=parent[:cut], target=parent[cut],
                                        parent_items=parent, user_tag="u1", known_user=False))
    leaves = make_leaves(init_model(500, cfg))
    negs = rng.integers(1, 501, size=(cfg.batch_size, cfg.negatives))
    tracemalloc.start()
    try:
        J, _ = objective(batch, leaves, 1.0, cfg, negs)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the graph of separate ops held about 11 MB here
    assert held < 6_000_000
    J.backward()
