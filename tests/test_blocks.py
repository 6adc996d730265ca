"""The block ops: selector.selection_logits, the selection tail in
selector.select, encoder.encode_prefixes and trainer.loss_head.

Each block is one recorded op with a hand-written vector-Jacobian product.
Central differences check every input; one-sided differences check the left
derivative at an exactly-zero pre-activation, where the central quotient has
no single value to agree with.
"""

import tracemalloc

import numpy as np
import pytest

from gradcheck import KinkRecorder, finite_difference_check, weighted_sum
from proxyrec.autodiff import Tensor
from proxyrec.data import PredictionInstance
from proxyrec.encoder import encode_prefixes
from proxyrec.selector import select, selection_logits
from proxyrec.trainer import TrainConfig, init_model, loss_head, make_leaves, objective

D, HIDDEN, K, MAX_LEN, N_ITEMS = 4, 3, 5, 6, 9
# runs of lengths 2, 1, MAX_LEN, 3 (a repeated item) and 1
SEQS = [(1, 2), (3,), (4, 5, 6, 7, 8, 9), (2, 2, 5), (7,)]
T = sum(map(len, SEQS))
B = len(SEQS)
# the tail's instances select from SEQS; two of them are known users
TAIL_BATCH = [PredictionInstance(prefix=s[:1], target=1, parent_items=s) for s in SEQS]
TAIL_ROWS = [0, 1, 0, 2, 1]
# the head's candidates: each instance's target and two negatives, no item
# both; items 6, 7 and 8 are one candidate each
POS = np.array([1, 2, 3, 1, 2])
NEG = np.array([[4, 5], [6, 7], [8, 9], [4, 4], [9, 5]])
HEAD_CFG = TrainConfig(mode="full", negatives=2, margin=2.0)


def uniform(rng, **shapes) -> dict[str, Tensor]:
    return {n: Tensor(rng.uniform(-0.5, 0.5, size=s), requires_grad=True) for n, s in shapes.items()}


def selector_leaves(rng) -> dict[str, Tensor]:
    return uniform(rng, items=(N_ITEMS + 1, D), sel_pos=(MAX_LEN, D), sel_w1=(D, HIDDEN),
                   sel_w2=(HIDDEN, K))


def encoder_leaves(rng) -> dict[str, Tensor]:
    return uniform(rng, items=(N_ITEMS + 1, D), enc_pos=(MAX_LEN, D), enc_wq=(D, D),
                   enc_wk=(D, D), enc_w1=(D, D), enc_b1=(D,), enc_w2=(D, D), enc_b2=(D,))


def tail_leaves(rng) -> dict[str, Tensor]:
    return {**selector_leaves(rng),
            **uniform(rng, proxies=(K, D), normals=(K, D), user_bias=(3, K))}


def head_leaves(rng) -> dict[str, Tensor]:
    # pv's normals need not be unit rows for the head's math
    return uniform(rng, items=(N_ITEMS + 1, D), s=(B, D), pv=(2, B, D))


def tail(leaves):
    return select(TAIL_BATCH, TAIL_ROWS, leaves, 0.7, False)[1]


def head(leaves, cfg=HEAD_CFG):
    items = leaves["items"]
    return loss_head(items.gather(NEG), leaves["s"], items.gather(POS), leaves["pv"], cfg)[0]


# name -> (forward over the leaves, leaves, output shape)
BLOCKS = {
    "selector": (lambda leaves: selection_logits(SEQS, leaves), selector_leaves, (B, K)),
    "encoder": (lambda leaves: encode_prefixes(SEQS, leaves), encoder_leaves, (B, D)),
    "tail": (tail, tail_leaves, (2, B, D)),
    "head": (head, head_leaves, ()),
}


def weighted(forward, leaves, weight):
    return lambda: weighted_sum(forward(leaves), weight)


@pytest.mark.parametrize("name", BLOCKS)
def test_every_input_matches_finite_differences(name):
    forward, make, shape = BLOCKS[name]
    rng = np.random.default_rng(5)
    leaves = make(rng)
    weight = rng.normal(size=shape)
    report = finite_difference_check(weighted(forward, leaves, weight), leaves, h=1e-5)
    assert set(report.per_tensor) == set(leaves)
    assert report.checked + report.skipped == sum(t.data.size for t in leaves.values())
    assert report.checked > 0.9 * (report.checked + report.skipped)
    assert report.ok(1e-4), report.per_tensor


def test_strict_selection_over_prefix_chains_matches_finite_differences():
    # inference's input: consecutive prefixes of one session, then another;
    # over leaves that require a gradient the recorded op runs on them
    parent = SEQS[2]
    batch = [PredictionInstance(prefix=parent[:n], target=parent[n], parent_items=parent)
             for n in (1, 2, 2, 4, 5)]
    batch += [PredictionInstance(prefix=s[:n], target=1, parent_items=s)
              for s in SEQS[:2] for n in range(1, len(s) + 1)]
    rows = [0, 1, 0, 2, 1, 2, 0, 1]
    rng = np.random.default_rng(14)
    leaves = tail_leaves(rng)
    weight = rng.normal(size=(2, len(batch), D))
    report = finite_difference_check(
        weighted(lambda lv: select(batch, rows, lv, 0.7, True)[1], leaves, weight), leaves, h=1e-5
    )
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
    weight = rng.normal(size=(B, K))
    f = weighted(BLOCKS["selector"][0], leaves, weight)
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
    weight = rng.normal(size=(B, D))
    f = weighted(BLOCKS["encoder"][0], leaves, weight)
    f().backward()
    for name, index in kinks.items():
        assert leaves[name].grad[index] == 0.0, name
        left, right = left_and_right_quotients(
            lambda: float(f().data), leaves[name].data, index
        )
        assert left == 0.0, name
        assert abs(right) > 1e-6, name


def test_hinge_kink_takes_zero():
    # items 2 and 6 are the same row, so instance 1's first negative (6)
    # scores exactly as its target (2): with no margin its hinge term sits
    # at 0.0. Raising a coordinate of item 6 where it lies below the query
    # raises the term; lowering it takes the term below the kink, where it
    # is flat. Only that term reads item 6
    rng = np.random.default_rng(12)
    leaves = head_leaves(rng)
    items = leaves["items"].data
    items[6] = items[2]
    k = int(np.argmax(leaves["s"].data[1] - items[6]))
    assert leaves["s"].data[1, k] > items[6, k]
    cfg = TrainConfig(mode="short_only", negatives=2, margin=0.0, lambda_dist=0.0)
    f = lambda: head(leaves, cfg)
    f().backward()
    assert leaves["items"].grad[6, k] == 0.0
    left, right = left_and_right_quotients(lambda: float(f().data), items, (6, k))
    assert left == 0.0
    assert right > 1e-6


def test_orthogonality_kink_takes_zero():
    # instance 0's normal is orthogonal to its proxy, so |v.p| sits at its
    # kink: abs'(0) = 0, between one-sided slopes of equal size and
    # opposite sign. Negatives far from every query leave the hinge flat
    rng = np.random.default_rng(13)
    leaves = head_leaves(rng)
    p, v = leaves["pv"].data[:, 0]
    p[:] = [0.3, 0.2, 0.0, 0.0]
    v[:] = [0.0, 0.0, 0.4, -0.1]
    leaves["items"].data[np.unique(NEG)] += 50.0
    cfg = TrainConfig(mode="no_projection", negatives=2, margin=0.0, lambda_dist=0.0)
    f = lambda: head(leaves, cfg)
    f().backward()
    assert leaves["pv"].grad[1, 0, 0] == 0.0
    left, right = left_and_right_quotients(lambda: float(f().data), leaves["pv"].data, (1, 0, 0))
    assert right > 1e-6
    assert left == pytest.approx(-right, rel=1e-6)


@pytest.mark.parametrize("name,shapes", [
    ("selector", [(T, HIDDEN)]),
    ("encoder", [(B, D), (T, D), (B, D)]),
    ("tail", [(T, HIDDEN)]),
    ("head", [(B, 2), (B,)]),
])
def test_block_reports_each_kinked_preactivation(name, shapes):
    forward, make, _ = BLOCKS[name]
    leaves = make(np.random.default_rng(8))
    with KinkRecorder() as rec:
        forward(leaves)
    assert [a.shape for a in rec.preacts] == shapes
    # each is the pre-activation, recorded before the block overwrites it
    first = rec.preacts[0]
    ids = np.concatenate(SEQS)
    if name in ("selector", "tail"):
        # the tail has no kink of its own; the selector's logits report theirs
        x = leaves["items"].data[ids] + leaves["sel_pos"].data[
            np.concatenate([np.arange(len(s)) for s in SEQS])]
        np.testing.assert_array_equal(first, x @ leaves["sel_w1"].data)
    elif name == "encoder":
        last = leaves["items"].data[[s[-1] for s in SEQS]] + leaves["enc_pos"].data[0]
        np.testing.assert_array_equal(first, last @ leaves["enc_wq"].data)
    else:
        first = rec.preacts[1]
        p, v = leaves["pv"].data
        np.testing.assert_array_equal(first, (v * p).sum(-1))
    assert (first < 0).any()


@pytest.mark.parametrize("name", BLOCKS)
def test_frozen_inputs_keep_no_gradient_and_leave_the_others_bit_equal(name):
    forward, make, shape = BLOCKS[name]
    rng = np.random.default_rng(11)
    live = make(rng)
    weight = rng.normal(size=shape)
    weighted(forward, live, weight)().backward()
    # the tables a block reads rows of, through Tensor.accum_rows
    tables = [n for n in live if n in ("items", "user_bias") or n.endswith("_pos")]
    for table in tables:
        for frozen_weight in (n for n in live if n not in tables):
            frozen = {table, frozen_weight}
            leaves = {n: Tensor(t.data, requires_grad=n not in frozen) for n, t in live.items()}
            weighted(forward, leaves, weight)().backward()
            for n, t in leaves.items():
                if n in frozen:
                    assert t.grad is None, (n, frozen)
                else:
                    assert t.grad.tobytes() == live[n].grad.tobytes(), (n, frozen)


@pytest.mark.parametrize("name", BLOCKS)
def test_frozen_leaves_record_nothing_and_compute_the_same_bits(name):
    forward, make, _ = BLOCKS[name]
    leaves = make(np.random.default_rng(9))
    recorded = forward(leaves)
    assert recorded.requires_grad and recorded._prev and recorded._backward is not None
    plain = forward({n: Tensor(t.data) for n, t in leaves.items()})
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
