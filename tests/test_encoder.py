"""Self-attention short-term encoder."""

import numpy as np
import pytest

from proxyrec.autodiff import Tensor
from proxyrec.encoder import attention, encode_prefixes
from proxyrec.errors import LengthError

import reference


def encoder_params(wq, wk, w1, w2, b1, b2, pos) -> dict[str, np.ndarray]:
    """The encoder's arrays under the names the forward reads."""
    return {"enc_wq": wq, "enc_wk": wk, "enc_w1": w1, "enc_w2": w2,
            "enc_b1": b1, "enc_b2": b2, "enc_pos": pos}


def random_encoder(d: int, max_len: int, seed: int = 0) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)
    u = lambda *s: rng.uniform(-0.5, 0.5, size=s)
    return encoder_params(
        wq=u(d, d), wk=u(d, d), w1=u(d, d), w2=u(d, d),
        b1=u(d), b2=u(d), pos=u(max_len, d),
    )


def leaves_of(table, enc):
    return {name: Tensor(arr) for name, arr in {"items": table, **enc}.items()}


def encode_short_term(items, table, enc):
    """One prefix through the batched encoder."""
    return encode_prefixes([tuple(items)], leaves_of(table, enc)).data[0]


def attention_weights(items, table, enc):
    """The most recent row's (n,) attention over one prefix's input rows."""
    x = table[np.asarray(items)] + enc["enc_pos"][len(items) - 1 :: -1]
    no_bias = np.zeros((1, len(items)))
    return attention(Tensor(x[None]), Tensor(x[None, -1]), no_bias, leaves_of(table, enc)).data[0]


def test_single_item_attention_is_exactly_one():
    enc = random_encoder(3, 5, seed=1)
    table = np.random.default_rng(2).normal(size=(6, 3))
    att = attention_weights([4], table, enc)
    np.testing.assert_array_equal(att, [1.0])


def test_single_item_residual_doubles_the_row():
    enc = random_encoder(3, 5, seed=3)
    table = np.random.default_rng(4).normal(size=(6, 3))
    x = table[2] + enc["enc_pos"][0]
    expect = np.maximum(2 * x @ enc["enc_w1"] + enc["enc_b1"], 0.0) @ enc["enc_w2"] + enc["enc_b2"]
    got = encode_short_term([2], table, enc)
    np.testing.assert_allclose(got, expect, atol=1e-14)


def test_zero_projections_give_uniform_attention():
    enc = random_encoder(4, 6, seed=5)
    enc["enc_wq"][:] = 0.0
    enc["enc_wk"][:] = 0.0
    table = np.random.default_rng(6).normal(size=(9, 4))
    att = attention_weights([1, 5, 2, 7], table, enc)
    np.testing.assert_allclose(att, np.full(4, 0.25), atol=1e-15)


def test_attention_rows_sum_to_one():
    enc = random_encoder(5, 8, seed=7)
    table = np.random.default_rng(8).normal(size=(12, 5))
    att = attention_weights([3, 1, 4, 1, 5], table, enc)
    np.testing.assert_allclose(att.sum(), 1.0, atol=1e-12)
    assert (att >= 0).all()
    # the one row computed is the full block's last row
    full = reference.attention_weights([3, 1, 4, 1, 5], {"items": table, **enc})
    np.testing.assert_allclose(att, full[-1], rtol=0, atol=1e-14)


def test_hand_oracle_two_items():
    # d=2, n=2, every step written out independently
    enc = encoder_params(
        wq=np.array([[0.5, -0.2], [0.1, 0.3]]),
        wk=np.array([[-0.4, 0.6], [0.2, 0.1]]),
        w1=np.array([[1.0, 0.5], [-0.5, 1.0]]),
        w2=np.array([[0.3, -0.3], [0.7, 0.2]]),
        b1=np.array([0.05, -0.05]),
        b2=np.array([-0.1, 0.1]),
        pos=np.array([[0.02, 0.01], [-0.03, 0.04]]),
    )
    table = np.array([[0.0, 0.0], [0.6, -0.2], [-0.1, 0.8]])
    items = [1, 2]

    # most recent item (position j=n) takes positional row 0
    x0 = table[1] + enc["enc_pos"][1]
    x1 = table[2] + enc["enc_pos"][0]
    q = [np.maximum(x @ enc["enc_wq"], 0) for x in (x0, x1)]
    k = [np.maximum(x @ enc["enc_wk"], 0) for x in (x0, x1)]
    scores = np.array([[qi @ kj for kj in k] for qi in q]) / np.sqrt(2.0)
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    att = e / e.sum(axis=1, keepdims=True)
    z_last = att[1, 0] * x0 + att[1, 1] * x1 + x1
    expect = np.maximum(z_last @ enc["enc_w1"] + enc["enc_b1"], 0.0) @ enc["enc_w2"] + enc["enc_b2"]

    got = encode_short_term(items, table, enc)
    np.testing.assert_allclose(got, expect, atol=1e-14)


def test_reverse_positional_rows():
    # zero item embeddings and uniform attention expose the positional rows:
    # the readout is mean(reversed pos rows) + pos[0], so pos[0] always
    # belongs to the most recent item whatever the length.
    pos = np.array([[1.0, 2.0], [10.0, 20.0], [100.0, 200.0]])
    enc = encoder_params(
        wq=np.zeros((2, 2)), wk=np.zeros((2, 2)),
        w1=np.eye(2), w2=np.eye(2),
        b1=np.zeros(2), b2=np.zeros(2), pos=pos,
    )
    table = np.zeros((4, 2))
    np.testing.assert_allclose(encode_short_term([1, 2], table, enc), [6.5, 13.0], atol=1e-12)
    np.testing.assert_allclose(encode_short_term([1, 2, 3], table, enc), [38.0, 76.0], atol=1e-12)


def test_order_sensitivity():
    enc = random_encoder(4, 6, seed=9)
    table = np.random.default_rng(10).normal(size=(9, 4))
    a = encode_short_term([1, 2, 3], table, enc)
    b = encode_short_term([3, 2, 1], table, enc)
    assert not np.allclose(a, b)


def test_no_causal_mask():
    # the first position attends to the last: perturbing the last item
    # changes the first row of the attention matrix. Positive weights and
    # embeddings keep the relu projections away from the dead zone. The
    # encoder computes only the last row, so this checks the reference.
    enc = random_encoder(4, 6, seed=11)
    rng = np.random.default_rng(12)
    for name in ("enc_wq", "enc_wk", "enc_pos"):
        enc[name] = np.abs(enc[name])
    table = np.abs(rng.normal(size=(9, 4)))
    before = reference.attention_weights([1, 2, 3], {"items": table, **enc})
    table2 = table.copy()
    table2[3] += 1.0
    after = reference.attention_weights([1, 2, 3], {"items": table2, **enc})
    assert not np.allclose(before[0], after[0])


def test_length_limits():
    enc = random_encoder(3, 2, seed=13)
    table = np.zeros((5, 3))
    with pytest.raises(LengthError):
        encode_short_term([], table, enc)
    with pytest.raises(LengthError):
        encode_short_term([1, 2, 3], table, enc)
