"""Short-term interest: single-block self-attention over the session prefix.

Input rows combine item embeddings with reverse positional embeddings (the
most recent item always gets positional row 0, so recency is encoded the
same way regardless of session length):

    X_j = item_{s_j} + pos_{n-j}          j = 1..n, 0-indexed pos

Queries and keys go through relu projections, attention weights are a
softmax of QK'/sqrt(d), and the attended rows get a residual add. Only the
last row (the most recent item) is read out, through a two-layer head with
biases. There is no causal mask: the prefix is fully observed, every
position may attend everywhere.

The block has one layer and the head reads one row, so only that row is
computed: its query against every key, weights (B, L) rather than (B, L, L).
For the row that is read this is the same math as the full (n, n) block.

Prefixes are encoded in batches as recorded autodiff ops, one (B, L) block
per batch with L the longest prefix. Each prefix is left-padded with item 0,
so its most recent item sits in column L-1 and takes positional row 0.
Padded keys get the large finite bias KEY_PAD_BIAS before the softmax: their
weight underflows to exactly 0, every value stays finite, and a prefix in a
padded batch attends as it would alone. Training and evaluation share this
path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor
from .selector import _id_block

KEY_PAD_BIAS = -1e30  # added to the attention score of every padded key


@dataclass
class EncoderParams:
    wq: np.ndarray  # (d, d)
    wk: np.ndarray  # (d, d)
    w1: np.ndarray  # (d, d)
    w2: np.ndarray  # (d, d)
    b1: np.ndarray  # (d,)
    b2: np.ndarray  # (d,)
    pos: np.ndarray  # (max_len, d), reverse positional rows


def attention(x: Tensor, last: Tensor, key_bias: np.ndarray, leaves: dict[str, Tensor]) -> Tensor:
    """Attention weights (B, L) of each block's most recent row last (B, d)
    over its input rows x (B, L, d); key_bias (B, L) is added to the scores."""
    b, _, d = x.data.shape
    q = (last @ leaves["enc_wq"]).relu().reshape(b, 1, d)
    k = (x @ leaves["enc_wk"]).relu()
    return (k.inner(q) / np.sqrt(d) + key_bias).softmax(axis=-1)


def encode_prefixes(prefixes, leaves: dict[str, Tensor]) -> Tensor:
    """Short-term interest vectors (B, d), one read off each prefix's most
    recent position."""
    pos = leaves["enc_pos"]
    ids, real = _id_block(prefixes, pos.data.shape[0], "prefix", left=True)
    b, n = ids.shape
    d = leaves["items"].data.shape[1]
    x = leaves["items"].gather(ids) + pos.gather(np.arange(n - 1, -1, -1))
    last = x.reshape(b * n, d).gather(np.arange(n - 1, b * n, n))
    att = attention(x, last, np.where(real, 0.0, KEY_PAD_BIAS), leaves)
    z = x.inner(att.reshape(b, n, 1), axis=1) + last
    h = ((z @ leaves["enc_w1"]) + leaves["enc_b1"]).relu()
    return h @ leaves["enc_w2"] + leaves["enc_b2"]
