"""Short-term interest: single-block self-attention over the session prefix.

Input rows combine item embeddings with reverse positional embeddings (the
most recent item always gets positional row 0, so recency is encoded the
same way regardless of session length):

    X_j = item_{s_j} + pos_{n-j}          j = 1..n, 0-indexed pos

Queries and keys go through relu projections, attention weights are a
row-wise softmax of QK'/sqrt(d), and the attended rows get a residual add.
The last row (the most recent item) is read out through a two-layer head
with biases. There is no causal mask: the prefix is fully observed, every
position may attend everywhere.

Prefixes are encoded in batches as recorded autodiff ops, one attention
block per distinct prefix length; training and evaluation share this path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor
from .selector import _buckets, _check_lengths, _restore_order


@dataclass
class EncoderParams:
    wq: np.ndarray  # (d, d)
    wk: np.ndarray  # (d, d)
    w1: np.ndarray  # (d, d)
    w2: np.ndarray  # (d, d)
    b1: np.ndarray  # (d,)
    b2: np.ndarray  # (d,)
    pos: np.ndarray  # (max_len, d), reverse positional rows


def attention(x: Tensor, leaves: dict[str, Tensor]) -> Tensor:
    """Row-stochastic (..., n, n) attention over stacked input rows (..., n, d)."""
    q = (x @ leaves["enc_wq"]).relu()
    k = (x @ leaves["enc_wk"]).relu()
    return ((q @ k.mT) / np.sqrt(x.data.shape[-1])).softmax(axis=-1)


def encode_prefixes(prefixes, leaves: dict[str, Tensor]) -> Tensor:
    """Short-term interest vectors (B, d), one read off each prefix's most
    recent position."""
    pos = leaves["enc_pos"]
    _check_lengths(prefixes, pos.data.shape[0], "prefix")
    chunks, order = [], []
    for length, idxs in _buckets(prefixes):
        ids = np.asarray([prefixes[i] for i in idxs], dtype=np.int64)
        x = leaves["items"].gather(ids) + pos.gather(np.arange(length - 1, -1, -1))
        z = attention(x, leaves) @ x + x
        pick_last = np.zeros(length)
        pick_last[-1] = 1.0
        z_last = Tensor(pick_last) @ z  # (Bn, d), exact row selection
        h = ((z_last @ leaves["enc_w1"]) + leaves["enc_b1"]).relu()
        chunks.append(h @ leaves["enc_w2"] + leaves["enc_b2"])
        order.extend(idxs)
    return _restore_order(chunks, order)
