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
computed: its query against every key of its prefix, n weights rather than
an (n, n) block. For the row that is read this is the same math as the full
block.

Prefixes are encoded in batches over one run table per batch
(selector._packed): the T rows of all prefixes, each prefix a run. Each
run's most recent row is read at starts + lengths - 1, its query is
repeated over the run's keys, the scores are normalized within the run, and
the weighted rows are summed per run. No row is padding, so a prefix in a
batch attends as it would alone. Training and evaluation share this path.

encode_prefixes is one recorded op (autodiff.Tensor.record), from its
gathers to the head's output. Its forward evaluates the math above in
numpy with the expressions, and in the order, of the chain of autodiff ops
it stands for (gather, matmul, relu, a per-run softmax and sum), so it gives
their bits, and reports each relu's pre-activation to autodiff.kink. Its
hand-written vector-Jacobian product hands each input the gradient that
chain would, in the same order. The packed rows x receive three
contributions: the attention-weighted run sum's, the key matmul's, then the
last rows' gradient, added in place (each run has one last row, so no row
repeats). The last rows receive the residual's gradient, then the query
matmul's. The items and positional tables take x's gradient through
Tensor.accum_rows. The op keeps x, the relu outputs (their masks are read
off them) and the attention weights, plus the (B, d) last rows and residual
sums, and over leaves that need no gradient nothing.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor, kink
from .selector import _packed


def attention(x: np.ndarray, last: np.ndarray, starts, lengths, wq: np.ndarray, wk: np.ndarray):
    """Each run's most recent row last (B, d) attending over that run's input
    rows of x (T, d); runs start at starts, lengths long. Returns the query
    rows q (B, d), the key rows k (T, d) and the attention weights (T,)."""
    q = np.matmul(last, wq)
    kink(q)
    np.maximum(q, 0.0, out=q)
    k = np.matmul(x, wk)
    kink(k)
    np.maximum(k, 0.0, out=k)
    rows = np.repeat(q, lengths, axis=0)
    rows *= k
    scores = rows.sum(axis=-1)
    scores /= np.sqrt(x.shape[1])
    # softmax within each run, its max subtracted first
    scores -= np.repeat(np.maximum.reduceat(scores, starts), lengths)
    np.exp(scores, out=scores)
    scores /= np.repeat(np.add.reduceat(scores, starts), lengths)
    return q, k, scores


def encode_prefixes(prefixes, leaves: dict[str, Tensor]) -> Tensor:
    """Short-term interest vectors (B, d), one read off each prefix's most
    recent position. One recorded op over items, enc_pos, enc_wq, enc_wk,
    enc_w1, enc_b1, enc_w2 and enc_b2."""
    names = ("items", "enc_pos", "enc_wq", "enc_wk", "enc_w1", "enc_b1", "enc_w2", "enc_b2")
    inputs = items, pos, wq, wk, w1, b1, w2, b2 = tuple(leaves[n] for n in names)
    ids, positions, lengths, starts = _packed(prefixes, pos.data.shape[0], "prefix")
    reverse = np.repeat(lengths - 1, lengths) - positions
    x = items.data[ids]
    x += pos.data[reverse]
    last_rows = starts + lengths - 1
    last = x[last_rows]
    q, k, att = attention(x, last, starts, lengths, wq.data, wk.data)
    z = np.add.reduceat(x * att[:, None], starts, axis=0)
    z += last  # residual
    h = np.matmul(z, w1.data)
    h += b1.data
    kink(h)
    np.maximum(h, 0.0, out=h)

    def backward(g):
        # the head, then the residual: last's gradient starts as z's
        b2.accum(g.sum(axis=0))
        g_h = np.matmul(g, w2.data.T)
        w2.accum(np.matmul(h.T, g))
        np.multiply(g_h, h > 0.0, out=g_h)
        b1.accum(g_h.sum(axis=0))
        g_last = np.matmul(g_h, w1.data.T)
        w1.accum(np.matmul(z.T, g_h))
        # x's first gradient: the attention-weighted run sum
        g_x = np.repeat(g_last, lengths, axis=0)
        g_att = np.multiply(g_x, x).sum(axis=1)
        g_x *= att[:, None]
        # the softmax within each run, then the 1/sqrt(d) scale
        g_att -= np.repeat(np.add.reduceat(g_att * att, starts), lengths)
        g_att *= att
        g_att /= np.sqrt(x.shape[1])
        g_att = g_att[:, None]
        # x's second gradient: the key matmul
        g_k = np.repeat(q, lengths, axis=0)
        g_k *= g_att
        np.multiply(g_k, k > 0.0, out=g_k)
        g_x += np.matmul(g_k, wk.data.T)
        wk.accum(np.matmul(x.T, g_k))
        # last's second gradient: the query matmul; the walk runs this
        # closure once, so k's rows can hold their products with g_att
        np.multiply(k, g_att, out=k)
        g_q = np.add.reduceat(k, starts, axis=0)
        np.multiply(g_q, q > 0.0, out=g_q)
        g_last += np.matmul(g_q, wq.data.T)
        wq.accum(np.matmul(last.T, g_q))
        # x's third gradient: the gather of each run's last row
        g_x[last_rows] += g_last
        items.accum_rows(ids, g_x)
        pos.accum_rows(reverse, g_x)

    out = np.matmul(h, w2.data)
    out += b2.data
    return Tensor.record(out, inputs, backward)
