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

Prefixes are encoded in batches as recorded autodiff ops over one run table
per batch (selector._packed): the T rows of all prefixes, each prefix a run.
Each run's most recent row is gathered at starts + lengths - 1, its query is
repeated over the run's keys, the scores are normalized within the run, and
the weighted rows are summed per run. No row is padding, so a prefix in a
batch attends as it would alone. Training and evaluation share this
path.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor
from .selector import _packed


def attention(x: Tensor, last: Tensor, starts, lengths, leaves: dict[str, Tensor]) -> Tensor:
    """Attention weights (T,) of each run's most recent row last (B, d) over
    that run's input rows of x (T, d); runs start at starts, lengths long."""
    d = x.data.shape[1]
    q = (last @ leaves["enc_wq"]).relu().repeat_rows(lengths)
    k = (x @ leaves["enc_wk"]).relu()
    return (k.inner(q) / np.sqrt(d)).segment_softmax(starts)


def encode_prefixes(prefixes, leaves: dict[str, Tensor]) -> Tensor:
    """Short-term interest vectors (B, d), one read off each prefix's most
    recent position."""
    pos = leaves["enc_pos"]
    ids, positions, lengths, starts = _packed(prefixes, pos.data.shape[0], "prefix")
    x = leaves["items"].gather(ids) + pos.gather(np.repeat(lengths - 1, lengths) - positions)
    last = x.gather(starts + lengths - 1)
    att = attention(x, last, starts, lengths, leaves)
    z = (x * att.reshape(-1, 1)).segment_sum(starts) + last
    h = ((z @ leaves["enc_w1"]) + leaves["enc_b1"]).relu()
    return h @ leaves["enc_w2"] + leaves["enc_b2"]
