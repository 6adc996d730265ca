"""Proxy selection: session logits, annealed softmax, and proxy assembly.

A shared bank of K proxy embeddings stands in for unknown user profiles.
A two-layer point-wise feed-forward scorer (no biases) turns each session
item into selection logits, averaged over positions:

    alpha = mean_j  W2' leaky_relu(W1' (item_j + pos_j))      (slope 0.1)

The selection distribution is softmax(alpha / tau) with the temperature
annealed across epochs, so training moves from a soft mixture of proxies to
a near one-hot choice. The chosen mixture is rescaled so its norm equals the
mixture of the bank row norms, which keeps a soft combination from shrinking
toward the origin. The same distribution mixes the bank's normal rows into
the unit normal of the session's hyperplane.

Every function here works on a batch of instances as recorded autodiff ops,
so training and evaluation run the same forward. A batch is one run table
(_packed): the T ids of all its sessions in order, one run per session, so
every (T, d) row is a real item and takes the positional row of its place in
the session. W2 is linear, so the mean is taken over the hidden rows before
W2: each run's row sum divided by its length. The encoder shares the run
table.

selection_logits is one recorded op (autodiff.Tensor.record). Its forward
evaluates the chain above in numpy with the expressions, and in the order,
of the autodiff ops it stands for, so it gives their bits, and reports the
hidden pre-activation to autodiff.kink. Its hand-written vector-Jacobian
product walks the chain back: W2, the per-run mean, the leaky relu's slope,
W1, then the item and positional row sums (Tensor.accum_rows). It keeps
only the packed rows, a boolean mask of the entries above the kink, and the
per-run means; over leaves that need no gradient it keeps nothing.

The caller's strict flag picks the regime: during training (non-strict) the
distribution is computed from the whole parent session, including the items
after the prediction point, and degenerate mixtures are padded with EPS; at
inference (strict) only the prefix is available and a degenerate mixture
raises.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, kink
from .errors import ConfigError, DegenerateProxyError, LengthError

EPS = 1e-12


@dataclass
class AnnealSchedule:
    start: float = 3.0
    end: float = 0.01
    epochs: int = 10

    def __post_init__(self):
        # start == end is allowed: it pins the temperature (no annealing)
        if not (math.inf > self.start >= self.end > 0.0):
            raise ConfigError(
                f"anneal schedule needs finite start >= end > 0, got {self.start}, {self.end}"
            )
        if self.epochs < 1:
            raise ConfigError(f"anneal epochs must be >= 1, got {self.epochs}")


def temperature(epoch: int, sched: AnnealSchedule) -> float:
    """Exponential decay from start to end over the schedule's epochs.

    Clamped exactly to the end value from the final epoch onward, so the
    floor is hit without floating-point drift.
    """
    if epoch < 0:
        raise ConfigError(f"epoch must be >= 0, got {epoch}")
    if epoch >= sched.epochs:
        return sched.end
    t = sched.start * (sched.end / sched.start) ** (epoch / sched.epochs)
    return max(t, sched.end)


def _packed(seqs, max_rows: int, what: str):
    """The run table of a batch: the T real ids of all sequences in order,
    each id's position within its sequence, and the (B,) lengths and run
    starts (row of each sequence's first id)."""
    lengths = np.fromiter(map(len, seqs), dtype=np.int64, count=len(seqs))
    bad = lengths[(lengths < 1) | (lengths > max_rows)]
    if bad.size:
        raise LengthError(
            f"{what} length {bad[0]} outside positional table of {max_rows} rows"
        )
    ends = np.cumsum(lengths)
    starts = ends - lengths
    total = int(ends[-1])
    ids = np.fromiter(itertools.chain.from_iterable(seqs), dtype=np.int64, count=total)
    return ids, np.arange(total) - np.repeat(starts, lengths), lengths, starts


def _leaky_slopes(above: np.ndarray) -> np.ndarray:
    """The leaky relu's slope, 1.0 where above and 0.1 elsewhere. Both are
    exact (0.9 + 0.1 rounds to 1.0), so a product with them has the bits of
    the matching branch: x * 1.0 is x, and x * 0.1 is 0.1 * x."""
    slopes = np.multiply(above, 0.9)
    slopes += 0.1
    return slopes


def selection_logits(item_lists, leaves: dict[str, Tensor]) -> Tensor:
    """Selection logits (B, K): position-wise FFN scores averaged over each
    session's positions (a run sum divided by the length). One recorded op
    over items, sel_pos, sel_w1 and sel_w2."""
    inputs = items, pos, w1, w2 = tuple(leaves[n] for n in ("items", "sel_pos", "sel_w1", "sel_w2"))
    ids, positions, lengths, starts = _packed(item_lists, pos.data.shape[0], "session")
    x = items.data[ids]
    x += pos.data[positions]
    h = np.matmul(x, w1.data)
    kink(h)
    # h > 0 rather than not h <= 0, so a nan takes the slope 0.1
    above = h > 0.0
    h *= _leaky_slopes(above)
    mean_h = np.add.reduceat(h, starts, axis=0)
    counts = lengths[:, None].astype(np.float64)
    mean_h /= counts

    def backward(g):
        w2.accum(np.matmul(mean_h.T, g))
        g_mean = np.matmul(g, w2.data.T)
        g_mean /= counts
        g_h = np.repeat(g_mean, lengths, axis=0)
        g_h *= _leaky_slopes(above)
        w1.accum(np.matmul(x.T, g_h))
        g_x = np.matmul(g_h, w1.data.T)
        items.accum_rows(ids, g_x)
        pos.accum_rows(positions, g_x)

    return Tensor.record(np.matmul(mean_h, w2.data), inputs, backward)


def selection_distribution(logits: Tensor, tau: float, bias: Tensor | None = None) -> Tensor:
    """softmax((logits + bias) / tau) along the last axis."""
    if tau <= 0.0:
        raise ConfigError(f"temperature must be positive, got {tau}")
    z = logits if bias is None else logits + bias
    return (z / tau).softmax()


def _divide(num: Tensor, norm: Tensor, strict: bool, what: str) -> Tensor:
    """num / norm; strict raises on a (near) zero norm, otherwise pads it."""
    if strict:
        worst = float(norm.data.min())
        if worst < EPS:
            raise DegenerateProxyError(f"{what} has norm {worst:.3e}; cannot rescale")
        return num / norm
    return num / (norm + EPS)


def assemble_proxy(pi: Tensor, proxies: Tensor, strict: bool) -> Tensor:
    """Rows gamma * (pi @ proxies), with gamma chosen so that each row's norm
    equals the pi-weighted sum of bank row norms."""
    combined = pi @ proxies
    mixed_norm = pi @ proxies.l2norm()
    gamma = _divide(mixed_norm, combined.l2norm(), strict, "proxy combination")
    return gamma.reshape(pi.data.shape[0], 1) * combined


def assemble_normal(pi: Tensor, normals: Tensor, strict: bool) -> Tensor:
    """Unit hyperplane normals: the pi-mixture of normal rows, normalized."""
    w = pi @ normals
    return _divide(w, w.l2norm(keepdims=True), strict, "hyperplane normal")


def select(instances, bias_rows, leaves: dict[str, Tensor], tau: float, strict: bool):
    """Selection distributions pi (B, K), proxies p (B, d) and unit
    hyperplane normals v (B, d) for a batch.

    bias_rows gives each instance's row in the user-bias table (0 is the
    anonymous row). Strict selection reads each prefix, non-strict selection
    each whole parent session.
    """
    sessions = [i.prefix if strict else i.parent_items for i in instances]
    logits = selection_logits(sessions, leaves)
    bias = None
    if leaves["user_bias"].data.shape[0] > 1:
        bias = leaves["user_bias"].gather(np.asarray(bias_rows, dtype=np.int64))
    pi = selection_distribution(logits, tau, bias)
    p = assemble_proxy(pi, leaves["proxies"], strict)
    return pi, p, assemble_normal(pi, leaves["normals"], strict)
