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

Selection runs on a batch of instances as two recorded autodiff ops, so
training and evaluation run the same forward. A batch is one run table
(_packed): the T ids of all its sessions in order, one run per session, so
every (T, d) row is a real item and takes the positional row of its place in
the session. W2 is linear, so the mean is taken over the hidden rows before
W2: each run's row sum divided by its length. The encoder shares the run
table.

Over leaves that need no gradient (evaluation, and validation inside fit)
the op records nothing, and it computes each chain of prefixes once
(_chained): a sequence that starts with the whole sequence before it shares
that sequence's rows. expand_all lists a session's prefixes 1..L-1 in turn,
so they gather, multiply by W1 and leaky-relu the L-1 rows of the longest
one, not L(L-1)/2 rows. The hidden rows are then copied out to the packed
layout, and each run is summed by the recorded op's own np.add.reduceat
over its [start, end). reduceat sums a run, per column, as
h[s] + pairwise(h[s+1:e]), so each sum has the recorded op's bits, where a
running cumsum, differenced, rounds differently. Summing the shared rows in
place, as interleaved start, end pairs, doubles reduceat's outputs; its cost
goes by output and column, so with a (64, 82) W1 that took longer than the
copy it saves. The hidden rows themselves are the recorded op's only where
BLAS gives a product row the same bits at either height. OpenBLAS does for
a (32, 31) W1 from two rows on, but for a (64, 82) one not below about 190
rows, where shared logits can differ by rounding.

selection_logits is one recorded op (autodiff.Tensor.record). Its forward
evaluates the chain above in numpy with the expressions, and in the order,
of the autodiff ops it stands for, so it gives their bits, and reports the
hidden pre-activation to autodiff.kink. Its hand-written vector-Jacobian
product walks the chain back: W2, the per-run mean, the leaky relu's slope,
W1, then the item and positional row sums (Tensor.accum_rows). It keeps
only the packed rows, a boolean mask of the entries above the kink, and the
per-run means; over leaves that need no gradient it keeps nothing.

The selection tail in select is the second op, from the logits to the
proxies and hyperplane normals, returned stacked as one (2, B, d) output.
Its forward is selection_distribution, assemble_proxy and assemble_normal,
numpy functions that evaluate the expressions of the autodiff ops they
replaced in the same order; the last two also return the intermediates the
VJP reads. The VJP runs in one order for every loss configuration: it
walks back the normal's normalization, then the proxy's rescale (the bank
takes its row norms' share before its mixture's), so pi's gradient sums the
normal's share, the mixed norms', then the mixture's; then the softmax and
1/tau, and hands the logits and, through Tensor.accum_rows, the user-bias
rows their gradient. A loss that reads v nowhere hands v a zero gradient,
and the normal branch runs on it.

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


def _lengths(seqs, max_rows: int, what: str) -> np.ndarray:
    """The (B,) lengths of seqs; one outside the positional table raises."""
    lengths = np.fromiter(map(len, seqs), dtype=np.int64, count=len(seqs))
    bad = lengths[(lengths < 1) | (lengths > max_rows)]
    if bad.size:
        raise LengthError(
            f"{what} length {bad[0]} outside positional table of {max_rows} rows"
        )
    return lengths


def _packed(seqs, max_rows: int, what: str):
    """The run table of a batch: the T real ids of all sequences in order,
    each id's position within its sequence, and the (B,) lengths and run
    starts (row of each sequence's first id)."""
    lengths = _lengths(seqs, max_rows, what)
    ends = np.cumsum(lengths)
    starts = ends - lengths
    total = int(ends[-1])
    ids = np.fromiter(itertools.chain.from_iterable(seqs), dtype=np.int64, count=total)
    return ids, np.arange(total) - np.repeat(starts, lengths), lengths, starts


def _chained(seqs, max_rows: int, what: str):
    """_packed's run table with each chain of prefixes computed once: a
    sequence that starts with the whole sequence before it joins that one's
    chain, and a chain's rows are those of its longest (last) member.
    Returns the ids and positions of the chains' rows, _packed's (B,)
    lengths and run starts, and for each of _packed's T rows its row among
    the chains'."""
    lengths = _lengths(seqs, max_rows, what)
    # opens[b]: sequence b starts a chain; the end of the batch closes one
    opens = np.fromiter(
        itertools.chain((True,), (s[: len(p)] != p for p, s in zip(seqs, seqs[1:])), (True,)),
        dtype=bool,
        count=len(seqs) + 1,
    )
    ids, positions, _, chain_starts = _packed(list(itertools.compress(seqs, opens[1:])), max_rows, what)
    ends = np.cumsum(lengths)
    starts = ends - lengths
    shift = chain_starts[np.cumsum(opens[:-1]) - 1] - starts
    return ids, positions, lengths, starts, np.arange(int(ends[-1])) + np.repeat(shift, lengths)


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
    over items, sel_pos, sel_w1 and sel_w2; over leaves that need no
    gradient, a sequence that extends the one before it shares its rows."""
    inputs = items, pos, w1, w2 = tuple(leaves[n] for n in ("items", "sel_pos", "sel_w1", "sel_w2"))
    max_rows, rows = pos.data.shape[0], None
    if any(t.requires_grad for t in inputs):
        ids, positions, lengths, starts = _packed(item_lists, max_rows, "session")
    else:
        ids, positions, lengths, starts, rows = _chained(item_lists, max_rows, "session")
    x = items.data[ids]
    x += pos.data[positions]
    h = np.matmul(x, w1.data)
    kink(h)
    # h > 0 rather than not h <= 0, so a nan takes the slope 0.1
    above = h > 0.0
    h *= _leaky_slopes(above)
    if rows is not None:  # the chains' rows, copied out to the packed layout
        h = h[rows]
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


def selection_distribution(logits: np.ndarray, tau: float, bias: np.ndarray | None = None) -> np.ndarray:
    """softmax((logits + bias) / tau) along the last axis, its max
    subtracted first."""
    if tau <= 0.0:
        raise ConfigError(f"temperature must be positive, got {tau}")
    z = logits if bias is None else logits + bias
    z = z / tau
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def row_norms(x: np.ndarray, keepdims: bool = False) -> np.ndarray:
    """Euclidean norms over the last axis."""
    return np.sqrt((x * x).sum(axis=-1, keepdims=keepdims))


def _padded(norms: np.ndarray, strict: bool, what: str) -> np.ndarray:
    """The denominators for norms: strict raises on a (near) zero norm,
    otherwise each is padded with EPS."""
    if strict:
        worst = float(norms.min())
        if worst < EPS:
            raise DegenerateProxyError(f"{what} has norm {worst:.3e}; cannot rescale")
        return norms
    return norms + EPS


def assemble_proxy(pi: np.ndarray, proxies: np.ndarray, strict: bool):
    """Rows gamma * (pi @ proxies), with gamma chosen so that each row's norm
    equals the pi-weighted sum of bank row norms. Returns the rows, then
    what the tail's VJP reads: the mixture pi @ proxies, the bank row norms,
    the mixed norms, the mixture's norms, their denominators and gamma (B, 1)."""
    combined = np.matmul(pi, proxies)
    bank = row_norms(proxies)
    mixed = np.matmul(pi, bank)
    norms = row_norms(combined)
    den = _padded(norms, strict, "proxy combination")
    gamma = (mixed / den).reshape(-1, 1)
    return gamma * combined, combined, bank, mixed, norms, den, gamma


def assemble_normal(pi: np.ndarray, normals: np.ndarray, strict: bool):
    """Unit hyperplane normals: the pi-mixture of normal rows, normalized.
    Returns the normals, then the mixture, its norms (B, 1) and their
    denominators."""
    w = np.matmul(pi, normals)
    norms = row_norms(w, keepdims=True)
    den = _padded(norms, strict, "hyperplane normal")
    return w / den, w, norms, den


def select(instances, bias_rows, leaves: dict[str, Tensor], tau: float, strict: bool):
    """Selection distributions pi (B, K) and one recorded op whose output
    stacks the proxies p and the unit hyperplane normals v, (2, B, d).

    bias_rows gives each instance's row in the user-bias table (0 is the
    anonymous row). Strict selection reads each prefix, non-strict selection
    each whole parent session. The op runs over the logits, proxies, normals
    and, when the table holds known users, user_bias. Its VJP sums pi's
    gradient in one order for every loss: the normal's share, then the
    proxy's two (the mixed norms', then the mixture's). A loss that reads v
    nowhere hands v a zero gradient, so normals get an exact zero.
    """
    sessions = [i.prefix if strict else i.parent_items for i in instances]
    logits = selection_logits(sessions, leaves)
    proxies, normals, table = leaves["proxies"], leaves["normals"], leaves["user_bias"]
    inputs = (logits, proxies, normals)
    rows = bias = None
    if table.data.shape[0] > 1:
        rows = np.asarray(bias_rows, dtype=np.int64)
        bias = table.data[rows]
        inputs += (table,)
    pi = selection_distribution(logits.data, tau, bias)
    p, combined, bank, mixed, norms, den, gamma = assemble_proxy(pi, proxies.data, strict)
    v, w, w_norms, w_den = assemble_normal(pi, normals.data, strict)

    def backward(g):
        g_p, g_v = g
        # the normal: v = w / w_den, w_den = ||w|| (+ EPS), w = pi @ normals
        g_w = g_v / w_den
        g_norms = (-g_v * w / (w_den * w_den)).sum(axis=1, keepdims=True)
        g_w += g_norms * w / np.maximum(w_norms, 1e-300)
        normals.accum(np.matmul(pi.T, g_w))
        g_pi = np.matmul(g_w, normals.data.T)
        # the proxy: p = gamma * combined, gamma = mixed / den, den = ||combined|| (+ EPS)
        g_gamma = (g_p * combined).sum(axis=1)
        g_combined = g_p * gamma
        g_mixed = g_gamma / den
        g_den = -g_gamma * mixed / (den * den)
        g_bank = np.matmul(pi.T, g_mixed[:, None]).reshape(bank.shape)
        proxies.accum(g_bank[:, None] * proxies.data / np.maximum(bank, 1e-300)[:, None])
        g_combined += g_den[:, None] * combined / np.maximum(norms, 1e-300)[:, None]
        proxies.accum(np.matmul(pi.T, g_combined))
        # pi's gradient: the normal's share, the mixed norms', then the mixture's
        g_pi += np.matmul(g_mixed[:, None], bank[:, None].T)
        g_pi += np.matmul(g_combined, proxies.data.T)
        # the softmax, the temperature and the bias
        g_z = pi * (g_pi - (g_pi * pi).sum(axis=-1, keepdims=True))
        g_z /= tau
        logits.accum(g_z)
        if rows is not None:
            table.accum_rows(rows, g_z)

    return pi, Tensor.record(np.stack((p, v)), inputs, backward)
