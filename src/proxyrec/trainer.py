"""End-to-end training: parameters, batched objective, Adam, checkpoints.

The loss over a batch is the sum the model minimizes globally:

    J = sum_instances sum_negatives max(margin + d(s,pos) - d(s,neg), 0)
        + lambda_dist   * sum_instances d(s, pos)
        + lambda_orthog * sum_instances |v(s) . p(s)| / ||p(s)||

built as one recorded autodiff graph per batch of at most six ops: the
selector's logits and tail and the encoder, which evaluation runs too (in
its training regime here: selection reads the whole parent session, and
proxy assembly and hyperplane normalization pad their denominators with
1e-12 instead of raising on degenerate mixtures), the gathers of the target
and negative item rows, and loss_head, one op from those to J. The
anonymous row 0 of the user-bias table has its gradient zeroed so it stays
pinned at zero.

After every Adam step, item and proxy rows are clipped back into the unit
ball and normal rows are rescaled to exactly unit norm.

Each leaf gets one gradient array per epoch, zeroed in place before every
batch. Adam runs over cache-sized blocks of rows in two scratch rows the
Adam state keeps, in the operation order of the plain expressions, so it is
bit-identical to computing them with table-sized temporaries. Each batch's
negatives come from one sample_negatives call. fit first raises glibc
malloc's mmap and trim thresholds for the whole process, so the memory one
batch's graph frees is reused by the next instead of being returned to the
system and faulted back in.
"""

from __future__ import annotations

import ctypes
import dataclasses
import json
import math
import os
import struct
import time
import zlib
from dataclasses import dataclass

import numpy as np

from . import evaluator
from .autodiff import Tensor, kink
from .data import (
    TASKS,
    PredictionInstance,
    SessionSplit,
    expand_all,
    flag_known_users,
    sample_negatives,
    staged,
)
from .errors import CheckpointError, ConfigError, DataError, NumericError
from .encoder import encode_prefixes
from .scoring import SCORING_MODES, distance, mode_terms, project, query
from .selector import EPS, AnnealSchedule, row_norms, select, temperature

# fixed seed-stream tags so resumed runs redraw the exact same randomness
_STREAM_INIT = 101
_STREAM_EPOCH = 211
_STREAM_FLAG = 307


@dataclass
class TrainConfig:
    embed_dim: int = 64
    proxy_count: int = 100
    max_len: int = 50
    learning_rate: float = 0.001
    batch_size: int = 128
    epochs: int = 30
    patience: int = 10
    negatives: int = 10
    margin: float = 0.5
    lambda_dist: float = 0.1
    lambda_orthog: float = 0.1
    mode: str = "full"
    task: str = "unseen"
    anneal_start: float = 3.0
    anneal_end: float = 0.01
    anneal_epochs: int = 10
    seed: int = 0
    known_user_ratio: float = 0.0
    min_sessions_per_user: int = 10

    def __post_init__(self):
        problems = TrainConfig.problems(vars(self))
        if problems:
            raise ConfigError("; ".join(problems))

    @staticmethod
    def problems(values: dict) -> list[str]:
        """Every rule the field values in `values` break, one message each. A
        value not of its default's type (an int passes for a float; a bool is
        not an int) gets that message, and the other rules read the default in
        its place."""
        out, values = [], dict(values)
        for field in dataclasses.fields(TrainConfig):
            value, kind = values[field.name], type(field.default)
            kinds = (int, float) if kind is float else kind
            if not isinstance(value, kinds) or isinstance(value, bool):
                out.append(f"{field.name} must be {kind.__name__}, got {value!r}")
                values[field.name] = field.default
        if values["mode"] not in SCORING_MODES:
            out.append(f"unknown mode {values['mode']!r}; expected one of {SCORING_MODES}")
        if values["task"] not in TASKS:
            out.append(f"unknown task {values['task']!r}; expected one of {TASKS}")
        for name in ("embed_dim", "proxy_count", "max_len", "batch_size", "epochs", "negatives",
                     "patience"):
            if values[name] < 1:
                out.append(f"{name} must be >= 1, got {values[name]}")
        if values["seed"] < 0:
            out.append(f"seed must be >= 0, got {values['seed']}")
        if not 0.0 < values["learning_rate"] < math.inf:
            out.append(f"learning_rate must be finite and > 0, got {values['learning_rate']}")
        for name in ("margin", "lambda_dist", "lambda_orthog"):
            if not 0.0 <= values[name] < math.inf:
                out.append(f"{name} must be finite and >= 0, got {values[name]}")
        if not 0.0 <= values["known_user_ratio"] <= 1.0:
            out.append(f"known_user_ratio must be in [0, 1], got {values['known_user_ratio']}")
        try:
            AnnealSchedule(values["anneal_start"], values["anneal_end"], values["anneal_epochs"])
        except ConfigError as exc:
            out.append(f"anneal_start, anneal_end, anneal_epochs: {exc}")
        return out

    def schedule(self) -> AnnealSchedule:
        return AnnealSchedule(self.anneal_start, self.anneal_end, self.anneal_epochs)


class ModelParams:
    """Every parameter array by the name the forward reads (param_shapes),
    plus the tags of the known users, whose user-bias rows follow the pinned
    anonymous row 0."""

    def __init__(self, named: dict[str, np.ndarray], user_tags: list[str]):
        self._named = named
        self.user_tags = user_tags
        self._rows = {tag: i + 1 for i, tag in enumerate(user_tags)}

    @property
    def items(self) -> np.ndarray:
        return self._named["items"]

    @property
    def user_bias(self) -> np.ndarray:
        return self._named["user_bias"]

    @property
    def item_count(self) -> int:
        return self.items.shape[0] - 1

    def bias_row(self, tag: str | None) -> int:
        return self._rows.get(tag, 0)

    def bias_rows(self, instances) -> list[int]:
        """Each instance's user-bias row; 0 unless its user is flagged known."""
        return [self.bias_row(i.user_tag) if i.known_user else 0 for i in instances]

    def named(self) -> dict[str, np.ndarray]:
        return self._named

    def copy(self) -> "ModelParams":
        return ModelParams({k: v.copy() for k, v in self._named.items()}, list(self.user_tags))


def param_shapes(item_count: int, cfg: dict, users: int) -> dict[str, tuple[int, ...]]:
    """Every model parameter, by the name the forward reads, and its shape.

    cfg maps embed_dim, proxy_count and max_len (a TrainConfig's fields);
    users counts the known users. init_model draws the tables in this order.
    """
    d, k, L = cfg["embed_dim"], cfg["proxy_count"], cfg["max_len"]
    hidden = (d + k) // 2
    return {
        "items": (item_count + 1, d),  # row 0 is unused padding
        "proxies": (k, d),  # rows kept inside the unit ball
        "normals": (k, d),  # rows kept at unit norm
        "sel_w1": (d, hidden),
        "sel_w2": (hidden, k),
        "sel_pos": (L, d),  # forward positional rows
        "enc_wq": (d, d),
        "enc_wk": (d, d),
        "enc_w1": (d, d),
        "enc_w2": (d, d),
        "enc_pos": (L, d),  # reverse positional rows
        "enc_b1": (d,),
        "enc_b2": (d,),
        "user_bias": (users + 1, k),  # row 0 is the pinned anonymous row
    }


_ZERO_INIT = ("enc_b1", "enc_b2", "user_bias")  # every other table is drawn


def init_model(item_count: int, cfg: TrainConfig, user_tags: list[str] | None = None) -> ModelParams:
    """Fresh parameters: uniform [-1/sqrt(d), 1/sqrt(d)] draws in fixed order.

    Embedding rows already fit inside the unit ball at that scale but are
    clipped anyway; normal rows are rescaled to exactly unit norm. Head
    biases and user biases start at zero.
    """
    tags = list(user_tags or [])
    rng = np.random.default_rng([cfg.seed, _STREAM_INIT])
    bound = 1.0 / np.sqrt(cfg.embed_dim)
    try:
        named = {
            name: np.zeros(shape) if name in _ZERO_INIT else rng.uniform(-bound, bound, size=shape)
            for name, shape in param_shapes(item_count, vars(cfg), len(tags)).items()
        }
    except MemoryError:
        raise ConfigError(
            f"parameter tables for {item_count} items with embed_dim {cfg.embed_dim}, "
            f"proxy_count {cfg.proxy_count} and max_len {cfg.max_len} do not fit in memory"
        )
    named["items"][0] = 0.0
    params = ModelParams(named, tags)
    project_constraints(params)
    return params


def project_constraints(params: ModelParams) -> None:
    """Clip item/proxy rows into the unit ball; renormalize normal rows."""
    named = params.named()
    for table in (named["items"], named["proxies"]):
        norms = row_norms(table)
        over = norms > 1.0
        if over.any():
            table[over] /= norms[over, None]
    named["normals"] /= np.maximum(row_norms(named["normals"]), EPS)[:, None]
    named["user_bias"][0] = 0.0


def make_leaves(params: ModelParams) -> dict[str, Tensor]:
    """Wrap the parameter arrays as shared-storage autodiff leaves."""
    return {name: Tensor(arr, requires_grad=True) for name, arr in params.named().items()}


# -- Adam ----------------------------------------------------------------------


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# elements per adam_step block: a block's p, g, m, v and two scratch rows
# stay in cache through all of the update's operations
_ADAM_BLOCK = 16_384


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0
    # adam_step's two work rows, one block long; not state
    scratch: np.ndarray = dataclasses.field(
        default_factory=lambda: np.empty((2, 0)), repr=False, compare=False
    )

    @classmethod
    def zeros(cls, named: dict[str, np.ndarray]) -> "AdamState":
        return cls(
            m={k: np.zeros_like(a) for k, a in named.items()},
            v={k: np.zeros_like(a) for k, a in named.items()},
        )

    def copy(self) -> "AdamState":
        return AdamState(
            m={k: a.copy() for k, a in self.m.items()},
            v={k: a.copy() for k, a in self.v.items()},
            step=self.step,
        )


def adam_step(
    named: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamState,
    lr: float,
) -> None:
    """One in-place Adam update with bias correction.

    Each table is updated in blocks of rows of about _ADAM_BLOCK elements.
    Every intermediate goes to the state's two scratch rows, in the order of
    m = b1*m + (1-b1)*g, v = b2*v + ((1-b2)*g)*g and
    p -= lr*(m/c1) / (sqrt(v/c2) + eps), so each element is bit-equal to
    evaluating those expressions over whole tables with temporaries.
    """
    state.step += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    c1 = 1.0 - b1 ** state.step
    c2 = 1.0 - b2 ** state.step
    for name, p in named.items():
        row = p.size // len(p)
        rows = min(len(p), max(1, _ADAM_BLOCK // row))
        if state.scratch.shape[1] < rows * row:
            state.scratch = np.empty((2, rows * row))
        for lo in range(0, len(p), rows):
            block = slice(lo, lo + rows)
            pb, g = p[block], grads[name][block]
            m, v = state.m[name][block], state.v[name][block]
            a = state.scratch[0, : pb.size].reshape(pb.shape)
            b = state.scratch[1, : pb.size].reshape(pb.shape)
            m *= b1
            m += np.multiply(1 - b1, g, out=a)
            v *= b2
            np.multiply(1 - b2, g, out=a)
            v += np.multiply(a, g, out=a)
            np.divide(m, c1, out=a)
            np.multiply(lr, a, out=a)
            np.divide(v, c2, out=b)
            np.sqrt(b, out=b)
            b += ADAM_EPS
            pb -= np.divide(a, b, out=a)


# -- batched objective -----------------------------------------------------------


def _project_vjp(g_out: np.ndarray, x: np.ndarray, v: np.ndarray):
    """The VJP of project's x - (x.v) v for output gradient g_out, which it
    overwrites: x's gradient, and v's shares in the order its ops hand them
    (the product's, then the inner product's). A candidate stack (B, C, d)
    sums both over its rows, as the reshaped normal it reads, into one."""
    stacked = x.ndim > v.ndim
    vb = v.reshape(v.shape[0], 1, v.shape[-1]) if stacked else v
    along = (x * vb).sum(axis=-1, keepdims=True)
    g_prod = -g_out
    g_along = (g_prod * vb).sum(axis=-1, keepdims=True)
    g_x = g_out
    g_x += g_along * vb
    shares = [g_prod * along, g_along * x]
    if stacked:
        summed = shares[0].sum(axis=1, keepdims=True)
        summed += shares[1].sum(axis=1, keepdims=True)
        shares = [summed.reshape(v.shape)]
    return g_x, shares


def _distance_vjp(g_out: np.ndarray, q: np.ndarray, x: np.ndarray, dot: bool):
    """The VJP of distance(q, x) for output gradient g_out: q's gradient,
    summed onto q's shape, and x's."""
    if dot:
        g = -g_out[..., None]
        g_q, g_x = g * x, g * q
    else:
        g_q = 2.0 * (q - x) * g_out[..., None]
        g_x = -g_q
    if g_q.shape != q.shape:
        g_q = g_q.sum(axis=1, keepdims=True)
    return g_q, g_x


def loss_head(neg_rows: Tensor, s: Tensor | None, pos_rows: Tensor, pv: Tensor | None,
              cfg: TrainConfig) -> tuple[Tensor, dict]:
    """The batch loss J and its telemetry parts, as one recorded op over the
    gathered negative rows (B, C, d), the short-term states s, the gathered
    target rows (B, d) and the stacked proxies and normals pv (select). The
    mode's Terms say which of s and pv exist and which terms J has.

    The forward scores through scoring's query, project and distance, and
    reports the hinge and the orthogonality pre-activations to
    autodiff.kink. The VJP recomputes the projections' inner products and
    the distances' differences rather than keep them.

    Floating point addition does not associate, so v and the items table
    take their contributions in one fixed order, the same for every mode and
    both lambdas, minus the absent terms: v the negatives' projection's, the
    short-term state's, the targets', then the orthogonality term's; items,
    through the inputs' order, the negatives' gather's, the encoder's, the
    targets' gather's, then the selector's.
    """
    terms, mode = mode_terms(cfg.mode), cfg.mode
    neg, pos = neg_rows.data, pos_rows.data
    B, d = pos.shape
    p, v = pv.data if terms.proxy else (None, None)
    q = query(p, v, s.data if terms.short else None, mode)
    q3 = q.reshape(B, 1, d)
    pos_t, neg_t = project(pos, v, mode), project(neg, v, mode)
    d_pos = distance(q, pos_t, mode)
    pre = (d_pos.reshape(B, 1) + cfg.margin) - distance(q3, neg_t, mode)
    kink(pre)
    hinge = np.maximum(pre, 0.0).sum()
    J = hinge
    if cfg.lambda_dist != 0.0:
        J = J + d_pos.sum() * cfg.lambda_dist
    orthog = 0.0
    if terms.proxy:
        along = (v * p).sum(axis=-1)
        kink(along)
        p_norms = row_norms(p)
        p_den = p_norms + EPS
        orthog = (np.abs(along) / p_den).sum()
        if cfg.lambda_orthog != 0.0:
            J = J + orthog * cfg.lambda_orthog
    parts = {"hinge": float(hinge), "reg_dist": float(d_pos.sum()),
             "reg_orthog": float(orthog), "loss": float(J)}

    def backward(g):
        # the hinge, the distance regularizer, then both distances' VJPs
        g_pre = np.broadcast_to(g, pre.shape) * (pre > 0.0)
        g_d_pos = g_pre.sum(axis=1)
        if cfg.lambda_dist != 0.0:
            g_d_pos += g * cfg.lambda_dist
        g_q3, g_neg = _distance_vjp(-g_pre, q3, neg_t, terms.dot)
        g_q, g_pos = _distance_vjp(g_d_pos, q, pos_t, terms.dot)
        g_q += g_q3.reshape(B, d)
        # the query's terms, then the projections
        g_p = g_s = None
        if terms.proxy:
            g_p = g_q.copy() if terms.short else g_q
        if terms.short:
            g_s = g_q
        v_shares = []
        if terms.projected:
            g_neg, neg_shares = _project_vjp(g_neg, neg, v)
            g_pos, pos_shares = _project_vjp(g_pos, pos, v)
            s_shares = []
            if terms.short:
                g_s, s_shares = _project_vjp(g_q, s.data, v)
            v_shares = neg_shares + s_shares + pos_shares
        # the orthogonality term |v.p| / (||p|| + EPS)
        if terms.proxy and cfg.lambda_orthog != 0.0:
            g_ratio = np.broadcast_to(g * cfg.lambda_orthog, (B,))
            g_den = -g_ratio * np.abs(along) / (p_den * p_den)
            g_along = (g_ratio / p_den * np.sign(along))[:, None]
            v_shares.append(g_along * p)
            g_p += g_along * v
            g_p += g_den[:, None] * p / np.maximum(p_norms, 1e-300)[:, None]
        neg_rows.accum(g_neg)
        pos_rows.accum(g_pos)
        if terms.short:
            s.accum(g_s)
        if terms.proxy:
            g_v = sum(v_shares[1:], v_shares[0]) if v_shares else np.zeros((B, d))
            pv.accum(np.stack((g_p, g_v)))

    inputs = tuple(t for t in (neg_rows, s, pos_rows, pv) if t is not None)
    return Tensor.record(np.asarray(J), inputs, backward), parts


def objective(
    instances: list[PredictionInstance],
    leaves: dict[str, Tensor],
    tau: float,
    cfg: TrainConfig,
    negatives: np.ndarray,
    bias_rows: list[int] | None = None,
) -> tuple[Tensor, dict]:
    """Recorded graph for the batch loss; returns (scalar J, telemetry parts).

    negatives is an int array (batch, negatives). bias_rows gives each
    instance's row in the user-bias table (0 = anonymous); omitted means all
    anonymous. The proxy branch runs from each instance's whole parent
    session, the short-term branch from its prefix. Six ops at most: the
    selector's logits and tail, the encoder, the two item gathers and the
    loss head.
    """
    B = len(instances)
    if B == 0:
        raise DataError("empty batch")
    neg = np.asarray(negatives, dtype=np.int64)
    if neg.shape != (B, cfg.negatives):
        raise ConfigError(f"negatives shape {neg.shape} != {(B, cfg.negatives)}")
    if bias_rows is None:
        bias_rows = [0] * B
    terms = mode_terms(cfg.mode)
    pv = s = None
    if terms.proxy:
        pv = select(instances, bias_rows, leaves, tau, strict=False)[1]
    if terms.short:
        s = encode_prefixes([i.prefix for i in instances], leaves)
    items = leaves["items"]
    pos_ids = np.asarray([i.target for i in instances], dtype=np.int64)
    return loss_head(items.gather(neg), s, items.gather(pos_ids), pv, cfg)


# -- epoch loop -------------------------------------------------------------------


def train_epoch(
    instances: list[PredictionInstance],
    params: ModelParams,
    leaves: dict[str, Tensor],
    adam: AdamState,
    cfg: TrainConfig,
    epoch: int,
    tau: float,
) -> dict:
    """One pass: shuffle instances, fresh negatives per batch, Adam updates.

    The epoch's shuffle and negative draws come from a generator derived from
    (seed, epoch) alone, so resuming from a checkpoint replays the identical
    stream without any saved RNG state. Each leaf's gradient array is made
    once per epoch and zeroed in place before every batch.
    """
    rng = np.random.default_rng([cfg.seed, _STREAM_EPOCH, epoch])
    perm = rng.permutation(len(instances))
    n_items = params.item_count
    named = params.named()
    totals = {"loss": 0.0, "hinge": 0.0, "reg_dist": 0.0, "reg_orthog": 0.0}
    grad_norm_sum = 0.0
    n_batches = 0
    for t in leaves.values():
        t.grad = np.empty_like(t.data)
    for start in range(0, len(instances), cfg.batch_size):
        bidx = perm[start : start + cfg.batch_size]
        batch = [instances[i] for i in bidx]
        targets = np.fromiter((inst.target for inst in batch), dtype=np.int64, count=len(batch))
        negs = sample_negatives(targets, n_items, cfg.negatives, rng)
        for t in leaves.values():
            # backward adds into the array: 0.0 + g is g, and -0.0 becomes
            # +0.0, as when backward allocates it
            t.grad.fill(0.0)
        J, parts = objective(batch, leaves, tau, cfg, negs, params.bias_rows(batch))
        if not np.isfinite(J.data):
            raise NumericError(f"non-finite loss in epoch {epoch}, batch {n_batches}")
        J.backward()
        grads = {name: t.grad for name, t in leaves.items()}
        grads["user_bias"][0] = 0.0  # anonymous row stays pinned
        grad_norm_sum += float(np.sqrt(sum(float(np.vdot(g, g)) for g in grads.values())))
        adam_step(named, grads, adam, cfg.learning_rate)
        project_constraints(params)
        for key in totals:
            totals[key] += parts[key]
        n_batches += 1
    n = max(len(instances), 1)
    return {
        "epoch": epoch,
        "tau": tau,
        "loss": totals["loss"] / n,
        "hinge": totals["hinge"] / n,
        "reg_dist": totals["reg_dist"] / n,
        "reg_orthog": totals["reg_orthog"] / n,
        "grad_norm": grad_norm_sum / max(n_batches, 1),
        "batches": n_batches,
    }


@dataclass
class TrainResult:
    params: ModelParams
    adam: AdamState
    epoch: int
    tau: float
    val_recall20: float
    history: list[dict]


def pick_known_users(split: SessionSplit, cfg: TrainConfig) -> list[str]:
    """Seeded known-user draw; one stream shared by every caller."""
    rng = np.random.default_rng([cfg.seed, _STREAM_FLAG])
    return flag_known_users(
        split.train, cfg.known_user_ratio, cfg.min_sessions_per_user, rng
    )


def _keep_freed_heap() -> None:
    """Set glibc malloc's mmap threshold (M_MMAP_THRESHOLD, -3) to 32 MB and
    its trim threshold (M_TRIM_THRESHOLD, -1) to 64 MB, where its dynamic
    rule tops out: blocks up to 32 MB come from the heap, and up to 64 MB of
    free heap top stays mapped. Both are needed, since setting either one
    turns the dynamic rule off. Does nothing where mallopt is not found."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(-3, 32 << 20)
    mallopt(-1, 64 << 20)


def fit(
    split: SessionSplit,
    cfg: TrainConfig,
    known_users: list[str] | None = None,
    log_fn=None,
    start_epoch: int = 0,
    params: ModelParams | None = None,
    adam: AdamState | None = None,
) -> TrainResult:
    """Train with per-epoch validation recall@20 and early stopping.

    Keeps the best-validation snapshot of the parameters and the Adam state,
    allocated once and overwritten in place; stops after cfg.patience
    epochs without strict improvement or at cfg.epochs, whichever is first.
    Pass start_epoch/params/adam to resume a checkpointed run; everything
    else (shuffles, negatives) replays deterministically from (seed, epoch).
    After each epoch, log_fn(stats, seconds) gets the epoch's deterministic
    stats and, apart from them, its wall-clock seconds.
    """
    if start_epoch >= cfg.epochs:
        raise ConfigError(f"start_epoch {start_epoch} leaves no epoch of {cfg.epochs} to run")
    _keep_freed_heap()
    known = set(known_users or [])
    train_inst = expand_all(split.train, cfg.task, known)
    valid_inst = expand_all(split.valid, cfg.task, known)
    if not train_inst:
        raise DataError("no training instances after expansion")
    if not valid_inst:
        raise DataError("no validation instances after expansion")

    if params is None:
        params = init_model(split.item_count, cfg, sorted(known))
    if adam is None:
        adam = AdamState.zeros(params.named())
    leaves = make_leaves(params)
    sched = cfg.schedule()

    best: TrainResult | None = None
    bad_epochs = 0
    history: list[dict] = []
    for epoch in range(start_epoch, cfg.epochs):
        tau = temperature(epoch, sched)
        t0 = time.monotonic()
        stats = train_epoch(train_inst, params, leaves, adam, cfg, epoch, tau)
        # looked up on the module per call, so a caller (the benchmark) can
        # time validation by replacing proxyrec.evaluator.evaluate
        report = evaluator.evaluate(params, valid_inst, cfg.task, (20,), tau, mode=cfg.mode)
        stats["val_recall20"] = report.recall[20]
        history.append(stats)
        if log_fn is not None:
            log_fn(stats, round(time.monotonic() - t0, 3))
        val = stats["val_recall20"]
        if best is None:  # the one snapshot; each later improvement overwrites it in place
            best = TrainResult(params.copy(), adam.copy(), epoch, tau, val, history)
            bad_epochs = 0
        elif val > best.val_recall20:
            for src, dst in (
                (params.named(), best.params.named()),
                (adam.m, best.adam.m),
                (adam.v, best.adam.v),
            ):
                for name, arr in src.items():
                    np.copyto(dst[name], arr)
            best.adam.step = adam.step
            best.epoch, best.tau, best.val_recall20 = epoch, tau, val
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= cfg.patience:
                break
    return best


# -- checkpoints -----------------------------------------------------------------

CHECKPOINT_MAGIC = b"PXRC"
CHECKPOINT_VERSION = 2


def save_checkpoint(
    path: str,
    params: ModelParams,
    adam: AdamState,
    epoch: int,
    tau: float,
    cfg: TrainConfig,
) -> None:
    """Versioned binary container: magic, version, JSON meta, tensor blocks.

    Tensor data is raw little-endian float64 in C order; blocks are sorted by
    name, so identical state always produces identical bytes. The meta (its
    length and bytes) and each tensor block (name, shape and data) are
    followed by their zlib CRC-32. The file is written and synced in a
    staging directory beside path (data.staged), then renamed over path, so
    a failed write never leaves a partial file under the final name.
    """
    tensors = dict(params.named())
    for name, arr in adam.m.items():
        tensors[f"adam.m.{name}"] = arr
    for name, arr in adam.v.items():
        tensors[f"adam.v.{name}"] = arr
    meta = {
        "epoch": epoch,
        "tau": tau,
        "adam_step": adam.step,
        "item_count": params.item_count,
        "user_tags": list(params.user_tags),
        "config": dataclasses.asdict(cfg),
    }
    meta_bytes = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")

    def write_block(fh, *parts: bytes | memoryview) -> None:
        crc = 0
        for part in parts:
            fh.write(part)
            crc = zlib.crc32(part, crc)
        fh.write(struct.pack("<I", crc))

    with staged(os.path.dirname(path) or ".") as stage:
        with open(os.path.join(stage, os.path.basename(path)), "wb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            fh.write(struct.pack("<I", CHECKPOINT_VERSION))
            write_block(fh, struct.pack("<Q", len(meta_bytes)), meta_bytes)
            fh.write(struct.pack("<Q", len(tensors)))
            for name in sorted(tensors):
                arr = np.ascontiguousarray(tensors[name], dtype="<f8")
                name_b = name.encode("utf-8")
                head = struct.pack("<H", len(name_b)) + name_b
                head += struct.pack(f"<B{arr.ndim}Q", arr.ndim, *arr.shape)
                write_block(fh, head, memoryview(arr))  # the array's own bytes, not a copy
            fh.flush()
            os.fsync(fh.fileno())


def load_checkpoint(path: str) -> tuple[ModelParams, AdamState, dict]:
    """Read a checkpoint back; raises CheckpointError on any corruption, and on
    a non-finite tensor or an item or proxy row outside the unit ball: training
    never writes those, and ranking's screen band grows with the row norms."""
    crc = 0  # CRC-32 of the bytes read since the last checksum

    def take(fh, n, what):
        nonlocal crc
        if n > size - fh.tell():  # also keeps a corrupt length from allocating
            raise CheckpointError(f"{path}: truncated while reading {what}")
        b = fh.read(n)
        crc = zlib.crc32(b, crc)
        return b

    def verify(fh, what):
        seen = crc
        (stored,) = struct.unpack("<I", take(fh, 4, f"checksum of {what}"))
        if stored != seen:
            raise CheckpointError(f"{path}: checksum mismatch in {what}")

    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if take(fh, 4, "magic") != CHECKPOINT_MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint (bad magic)")
        (version,) = struct.unpack("<I", take(fh, 4, "version"))
        if version != CHECKPOINT_VERSION:
            # version 1 carried no checksums, so its damage would load unseen
            raise CheckpointError(
                f"{path}: format version {version}, expected {CHECKPOINT_VERSION}"
            )
        crc = 0  # each checksum covers one block: the meta, then each tensor
        (meta_len,) = struct.unpack("<Q", take(fh, 8, "meta length"))
        meta_bytes = take(fh, meta_len, "meta")
        verify(fh, "meta")
        try:
            meta = json.loads(meta_bytes.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            raise CheckpointError(f"{path}: corrupt metadata: {exc}")
        problems = _meta_problems(meta)
        if problems:
            raise CheckpointError(f"{path}: metadata needs {'; '.join(problems)}")
        (n_tensors,) = struct.unpack("<Q", take(fh, 8, "tensor count"))
        tensors: dict[str, np.ndarray] = {}
        for _ in range(n_tensors):
            crc = 0
            (name_len,) = struct.unpack("<H", take(fh, 2, "name length"))
            name = take(fh, name_len, "name").decode("utf-8", errors="replace")
            (ndim,) = struct.unpack("<B", take(fh, 1, "ndim"))
            shape = tuple(
                struct.unpack("<Q", take(fh, 8, "dim"))[0] for _ in range(ndim)
            )
            count = math.prod(shape)
            data = np.frombuffer(take(fh, count * 8, f"tensor {name}"), dtype="<f8")
            verify(fh, f"tensor {name}")
            if name in tensors:
                raise CheckpointError(f"{path}: tensor {name} appears twice")
            tensors[name] = data.reshape(shape).copy()
        if fh.read(1):
            raise CheckpointError(f"{path}: trailing bytes after last tensor")

    shapes = param_shapes(meta["item_count"], meta["config"], len(meta["user_tags"]))
    expected = {f"{prefix}{k}": shape for prefix in ("", "adam.m.", "adam.v.")
                for k, shape in shapes.items()}
    missing = set(expected) - set(tensors)
    if missing:
        raise CheckpointError(f"{path}: missing tensors {sorted(missing)}")
    unknown = set(tensors) - set(expected)
    if unknown:
        raise CheckpointError(f"{path}: tensors {sorted(unknown)} are not in the parameter table")
    wrong = sorted(k for k, shape in expected.items() if tensors[k].shape != shape)
    if wrong:
        raise CheckpointError(f"{path}: tensors {wrong} do not match the shapes in the metadata")
    broken = sorted(k for k in expected if not np.isfinite(tensors[k]).all())
    if broken:
        raise CheckpointError(f"{path}: tensors {broken} hold non-finite values")
    with np.errstate(over="ignore"):  # a huge row's squared norm may overflow to inf
        outside = [k for k in ("items", "proxies") if (row_norms(tensors[k]) > 1 + 1e-9).any()]
    if outside:
        raise CheckpointError(f"{path}: tensors {outside} have rows outside the unit ball")
    params = ModelParams({k: tensors[k] for k in shapes}, meta["user_tags"])
    adam = AdamState(
        m={k: tensors[f"adam.m.{k}"] for k in shapes},
        v={k: tensors[f"adam.v.{k}"] for k in shapes},
        step=meta["adam_step"],
    )
    return params, adam, meta


def _meta_problems(meta) -> list[str]:
    """The rules broken by the metadata fields that loading and evaluation read."""
    if not isinstance(meta, dict):
        return ["to be a JSON object"]
    cfg = meta.get("config") if isinstance(meta.get("config"), dict) else {}
    count = lambda value, low: type(value) is int and value >= low
    tags, tau = meta.get("user_tags"), meta.get("tau")
    rules = {
        "item_count >= 1": count(meta.get("item_count"), 1),
        "adam_step >= 0": count(meta.get("adam_step"), 0),
        "a finite tau > 0": type(tau) in (int, float) and 0 < tau < math.inf,
        "user_tags as a list of strings": isinstance(tags, list)
        and all(isinstance(t, str) for t in tags),
        f"config.mode in {SCORING_MODES}": cfg.get("mode") in SCORING_MODES,
        f"config.task in {TASKS}": cfg.get("task") in TASKS,
        **{f"config.{k} >= 1": count(cfg.get(k), 1)
           for k in ("embed_dim", "proxy_count", "max_len")},
    }
    return [rule for rule, ok in rules.items() if not ok]
