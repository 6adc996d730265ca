"""End-to-end training: parameters, batched objective, Adam, checkpoints.

The loss over a batch is the sum the model minimizes globally:

    J = sum_instances sum_negatives max(margin + d(s,pos) - d(s,neg), 0)
        + lambda_dist   * sum_instances d(s, pos)
        + lambda_orthog * sum_instances |v(s) . p(s)| / ||p(s)||

built as one recorded autodiff graph per batch through the same forward
evaluation uses (scoring.session_state), in its training regime: selection
reads the whole parent session, and proxy assembly and hyperplane
normalization pad their denominators with 1e-12 instead of raising on
degenerate mixtures. The anonymous row 0 of the user-bias table has its
gradient zeroed so it stays pinned at zero.

After every Adam step, item and proxy rows are clipped back into the unit
ball and normal rows are rescaled to exactly unit norm.

Each leaf gets one gradient array per epoch, zeroed in place before every
batch. Adam runs over cache-sized blocks of rows in two scratch rows the
Adam state keeps, in the operation order of the plain expressions, so it is
bit-identical to computing them with table-sized temporaries. Each batch's
negatives come from one sample_negatives call.
"""

from __future__ import annotations

import contextlib
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
from .autodiff import Tensor
from .data import (
    TASKS,
    PredictionInstance,
    SessionSplit,
    expand_all,
    flag_known_users,
    sample_negatives,
)
from .errors import CheckpointError, ConfigError, DataError, NumericError
from .scoring import SCORING_MODES, distance, project, session_state
from .selector import EPS, AnnealSchedule, temperature

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
        """Every rule the field values in `values` break, one message each."""
        out = []
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
        norms = np.linalg.norm(table, axis=1)
        over = norms > 1.0
        if over.any():
            table[over] /= norms[over, None]
    named["normals"] /= np.maximum(np.linalg.norm(named["normals"], axis=1), EPS)[:, None]
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
    session, the short-term branch from its prefix.
    """
    B = len(instances)
    if B == 0:
        raise DataError("empty batch")
    neg = np.asarray(negatives, dtype=np.int64)
    if neg.shape != (B, cfg.negatives):
        raise ConfigError(f"negatives shape {neg.shape} != {(B, cfg.negatives)}")
    if bias_rows is None:
        bias_rows = [0] * B
    mode = cfg.mode
    p, v, q = session_state(instances, bias_rows, leaves, tau, mode, strict=False)
    d_dim = leaves["items"].data.shape[1]
    pos_ids = np.asarray([i.target for i in instances], dtype=np.int64)
    pos_t = project(leaves["items"].gather(pos_ids), v, mode)  # (B, d)
    neg_t = project(leaves["items"].gather(neg), v, mode)  # (B, C, d)
    d_pos = distance(q, pos_t, mode)  # (B,)
    d_neg = distance(q.reshape(B, 1, d_dim), neg_t, mode)  # (B, C)

    hinge = (cfg.margin + d_pos.reshape(B, 1) - d_neg).relu().sum()
    J = hinge
    parts = {
        "hinge": float(hinge.data),
        "reg_dist": float(d_pos.data.sum()),
        "reg_orthog": 0.0,
    }
    if cfg.lambda_dist != 0.0:
        J = J + cfg.lambda_dist * d_pos.sum()
    if p is not None:
        orthog = (v.inner(p).abs() / (p.l2norm() + EPS)).sum()
        parts["reg_orthog"] = float(orthog.data)
        if cfg.lambda_orthog != 0.0:
            J = J + cfg.lambda_orthog * orthog
    parts["loss"] = float(J.data)
    return J, parts


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

    Keeps the best-validation parameter snapshot; stops after cfg.patience
    epochs without strict improvement or at cfg.epochs, whichever is first.
    Pass start_epoch/params/adam to resume a checkpointed run; everything
    else (shuffles, negatives) replays deterministically from (seed, epoch).
    After each epoch, log_fn(stats, seconds) gets the epoch's deterministic
    stats and, apart from them, its wall-clock seconds.
    """
    if start_epoch >= cfg.epochs:
        raise ConfigError(f"start_epoch {start_epoch} leaves no epoch of {cfg.epochs} to run")
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
        if best is None or stats["val_recall20"] > best.val_recall20:
            best = TrainResult(
                params=params.copy(),
                adam=adam.copy(),
                epoch=epoch,
                tau=tau,
                val_recall20=stats["val_recall20"],
                history=history,
            )
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= cfg.patience:
                break
    return best


# -- checkpoints -----------------------------------------------------------------

CHECKPOINT_MAGIC = b"PXRC"
CHECKPOINT_VERSION = 2
CHECKPOINT_VERSIONS = (1, 2)  # readable; version 1 carries no checksums


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
    followed by their zlib CRC-32. The file is written under a temporary
    name beside path, synced, and then renamed over path, so a crash
    mid-write never leaves a partial file under the final name.
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

    def write_block(fh, *parts: bytes) -> None:
        crc = 0
        for part in parts:
            fh.write(part)
            crc = zlib.crc32(part, crc)
        fh.write(struct.pack("<I", crc))

    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            fh.write(struct.pack("<I", CHECKPOINT_VERSION))
            write_block(fh, struct.pack("<Q", len(meta_bytes)), meta_bytes)
            fh.write(struct.pack("<Q", len(tensors)))
            for name in sorted(tensors):
                arr = np.ascontiguousarray(tensors[name], dtype="<f8")
                name_b = name.encode("utf-8")
                head = struct.pack("<H", len(name_b)) + name_b
                head += struct.pack(f"<B{arr.ndim}Q", arr.ndim, *arr.shape)
                write_block(fh, head, arr.tobytes(order="C"))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def load_checkpoint(path: str) -> tuple[ModelParams, AdamState, dict]:
    """Read a checkpoint back; raises CheckpointError on any corruption."""
    crc = 0  # CRC-32 of the bytes read since the last checksum

    def take(fh, n, what):
        nonlocal crc
        if n > size - fh.tell():  # also keeps a corrupt length from allocating
            raise CheckpointError(f"{path}: truncated while reading {what}")
        b = fh.read(n)
        crc = zlib.crc32(b, crc)
        return b

    def verify(fh, what):
        nonlocal crc
        if version >= 2:
            seen = crc
            (stored,) = struct.unpack("<I", take(fh, 4, f"checksum of {what}"))
            if stored != seen:
                raise CheckpointError(f"{path}: checksum mismatch in {what}")

    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if take(fh, 4, "magic") != CHECKPOINT_MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint (bad magic)")
        (version,) = struct.unpack("<I", take(fh, 4, "version"))
        if version not in CHECKPOINT_VERSIONS:
            raise CheckpointError(
                f"{path}: format version {version}, expected one of {CHECKPOINT_VERSIONS}"
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
            tensors[name] = data.reshape(shape).copy()
        if fh.read(1):
            raise CheckpointError(f"{path}: trailing bytes after last tensor")

    shapes = param_shapes(meta["item_count"], meta["config"], len(meta["user_tags"]))
    expected = {f"{prefix}{k}": shape for prefix in ("", "adam.m.", "adam.v.")
                for k, shape in shapes.items()}
    missing = set(expected) - set(tensors)
    if missing:
        raise CheckpointError(f"{path}: missing tensors {sorted(missing)}")
    wrong = sorted(k for k, shape in expected.items() if tensors[k].shape != shape)
    if wrong:
        raise CheckpointError(f"{path}: tensors {wrong} do not match the shapes in the metadata")
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
