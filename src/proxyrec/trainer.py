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
"""

from __future__ import annotations

import dataclasses
import json
import struct
import time
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor
from .data import (
    PredictionInstance,
    SessionSplit,
    expand_all,
    flag_known_users,
    sample_negatives,
)
from .encoder import EncoderParams
from .errors import CheckpointError, ConfigError, DataError, NumericError
from .scoring import SCORING_MODES, distance, project, session_state
from .selector import EPS, AnnealSchedule, ProxyBank, SelectorParams, temperature

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
        if self.mode not in SCORING_MODES:
            raise ConfigError(f"unknown mode {self.mode!r}; expected one of {SCORING_MODES}")
        if self.task not in ("repeat", "unseen"):
            raise ConfigError(f"unknown task {self.task!r}")
        for name in ("embed_dim", "proxy_count", "max_len", "batch_size", "epochs", "negatives"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")
        if not 0.0 <= self.known_user_ratio <= 1.0:
            raise ConfigError(f"known_user_ratio must be in [0, 1], got {self.known_user_ratio}")

    def schedule(self) -> AnnealSchedule:
        return AnnealSchedule(self.anneal_start, self.anneal_end, self.anneal_epochs)


@dataclass
class ModelParams:
    items: np.ndarray  # (N+1, d); row 0 is unused padding
    bank: ProxyBank
    selector: SelectorParams
    encoder: EncoderParams
    user_bias: np.ndarray  # (U+1, K); row 0 is the pinned anonymous row
    user_tags: list[str] = field(default_factory=list)

    def __post_init__(self):
        self._rows = {tag: i + 1 for i, tag in enumerate(self.user_tags)}

    @property
    def item_count(self) -> int:
        return self.items.shape[0] - 1

    @property
    def dim(self) -> int:
        return self.items.shape[1]

    @property
    def proxy_count(self) -> int:
        return self.bank.proxies.shape[0]

    def bias_row(self, tag: str | None) -> int:
        return self._rows.get(tag, 0)

    def bias_rows(self, instances) -> list[int]:
        """Each instance's user-bias row; 0 unless its user is flagged known."""
        return [self.bias_row(i.user_tag) if i.known_user else 0 for i in instances]

    def named(self) -> dict[str, np.ndarray]:
        return {
            "items": self.items,
            "proxies": self.bank.proxies,
            "normals": self.bank.normals,
            "sel_w1": self.selector.w1,
            "sel_w2": self.selector.w2,
            "sel_pos": self.selector.pos,
            "enc_wq": self.encoder.wq,
            "enc_wk": self.encoder.wk,
            "enc_w1": self.encoder.w1,
            "enc_w2": self.encoder.w2,
            "enc_b1": self.encoder.b1,
            "enc_b2": self.encoder.b2,
            "enc_pos": self.encoder.pos,
            "user_bias": self.user_bias,
        }

    def copy(self) -> "ModelParams":
        return _params_from_named(
            {k: v.copy() for k, v in self.named().items()}, list(self.user_tags)
        )


def _params_from_named(t: dict[str, np.ndarray], user_tags: list[str]) -> ModelParams:
    return ModelParams(
        items=t["items"],
        bank=ProxyBank(proxies=t["proxies"], normals=t["normals"]),
        selector=SelectorParams(w1=t["sel_w1"], w2=t["sel_w2"], pos=t["sel_pos"]),
        encoder=EncoderParams(
            wq=t["enc_wq"], wk=t["enc_wk"], w1=t["enc_w1"], w2=t["enc_w2"],
            b1=t["enc_b1"], b2=t["enc_b2"], pos=t["enc_pos"],
        ),
        user_bias=t["user_bias"],
        user_tags=user_tags,
    )


def init_model(item_count: int, cfg: TrainConfig, user_tags: list[str] | None = None) -> ModelParams:
    """Fresh parameters: uniform [-1/sqrt(d), 1/sqrt(d)] draws in fixed order.

    Embedding rows already fit inside the unit ball at that scale but are
    clipped anyway; normal rows are rescaled to exactly unit norm. Head
    biases and user biases start at zero.
    """
    d, k, L = cfg.embed_dim, cfg.proxy_count, cfg.max_len
    hidden = (d + k) // 2
    rng = np.random.default_rng([cfg.seed, _STREAM_INIT])
    bound = 1.0 / np.sqrt(d)
    u = lambda *shape: rng.uniform(-bound, bound, size=shape)

    items = u(item_count + 1, d)
    items[0] = 0.0
    proxies = u(k, d)
    normals = u(k, d)
    sel_w1 = u(d, hidden)
    sel_w2 = u(hidden, k)
    sel_pos = u(L, d)
    enc_wq = u(d, d)
    enc_wk = u(d, d)
    enc_w1 = u(d, d)
    enc_w2 = u(d, d)
    enc_pos = u(L, d)

    tags = list(user_tags or [])
    params = ModelParams(
        items=items,
        bank=ProxyBank(proxies=proxies, normals=normals),
        selector=SelectorParams(w1=sel_w1, w2=sel_w2, pos=sel_pos),
        encoder=EncoderParams(
            wq=enc_wq, wk=enc_wk, w1=enc_w1, w2=enc_w2,
            b1=np.zeros(d), b2=np.zeros(d), pos=enc_pos,
        ),
        user_bias=np.zeros((len(tags) + 1, k)),
        user_tags=tags,
    )
    project_constraints(params)
    return params


def project_constraints(params: ModelParams) -> None:
    """Clip item/proxy rows into the unit ball; renormalize normal rows."""
    for table in (params.items, params.bank.proxies):
        norms = np.linalg.norm(table, axis=1)
        over = norms > 1.0
        if over.any():
            table[over] /= norms[over, None]
    vn = np.linalg.norm(params.bank.normals, axis=1)
    params.bank.normals /= np.maximum(vn, EPS)[:, None]
    params.user_bias[0] = 0.0


def make_leaves(params: ModelParams) -> dict[str, Tensor]:
    """Wrap the parameter arrays as shared-storage autodiff leaves."""
    return {name: Tensor(arr, requires_grad=True) for name, arr in params.named().items()}


# -- Adam ----------------------------------------------------------------------


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

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
            step=self.step, beta1=self.beta1, beta2=self.beta2, eps=self.eps,
        )


def adam_step(
    named: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamState,
    lr: float,
) -> None:
    """One in-place Adam update with bias correction."""
    state.step += 1
    b1, b2 = state.beta1, state.beta2
    c1 = 1.0 - b1 ** state.step
    c2 = 1.0 - b2 ** state.step
    for name, p in named.items():
        g = grads[name]
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * g * g
        p -= lr * (m / c1) / (np.sqrt(v / c2) + state.eps)


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
        orthog = (v.inner(p).abs() / (p.l2norm(axis=-1) + EPS)).sum()
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
    stream without any saved RNG state.
    """
    rng = np.random.default_rng([cfg.seed, _STREAM_EPOCH, epoch])
    perm = rng.permutation(len(instances))
    n_items = params.item_count
    named = params.named()
    totals = {"loss": 0.0, "hinge": 0.0, "reg_dist": 0.0, "reg_orthog": 0.0}
    grad_norm_sum = 0.0
    n_batches = 0
    for start in range(0, len(instances), cfg.batch_size):
        bidx = perm[start : start + cfg.batch_size]
        batch = [instances[i] for i in bidx]
        negs = np.stack(
            [sample_negatives(inst.target, n_items, cfg.negatives, rng) for inst in batch]
        )
        for t in leaves.values():
            t.zero_grad()
        J, parts = objective(batch, leaves, tau, cfg, negs, params.bias_rows(batch))
        if not np.isfinite(J.data):
            raise NumericError(f"non-finite loss in epoch {epoch}, batch {n_batches}")
        J.backward()
        grads = {
            name: (t.grad if t.grad is not None else np.zeros_like(t.data))
            for name, t in leaves.items()
        }
        grads["user_bias"][0] = 0.0  # anonymous row stays pinned
        grad_norm_sum += float(np.sqrt(sum(float((g * g).sum()) for g in grads.values())))
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
    """
    from .evaluator import evaluate  # local import keeps module layering one-way

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
        report = evaluate(params, valid_inst, cfg.task, (20,), tau, mode=cfg.mode)
        stats["val_recall20"] = report.recall[20]
        stats["seconds"] = round(time.monotonic() - t0, 3)
        history.append(stats)
        if log_fn is not None:
            log_fn(stats)
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
    best.history = history
    return best


# -- checkpoints -----------------------------------------------------------------

CHECKPOINT_MAGIC = b"PXRC"
CHECKPOINT_VERSION = 1


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
    name, so identical state always produces identical bytes.
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
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(struct.pack("<Q", len(meta_bytes)))
        fh.write(meta_bytes)
        fh.write(struct.pack("<Q", len(tensors)))
        for name in sorted(tensors):
            arr = np.ascontiguousarray(tensors[name], dtype="<f8")
            name_b = name.encode("utf-8")
            fh.write(struct.pack("<H", len(name_b)))
            fh.write(name_b)
            fh.write(struct.pack("<B", arr.ndim))
            for dim in arr.shape:
                fh.write(struct.pack("<Q", dim))
            fh.write(arr.tobytes(order="C"))


def load_checkpoint(path: str) -> tuple[ModelParams, AdamState, dict]:
    """Read a checkpoint back; raises CheckpointError on any corruption."""

    def take(fh, n, what):
        b = fh.read(n)
        if len(b) != n:
            raise CheckpointError(f"{path}: truncated while reading {what}")
        return b

    with open(path, "rb") as fh:
        if take(fh, 4, "magic") != CHECKPOINT_MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint (bad magic)")
        (version,) = struct.unpack("<I", take(fh, 4, "version"))
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"{path}: format version {version}, expected {CHECKPOINT_VERSION}"
            )
        (meta_len,) = struct.unpack("<Q", take(fh, 8, "meta length"))
        try:
            meta = json.loads(take(fh, meta_len, "meta").decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"{path}: corrupt metadata: {exc}")
        (n_tensors,) = struct.unpack("<Q", take(fh, 8, "tensor count"))
        tensors: dict[str, np.ndarray] = {}
        for _ in range(n_tensors):
            (name_len,) = struct.unpack("<H", take(fh, 2, "name length"))
            name = take(fh, name_len, "name").decode("utf-8")
            (ndim,) = struct.unpack("<B", take(fh, 1, "ndim"))
            shape = tuple(
                struct.unpack("<Q", take(fh, 8, "dim"))[0] for _ in range(ndim)
            )
            count = int(np.prod(shape)) if shape else 1
            data = np.frombuffer(take(fh, count * 8, f"tensor {name}"), dtype="<f8")
            tensors[name] = data.reshape(shape).copy()
        if fh.read(1):
            raise CheckpointError(f"{path}: trailing bytes after last tensor")

    param_names = {
        "items", "proxies", "normals", "sel_w1", "sel_w2", "sel_pos",
        "enc_wq", "enc_wk", "enc_w1", "enc_w2", "enc_b1", "enc_b2",
        "enc_pos", "user_bias",
    }
    adam_names = {f"adam.{s}.{k}" for s in ("m", "v") for k in param_names}
    missing = (param_names | adam_names) - set(tensors)
    if missing:
        raise CheckpointError(f"{path}: missing tensors {sorted(missing)}")
    params = _params_from_named(
        {k: tensors[k] for k in param_names}, list(meta.get("user_tags", []))
    )
    adam = AdamState(
        m={k: tensors[f"adam.m.{k}"] for k in param_names},
        v={k: tensors[f"adam.v.{k}"] for k in param_names},
        step=int(meta.get("adam_step", 0)),
    )
    return params, adam, meta
