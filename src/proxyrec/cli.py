"""Operator commands: prepare a dataset, train, evaluate, run the ablation grid.

Configuration is a flat key = value text file whose keys are exactly the
training and filter fields plus the path keys, layered as

    command line  >  environment (PROXYREC_SEED)  >  file  >  defaults

with unknown keys rejected and every problem in a bad configuration reported
in a single error rather than one at a time. Each command writes the fully
resolved configuration next to its outputs, so a run can be replayed from its
artifacts alone. All output bytes are a pure function of inputs plus seed.

Process exit codes: 0 success, 1 usage or configuration, 2 data or artifact
problems, 3 numeric failure during training.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from .data import (
    FilterConfig,
    apply_filters,
    build_sessions,
    chronological_split,
    expand_all,
    format_stats,
    load_interactions,
    read_split_manifest,
    split_stats,
    write_split_manifest,
)
from .errors import CheckpointError, ConfigError, NumericError, ProxyRecError
from .evaluator import evaluate
from .trainer import (
    TrainConfig,
    fit,
    load_checkpoint,
    pick_known_users,
    save_checkpoint,
)

CHECKPOINT_FILE = "model.ckpt"
TRAIN_LOG_FILE = "train_log.jsonl"
RESOLVED_FILE = "config.resolved"
KNOWN_USERS_FILE = "known_users.json"
ABLATION_FILE = "ablation.json"
ABLATION_GRID_FILE = "ablation.txt"

ENV_SEED = "PROXYREC_SEED"

# -- configuration layering ----------------------------------------------------

_PATH_KEYS = {"data": str, "out_dir": str, "ratios": str}

_BOOL_WORDS = {
    "true": True,
    "yes": True,
    "1": True,
    "false": False,
    "no": False,
    "0": False,
}


def _field_types(cls) -> dict[str, type]:
    # every field has a typed default, so the default's type is the key's type
    return {f.name: type(f.default) for f in dataclasses.fields(cls)}


TRAIN_KEYS = _field_types(TrainConfig)
FILTER_KEYS = _field_types(FilterConfig)
CONFIG_KEYS: dict[str, type] = {**TRAIN_KEYS, **FILTER_KEYS, **_PATH_KEYS}


def _coerce(text: str, kind: type):
    if kind is bool:
        word = text.strip().lower()
        if word not in _BOOL_WORDS:
            raise ValueError(f"expected a boolean, got {text!r}")
        return _BOOL_WORDS[word]
    if kind is int:
        return int(text)
    if kind is float:
        return float(text)
    return text


def read_config_file(path: str) -> list[tuple[str, str, str]]:
    """Parse key = value lines into (key, raw value, origin) triples.

    Blank lines and lines starting with '#' are skipped. No key, value, or
    structural checking happens here; resolve_config owns all of that so a
    bad file is reported in one pass.
    """
    if not os.path.exists(path):
        raise ConfigError(f"no config file at {path}")
    triples = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            key, sep, value = stripped.partition("=")
            origin = f"{path}:{lineno}"
            if not sep:
                triples.append(("", stripped, origin))  # flagged downstream
            else:
                triples.append((key.strip(), value.strip(), origin))
    return triples


def resolve_config(
    config_path: str | None = None,
    overrides: list[tuple[str, str, str]] | None = None,
    environ=None,
) -> dict:
    """Layer defaults, file, environment, and overrides into one mapping.

    Later layers win. Raises a single ConfigError listing every unknown key,
    unparseable value, and out-of-range field found anywhere in the stack.
    """
    environ = os.environ if environ is None else environ
    values: dict = {f.name: f.default for f in dataclasses.fields(TrainConfig)}
    values.update({f.name: f.default for f in dataclasses.fields(FilterConfig)})
    values.update({"data": "", "out_dir": "", "ratios": "8,1,1"})

    layers: list[tuple[str, str, str]] = []
    if config_path is not None:
        layers.extend(read_config_file(config_path))
    if ENV_SEED in environ:
        layers.append(("seed", environ[ENV_SEED], ENV_SEED))
    layers.extend(overrides or [])

    problems: list[str] = []
    for key, text, origin in layers:
        if key not in CONFIG_KEYS:
            shown = key if key else text
            problems.append(f"{origin}: unknown key {shown!r}")
            continue
        try:
            values[key] = _coerce(text, CONFIG_KEYS[key])
        except ValueError:
            problems.append(
                f"{origin}: bad value {text!r} for {key} "
                f"(expected {CONFIG_KEYS[key].__name__})"
            )

    # probe each training field in isolation so every violation is listed,
    # with the dataclass itself staying the single authority on the rules
    base = TrainConfig()
    for key in TRAIN_KEYS:
        try:
            dataclasses.replace(base, **{key: values[key]})
        except ConfigError as exc:
            problems.append(f"{key}: {exc}")

    if problems:
        raise ConfigError(
            f"{len(problems)} configuration problem(s):\n  " + "\n  ".join(problems)
        )
    return values


def train_config(resolved: dict) -> TrainConfig:
    return TrainConfig(**{k: resolved[k] for k in TRAIN_KEYS})


def filter_config(resolved: dict) -> FilterConfig:
    return FilterConfig(**{k: resolved[k] for k in FILTER_KEYS})


def write_resolved(resolved: dict, out_dir: str) -> None:
    """Persist the configuration a run actually used, in file syntax."""
    lines = []
    for key in sorted(resolved):
        value = resolved[key]
        if isinstance(value, bool):
            value = "true" if value else "false"
        lines.append(f"{key} = {value}")
    with open(os.path.join(out_dir, RESOLVED_FILE), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _override_pairs(args) -> list[tuple[str, str, str]]:
    """Named flags plus --set entries, as (key, raw text, origin) triples."""
    pairs = []
    for flag, key in (
        ("mode", "mode"),
        ("task", "task"),
        ("known_user_ratio", "known_user_ratio"),
        ("seed", "seed"),
    ):
        value = getattr(args, flag, None)
        if value is not None:
            pairs.append((key, str(value), f"--{flag.replace('_', '-')}"))
    for entry in getattr(args, "set", None) or []:
        key, sep, value = entry.partition("=")
        origin = f"--set {entry}"
        if not sep:
            pairs.append(("", entry, origin))
        else:
            pairs.append((key.strip(), value.strip(), origin))
    return pairs


def _parse_int_list(text: str, what: str, n: int | None = None) -> tuple[int, ...]:
    try:
        out = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ConfigError(f"{what} must be comma-separated integers, got {text!r}")
    if n is not None and len(out) != n:
        raise ConfigError(f"{what} must have {n} entries, got {text!r}")
    if any(v < 1 for v in out):
        raise ConfigError(f"{what} entries must be >= 1, got {text!r}")
    return out


# -- commands --------------------------------------------------------------------


def cmd_prepare(args) -> int:
    """load -> sessions -> filters -> chronological split -> manifest."""
    resolved = resolve_config(overrides=_override_pairs(args), environ={})
    for flag in FILTER_KEYS:
        value = getattr(args, flag)
        if value is not None:
            resolved[flag] = value
    if args.ratios is not None:
        resolved["ratios"] = args.ratios
    resolved["data"] = args.input
    resolved["out_dir"] = args.out_dir
    ratios = _parse_int_list(resolved["ratios"], "--ratios", 3)
    fcfg = filter_config(resolved)

    records, raw_item_map = load_interactions(
        args.input,
        columns=args.format,
        delimiter=args.delimiter,
        skip_header=args.skip_header,
    )
    sessions = build_sessions(records, fcfg, anonymize=args.anonymize)
    sessions = apply_filters(sessions, fcfg)
    split = chronological_split(sessions, ratios, min_session_len=fcfg.min_session_len)

    os.makedirs(args.out_dir, exist_ok=True)
    write_split_manifest(split, args.out_dir, raw_item_map, fcfg, ratios)
    write_resolved(resolved, args.out_dir)
    print(format_stats(split_stats(split)), end="")
    print(f"manifest written to {args.out_dir}")
    return 0


def cmd_train(args) -> int:
    """Fit on a prepared split, keep the best checkpoint plus an epoch log."""
    split, _ = read_split_manifest(args.data)
    resolved = resolve_config(args.config, _override_pairs(args))
    resolved["data"] = args.data
    resolved["out_dir"] = args.out_dir
    cfg = train_config(resolved)
    known = pick_known_users(split, cfg)

    os.makedirs(args.out_dir, exist_ok=True)
    log_path = os.path.join(args.out_dir, TRAIN_LOG_FILE)
    with open(log_path, "w", encoding="utf-8") as log:

        def log_line(stats: dict) -> None:
            log.write(json.dumps(stats, sort_keys=True) + "\n")
            log.flush()
            print(
                f"epoch {stats['epoch']:>3}  loss {stats['loss']:.4f}  "
                f"val R@20 {stats['val_recall20']:.4f}  ({stats['seconds']:.1f}s)"
            )

        result = fit(split, cfg, known, log_fn=log_line)

    ckpt_path = os.path.join(args.out_dir, CHECKPOINT_FILE)
    save_checkpoint(ckpt_path, result.params, result.adam, result.epoch, result.tau, cfg)
    with open(os.path.join(args.out_dir, KNOWN_USERS_FILE), "w", encoding="utf-8") as fh:
        json.dump(
            {
                "ratio": cfg.known_user_ratio,
                "min_sessions_per_user": cfg.min_sessions_per_user,
                "users": known,
            },
            fh,
            sort_keys=True,
            indent=2,
        )
        fh.write("\n")
    write_resolved(resolved, args.out_dir)
    print(
        f"best epoch {result.epoch}  val R@20 {result.val_recall20:.4f}  "
        f"checkpoint {ckpt_path}"
    )
    return 0


def cmd_evaluate(args) -> int:
    """Score a checkpoint against a prepared split and emit a report."""
    params, _, meta = load_checkpoint(args.checkpoint)
    split, _ = read_split_manifest(args.data)
    if params.item_count != split.item_count:
        raise CheckpointError(
            f"checkpoint covers {params.item_count} items but the dataset at "
            f"{args.data} has {split.item_count}; refusing to score"
        )
    ckpt_cfg = meta["config"]
    task = args.task or ckpt_cfg["task"]
    ks = _parse_int_list(args.ks, "--ks")
    sessions = split.valid if args.split == "valid" else split.test
    known = set(meta["user_tags"])
    instances = expand_all(sessions, task, known)
    report = evaluate(params, instances, task, ks, meta["tau"], mode=ckpt_cfg["mode"])

    out_dir = args.out_dir or os.path.dirname(args.checkpoint) or "."
    os.makedirs(out_dir, exist_ok=True)
    stem = f"report_{args.split}_{task}"
    payload = {
        "config": {
            "checkpoint": args.checkpoint,
            "data": args.data,
            "task": task,
            "split": args.split,
            "ks": list(ks),
            "tau": meta["tau"],
            "mode": ckpt_cfg["mode"],
        },
        **report.as_dict(),
    }
    with open(os.path.join(out_dir, stem + ".json"), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")
    with open(os.path.join(out_dir, stem + ".txt"), "w", encoding="utf-8") as fh:
        fh.write(report.as_text() + "\n")
    print(report.as_text())
    return 0


def ablation_variants(base: TrainConfig) -> dict[str, TrainConfig]:
    """The seven shared-seed runs of the comparison grid.

    weighted_comb keeps the full scorer but pins the temperature at its
    starting value for the whole run, so proxy selection stays an ordinary
    soft mixture instead of sharpening toward one proxy.
    """
    replace = dataclasses.replace
    return {
        "full": base,
        "proxy_only": replace(base, mode="proxy_only"),
        "short_only": replace(base, mode="short_only"),
        "no_projection": replace(base, mode="no_projection"),
        "weighted_comb": replace(base, anneal_end=base.anneal_start),
        "dot_product": replace(base, mode="dot_product"),
        "no_reg_dist": replace(base, lambda_dist=0.0),
    }


def cmd_ablate(args) -> int:
    """Train every grid variant under one seed and tabulate test metrics."""
    split, _ = read_split_manifest(args.data)
    resolved = resolve_config(args.config, _override_pairs(args))
    resolved["data"] = args.data
    resolved["out_dir"] = args.out_dir
    base = train_config(resolved)
    known = pick_known_users(split, base)

    os.makedirs(args.out_dir, exist_ok=True)
    rows = []
    for name, cfg in ablation_variants(base).items():
        print(f"[{name}]")
        log_path = os.path.join(args.out_dir, f"{name}.log.jsonl")
        with open(log_path, "w", encoding="utf-8") as log:

            def log_line(stats: dict) -> None:
                log.write(json.dumps(stats, sort_keys=True) + "\n")
                log.flush()

            result = fit(split, cfg, known, log_fn=log_line)
        save_checkpoint(
            os.path.join(args.out_dir, f"{name}.ckpt"),
            result.params,
            result.adam,
            result.epoch,
            result.tau,
            cfg,
        )
        instances = expand_all(split.test, cfg.task, set(known))
        report = evaluate(
            params=result.params,
            instances=instances,
            task=cfg.task,
            ks=(20,),
            tau=result.tau,
            mode=cfg.mode,
        )
        rows.append(
            {
                "variant": name,
                "best_epoch": result.epoch,
                "val_recall20": result.val_recall20,
                "test_recall20": report.recall[20],
                "test_mrr20": report.mrr[20],
            }
        )
        print(
            f"  val R@20 {result.val_recall20:.4f}  "
            f"test R@20 {report.recall[20]:.4f}  MRR@20 {report.mrr[20]:.4f}"
        )

    header = f"{'variant':<15}{'val R@20':>10}{'test R@20':>11}{'test MRR@20':>13}"
    lines = [header]
    for row in rows:
        lines.append(
            f"{row['variant']:<15}{row['val_recall20']:>10.4f}"
            f"{row['test_recall20']:>11.4f}{row['test_mrr20']:>13.4f}"
        )
    grid = "\n".join(lines)
    with open(os.path.join(args.out_dir, ABLATION_GRID_FILE), "w", encoding="utf-8") as fh:
        fh.write(grid + "\n")
    with open(os.path.join(args.out_dir, ABLATION_FILE), "w", encoding="utf-8") as fh:
        json.dump(rows, fh, sort_keys=True, indent=2)
        fh.write("\n")
    write_resolved(resolved, args.out_dir)
    print(grid)
    return 0


# -- argument parsing --------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems become exit code 1, no traceback
        raise ConfigError(message)


def _add_config_flags(sub, with_mode: bool = True) -> None:
    sub.add_argument("--config", help="key = value configuration file")
    sub.add_argument("--seed", type=int, help="override the training seed")
    if with_mode:
        sub.add_argument("--mode", help="scoring mode override")
        sub.add_argument("--task", help="prediction task override")
        sub.add_argument(
            "--known-user-ratio",
            dest="known_user_ratio",
            type=float,
            help="fraction of eligible users flagged as known",
        )
    sub.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="override any configuration key (repeatable)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="proxyrec", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)

    prepare = commands.add_parser(
        "prepare", help="turn an interaction log into a split manifest"
    )
    prepare.add_argument("--input", required=True, help="interaction log (.tsv/.csv[.gz])")
    prepare.add_argument(
        "--format",
        default="user,item,time",
        help="comma-separated field names per row, from {user,session,item,time,-}",
    )
    prepare.add_argument("--out-dir", required=True)
    prepare.add_argument("--delimiter", help="field separator (default: by extension)")
    prepare.add_argument("--skip-header", action="store_true")
    prepare.add_argument("--anonymize", action="store_true", help="drop user tags")
    prepare.add_argument("--min-item-count", dest="min_item_count", type=int)
    prepare.add_argument("--min-session-len", dest="min_session_len", type=int)
    prepare.add_argument("--max-session-len", dest="max_session_len", type=int)
    prepare.add_argument(
        "--no-day-split",
        dest="split_by_day",
        action="store_false",
        default=None,
        help="keep each user's log as one session instead of daily sessions",
    )
    prepare.add_argument(
        "--drop-over-length",
        dest="drop_over_length",
        action="store_true",
        default=None,
        help="drop over-cap sessions instead of truncating",
    )
    prepare.add_argument("--ratios", help="train,valid,test weights (default 8,1,1)")
    prepare.set_defaults(func=cmd_prepare, set=None)

    train = commands.add_parser("train", help="fit a model on a prepared split")
    train.add_argument("--data", required=True, help="directory from prepare")
    train.add_argument("--out-dir", required=True)
    _add_config_flags(train)
    train.set_defaults(func=cmd_train)

    ev = commands.add_parser("evaluate", help="score a checkpoint on a prepared split")
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--data", required=True, help="directory from prepare")
    ev.add_argument("--task", choices=("repeat", "unseen"), help="default: from checkpoint")
    ev.add_argument("--ks", default="5,10,20", help="metric cutoffs")
    ev.add_argument("--split", choices=("test", "valid"), default="test")
    ev.add_argument("--out-dir", help="default: next to the checkpoint")
    ev.set_defaults(func=cmd_evaluate)

    ablate = commands.add_parser("ablate", help="train and compare all grid variants")
    ablate.add_argument("--data", required=True, help="directory from prepare")
    ablate.add_argument("--out-dir", required=True)
    _add_config_flags(ablate, with_mode=False)
    ablate.set_defaults(func=cmd_ablate)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ProxyRecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
