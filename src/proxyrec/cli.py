"""Operator commands: prepare a dataset, train, evaluate, run the ablation grid.

train and ablate resolve a TrainConfig from a flat key = value file whose
keys are exactly its fields, layered as

    command line  >  environment (PROXYREC_SEED)  >  file  >  defaults

with unknown keys rejected and every problem in a bad configuration reported
in a single error rather than one at a time. The config.resolved they write
next to their outputs replays the run through --config. prepare builds its
FilterConfig from its own flags, checks them the same way and records them in
manifest.json. All output bytes are a pure function of inputs plus seed,
except the wall-clock seconds, which go to their own timing files.

Every file that prepare, train, ablate or evaluate writes lands in its output
directory together, once the command has succeeded: until then the files sit
in a staging directory inside it, so a failed run leaves the earlier run's
files as they were. ablate so keeps its whole new grid on disk beside the old
one until the end of the run. prepare moves its manifest in last, after
removing the old one, so no manifest vouches for split files of two runs.

Process exit codes: 0 success, 1 usage or configuration, 2 data or artifact
problems, 3 numeric failure during training.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import shutil
import sys
import tempfile

from .data import (
    MANIFEST_FILE,
    TASKS,
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
    _keep_freed_heap,
    fit,
    load_checkpoint,
    pick_known_users,
    save_checkpoint,
)

CHECKPOINT_FILE = "model.ckpt"
TRAIN_LOG_FILE = "train_log.jsonl"
TRAIN_TIMING_FILE = "train_timing.jsonl"
RESOLVED_FILE = "config.resolved"
KNOWN_USERS_FILE = "known_users.json"
ABLATION_FILE = "ablation.json"
ABLATION_GRID_FILE = "ablation.txt"

ENV_SEED = "PROXYREC_SEED"

# -- configuration layering ----------------------------------------------------

def _raise_problems(problems: list[str]) -> None:
    if problems:
        raise ConfigError(
            f"{len(problems)} configuration problem(s):\n  " + "\n  ".join(problems)
        )


def _key_value(text: str, origin: str) -> tuple[str, str, str]:
    """One `key = value` entry as a (key, raw value, origin) triple; without
    an '=' the key is empty, which resolve_config flags as unknown."""
    key, sep, value = text.partition("=")
    return (key.strip(), value.strip(), origin) if sep else ("", text, origin)


def read_config_file(path: str) -> list[tuple[str, str, str]]:
    """Parse key = value lines into (key, raw value, origin) triples.

    Blank lines and lines starting with '#' are skipped. No key, value, or
    structural checking happens here; resolve_config owns all of that so a
    bad file is reported in one pass.
    """
    if not os.path.exists(path):
        raise ConfigError(f"no config file at {path}")
    triples = []
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror or exc}")
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        triples.append(_key_value(stripped, f"{path}:{lineno}"))
    return triples


def resolve_config(
    config_path: str | None = None,
    overrides: list[tuple[str, str, str]] | None = None,
    environ=None,
) -> TrainConfig:
    """Layer defaults, file, environment, and overrides into one TrainConfig.

    Later layers win. Raises a single ConfigError listing every unknown key,
    unparseable value, and out-of-range field found anywhere in the stack.
    """
    environ = os.environ if environ is None else environ
    defaults = dataclasses.asdict(TrainConfig())
    values = dict(defaults)

    layers: list[tuple[str, str, str]] = []
    if config_path is not None:
        layers.extend(read_config_file(config_path))
    if ENV_SEED in environ:
        layers.append(("seed", environ[ENV_SEED], ENV_SEED))
    layers.extend(overrides or [])

    problems: list[str] = []
    for key, text, origin in layers:
        if key not in defaults:
            shown = key if key else text
            problems.append(f"{origin}: unknown key {shown!r}")
            continue
        kind = type(defaults[key])  # every field has a typed default
        try:
            values[key] = kind(text)
        except ValueError:
            problems.append(f"{origin}: bad value {text!r} for {key} (expected {kind.__name__})")

    # the dataclass stays the single authority on the rules; it checks the
    # resolved fields together, so a rule spanning two fields sees both
    problems += TrainConfig.problems(values)

    _raise_problems(problems)
    return TrainConfig(**values)


def write_resolved(cfg: TrainConfig, data: str, out_dir: str) -> None:
    """Persist the configuration a run actually used, in --config syntax; the
    data directory goes in as a comment, which --config skips."""
    lines = [f"# data = {data}"]
    lines += [f"{key} = {value}" for key, value in sorted(dataclasses.asdict(cfg).items())]
    _write(out_dir, RESOLVED_FILE, "\n".join(lines))


def _override_pairs(args) -> list[tuple[str, str, str]]:
    """Named flags plus --set entries, as (key, raw text, origin) triples."""
    pairs = []
    for key in ("mode", "task", "known_user_ratio", "seed"):
        value = getattr(args, key, None)
        if value is not None:
            pairs.append((key, str(value), f"--{key.replace('_', '-')}"))
    return pairs + [_key_value(entry, f"--set {entry}") for entry in args.set or []]


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


@contextlib.contextmanager
def _staged(out_dir: str, last: str | None = None):
    """A fresh directory inside out_dir for a command's files. They are renamed
    onto their names in out_dir only when the with-block succeeds; when it
    raises the directory is removed, so an earlier run's files keep their bytes.
    The file named last, which vouches for the others, is removed from out_dir
    before the first rename and renamed after all the others, so it never
    pairs with a half-renamed set."""
    os.makedirs(out_dir, exist_ok=True)
    stage = tempfile.mkdtemp(suffix=".tmp", dir=out_dir)
    try:
        yield stage
        names = sorted(os.listdir(stage), key=lambda name: (name == last, name))
        if last is not None:
            with contextlib.suppress(FileNotFoundError):
                os.remove(os.path.join(out_dir, last))
        for name in names:
            os.replace(os.path.join(stage, name), os.path.join(out_dir, name))
    finally:
        shutil.rmtree(stage, ignore_errors=True)


def _write(directory: str, name: str, body) -> None:
    """One text file, a line break after body; a body that is not a str goes
    in as indented JSON with sorted keys."""
    if not isinstance(body, str):
        body = json.dumps(body, sort_keys=True, indent=2)
    with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
        fh.write(body + "\n")


def _fit_into(stage: str, names: tuple[str, str, str], split, cfg: TrainConfig,
              known: list[str], echo: bool):
    """Fit cfg and write its checkpoint, epoch log and epoch timings into stage
    under names. The log holds each epoch's stats and the timing file its
    seconds, so the log is the same bytes on every rerun."""
    ckpt, log_path, timing_path = (os.path.join(stage, name) for name in names)
    with open(log_path, "w", encoding="utf-8") as log, \
            open(timing_path, "w", encoding="utf-8") as timing:

        def log_line(stats: dict, seconds: float) -> None:
            log.write(json.dumps(stats, sort_keys=True) + "\n")
            timing.write(json.dumps({"epoch": stats["epoch"], "seconds": seconds}) + "\n")
            if echo:
                print(
                    f"epoch {stats['epoch']:>3}  loss {stats['loss']:.4f}  "
                    f"val R@20 {stats['val_recall20']:.4f}  ({seconds:.1f}s)"
                )

        result = fit(split, cfg, known, log_fn=log_line)
    save_checkpoint(ckpt, result.params, result.adam, result.epoch, result.tau, cfg)
    return result


def cmd_prepare(args) -> int:
    """load -> sessions -> filters -> chronological split -> manifest."""
    # a session needs a prefix and a target; a max_session_len of 0 is no cap
    floors = {"min_item_count": 1, "min_session_len": 2, "max_session_len": 0}
    problems = [
        f"--{name.replace('_', '-')} must be >= {floor}, got {getattr(args, name)}"
        for name, floor in floors.items()
        if getattr(args, name) < floor
    ]
    if 0 < args.max_session_len < args.min_session_len:
        problems.append(f"--max-session-len {args.max_session_len} is below "
                        f"--min-session-len {args.min_session_len}: no session can pass")
    if args.delimiter == "":
        problems.append("--delimiter must not be empty")
    try:
        ratios = _parse_int_list(args.ratios, "--ratios", 3)
    except ConfigError as exc:
        problems.append(str(exc))
    _raise_problems(problems)
    fields = dataclasses.fields(FilterConfig)
    fcfg = FilterConfig(**{f.name: getattr(args, f.name) for f in fields})

    records, raw_item_map = load_interactions(
        args.input,
        columns=args.format,
        delimiter=args.delimiter,
        skip_header=args.skip_header,
    )
    sessions = build_sessions(records, fcfg, anonymize=args.anonymize)
    sessions = apply_filters(sessions, fcfg)
    split = chronological_split(sessions, ratios, min_session_len=fcfg.min_session_len)

    with _staged(args.out_dir, last=MANIFEST_FILE) as stage:
        write_split_manifest(split, stage, raw_item_map, fcfg, ratios)
    print(format_stats(split_stats(split)), end="")
    print(f"manifest written to {args.out_dir}")
    return 0


def cmd_train(args) -> int:
    """Fit on a prepared split, keep the best checkpoint plus an epoch log."""
    cfg = resolve_config(args.config, _override_pairs(args))
    split, _ = read_split_manifest(args.data)
    known = pick_known_users(split, cfg)

    with _staged(args.out_dir) as stage:
        names = (CHECKPOINT_FILE, TRAIN_LOG_FILE, TRAIN_TIMING_FILE)
        result = _fit_into(stage, names, split, cfg, known, echo=True)
        _write(stage, KNOWN_USERS_FILE, {
            "ratio": cfg.known_user_ratio,
            "min_sessions_per_user": cfg.min_sessions_per_user,
            "users": known,
        })
        write_resolved(cfg, args.data, stage)
    print(
        f"best epoch {result.epoch}  val R@20 {result.val_recall20:.4f}  "
        f"checkpoint {os.path.join(args.out_dir, CHECKPOINT_FILE)}"
    )
    return 0


def cmd_evaluate(args) -> int:
    """Score a checkpoint against a prepared split and emit a report."""
    ks = _parse_int_list(args.ks, "--ks")
    _keep_freed_heap()  # each ranking chunk then reuses the memory the last one freed
    params, _, meta = load_checkpoint(args.checkpoint)
    split, _ = read_split_manifest(args.data)
    if params.item_count != split.item_count:
        raise CheckpointError(
            f"checkpoint covers {params.item_count} items but the dataset at "
            f"{args.data} has {split.item_count}; refusing to score"
        )
    ckpt_cfg = meta["config"]
    task = args.task or ckpt_cfg["task"]
    sessions = split.valid if args.split == "valid" else split.test
    known = set(meta["user_tags"])
    instances = expand_all(sessions, task, known)
    report = evaluate(params, instances, task, ks, meta["tau"], mode=ckpt_cfg["mode"])

    out_dir = args.out_dir or os.path.dirname(args.checkpoint) or "."
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
    with _staged(out_dir) as stage:
        _write(stage, stem + ".json", payload)
        _write(stage, stem + ".txt", report.as_text())
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
    base = resolve_config(args.config, _override_pairs(args))
    if base.mode != "full":  # each variant sets its own mode from the full base
        raise ConfigError(f"ablate needs mode = full, got mode = {base.mode!r}")
    split, _ = read_split_manifest(args.data)
    known = pick_known_users(split, base)
    # no variant changes the task or the known users
    instances = expand_all(split.test, base.task, set(known))

    with _staged(args.out_dir) as stage:
        rows = []
        for name, cfg in ablation_variants(base).items():
            print(f"[{name}]")
            names = (f"{name}.ckpt", f"{name}.log.jsonl", f"{name}.timing.jsonl")
            result = _fit_into(stage, names, split, cfg, known, echo=False)
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
        _write(stage, ABLATION_GRID_FILE, grid)
        _write(stage, ABLATION_FILE, rows)
        write_resolved(base, args.data, stage)
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
    defaults = FilterConfig()
    prepare.add_argument("--min-item-count", type=int, default=defaults.min_item_count)
    prepare.add_argument("--min-session-len", type=int, default=defaults.min_session_len)
    prepare.add_argument(
        "--max-session-len", type=int, default=defaults.max_session_len, help="0: no cap"
    )
    prepare.add_argument(
        "--no-day-split",
        dest="split_by_day",
        action="store_false",
        default=defaults.split_by_day,
        help="keep each user's log as one session instead of daily sessions",
    )
    prepare.add_argument(
        "--drop-over-length",
        dest="drop_over_length",
        action="store_true",
        default=defaults.drop_over_length,
        help="drop over-cap sessions instead of truncating",
    )
    prepare.add_argument("--ratios", default="8,1,1", help="train,valid,test weights")
    prepare.set_defaults(func=cmd_prepare)

    train = commands.add_parser("train", help="fit a model on a prepared split")
    train.add_argument("--data", required=True, help="directory from prepare")
    train.add_argument("--out-dir", required=True)
    _add_config_flags(train)
    train.set_defaults(func=cmd_train)

    ev = commands.add_parser("evaluate", help="score a checkpoint on a prepared split")
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--data", required=True, help="directory from prepare")
    ev.add_argument("--task", choices=TASKS, help="default: from checkpoint")
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
