"""Command surface: config layering, exit codes, artifacts, determinism."""

import dataclasses
import gzip
import hashlib
import json
import os
import struct
import zlib

import numpy as np
import pytest

from proxyrec import cli as cli_module
from proxyrec import data as data_module
from proxyrec.cli import ablation_variants, main, read_config_file, resolve_config
from proxyrec.data import read_split_manifest
from proxyrec.errors import ConfigError, NumericError
from proxyrec.synth import planted_corpus
from proxyrec.trainer import TrainConfig, load_checkpoint, pick_known_users, save_checkpoint


def write_log(path, corpus):
    with open(path, "w", encoding="utf-8") as fh:
        for s in corpus:
            for j, item in enumerate(s.items):
                fh.write(f"{s.user_tag}\titem{item}\t{s.start_ts + j}\n")


@pytest.fixture()
def prepared(tmp_path):
    """A small prepared split plus a desk-scale training config file."""
    log = tmp_path / "log.tsv"
    corpus = planted_corpus(
        n_users=6, n_items=60, sessions_per_user=25, owners_per_item=3, seed=0
    )
    write_log(log, corpus)
    data = tmp_path / "data"
    rc = main(["prepare", "--input", str(log), "--out-dir", str(data), "--min-item-count", "1"])
    assert rc == 0
    cfg = tmp_path / "train.cfg"
    cfg.write_text(
        "embed_dim = 8\nproxy_count = 4\nepochs = 2\npatience = 2\nseed = 7\n",
        encoding="utf-8",
    )
    return tmp_path, data, cfg


# -- configuration layering ----------------------------------------------------


def test_defaults_match_dataclasses():
    assert resolve_config(environ={}) == TrainConfig()


def test_every_config_key_parses_from_its_default_type():
    # values are parsed as type(default)(text); bool("false") would be True
    for field in dataclasses.fields(TrainConfig):
        assert type(field.default) in (int, float, str), field.name


def test_file_env_and_overrides_layer_in_order(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("seed = 7\nnegatives = 2\n# comment\n\nmargin = 0.25\n", encoding="utf-8")
    assert len(read_config_file(str(path))) == 3

    cfg = resolve_config(str(path), environ={"PROXYREC_SEED": "99"})
    assert (cfg.seed, cfg.negatives, cfg.margin) == (99, 2, 0.25)

    cfg = resolve_config(
        str(path),
        overrides=[("seed", "5", "--seed")],
        environ={"PROXYREC_SEED": "99"},
    )
    assert cfg.seed == 5


def test_every_config_problem_reported_at_once(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text(
        "lr = 0.1\nembed_dim = zero\nmode = bogus\nepochs = -3\nno equals here\n",
        encoding="utf-8",
    )
    with pytest.raises(ConfigError) as err:
        resolve_config(str(path), environ={})
    text = str(err.value)
    assert "5 configuration problem" in text
    for fragment in ("'lr'", "embed_dim", "mode", "epochs", "no equals here"):
        assert fragment in text


def test_anneal_pair_is_checked_as_resolved(tmp_path):
    path = tmp_path / "anneal.cfg"
    path.write_text("anneal_start = 0.005\nanneal_end = 0.001\n", encoding="utf-8")
    assert resolve_config(str(path), environ={}).schedule().end == 0.001
    path.write_text("anneal_start = 0.005\n", encoding="utf-8")  # below the default end
    with pytest.raises(ConfigError, match="anneal_start"):
        resolve_config(str(path), environ={})


def test_missing_config_file_rejected(tmp_path):
    with pytest.raises(ConfigError):
        resolve_config(str(tmp_path / "nope.cfg"), environ={})


def test_ablation_variant_grid_shape():
    base = TrainConfig(anneal_start=3.0, anneal_end=0.01)
    variants = ablation_variants(base)
    assert list(variants) == [
        "full", "proxy_only", "short_only", "no_projection",
        "weighted_comb", "dot_product", "no_reg_dist",
    ]
    assert variants["full"] == base
    assert variants["proxy_only"].mode == "proxy_only"
    assert variants["weighted_comb"].anneal_end == base.anneal_start
    assert variants["weighted_comb"].mode == "full"
    assert variants["no_reg_dist"].lambda_dist == 0.0
    assert variants["no_reg_dist"].mode == "full"


# -- prepare ---------------------------------------------------------------------


def test_prepare_writes_stats_and_is_rerunnable(prepared, capsys):
    tmp_path, data, _ = prepared
    first = {name: (data / name).read_bytes() for name in os.listdir(data)}
    assert "manifest.json" in first and "stats.txt" in first
    assert "config.resolved" not in first  # manifest.json records the filters
    assert b"# sessions\t" in first["stats.txt"]

    data2 = tmp_path / "data2"
    rc = main(
        ["prepare", "--input", str(tmp_path / "log.tsv"), "--out-dir", str(data2),
         "--min-item-count", "1"]
    )
    assert rc == 0
    capsys.readouterr()
    for name, blob in first.items():
        assert (data2 / name).read_bytes() == blob


def test_failed_prepare_leaves_the_earlier_split_intact(prepared, capsys, monkeypatch):
    tmp_path, data, _ = prepared
    other = tmp_path / "other.tsv"
    write_log(other, planted_corpus(
        n_users=6, n_items=60, sessions_per_user=25, owners_per_item=3, seed=1
    ))
    old_files = {name: (data / name).read_bytes() for name in os.listdir(data)}
    old_split, old_manifest = read_split_manifest(str(data))
    opened = []

    def failing_open(path, *args, **kwargs):
        if os.path.basename(path) in ("train.jsonl", "valid.jsonl", "test.jsonl"):
            opened.append(path)
            if len(opened) == 2:
                raise OSError(28, "No space left on device", path)
        return open(path, *args, **kwargs)

    monkeypatch.setattr(data_module, "open", failing_open, raising=False)
    capsys.readouterr()
    rc = main(["prepare", "--input", str(other), "--out-dir", str(data), "--min-item-count", "1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "No space left on device" in err and "Traceback" not in err
    # the new run wrote its train file into the stage before the fault; the
    # directory still holds exactly the earlier run's files, which still load
    assert len(opened) == 2
    assert {name: (data / name).read_bytes() for name in os.listdir(data)} == old_files
    monkeypatch.undo()
    assert read_split_manifest(str(data)) == (old_split, old_manifest)


# user tags that json.dumps escapes: a quote, a backslash, non-ASCII, controls
ODD_USERS = {"u000": 'u"0\\', "u001": "\u00fc1 \u2603", "u002": "u2/\x7f\x01"}

# sha256 of every file prepare writes for write_pinned_log's log, taken from
# the json.dumps writer, with and without --anonymize
PINNED_PREPARE = {
    (): {
        "item_map.tsv": "79a7eb348af4bb07c70fbc5deeeda40040226f27891eb9e179429d70d7bf66cd",
        "manifest.json": "8e26081e9cce6c4790b4dc070a03407829ff83d92408b0cac19c8d4848357396",
        "stats.txt": "e60f78c54b1a8518c41f38e4277cc3e1b0aa4f1f306db7e25d7f17b012002e96",
        "test.jsonl": "c2785010b08d242a04e1354fc0f7e760eabf04eda21edb10a38e4ede5a38bcb3",
        "train.jsonl": "e0bc777c1d0fc93ecc58f4e3260bcaa6574f7fe3b3f93a956603621c01ee3133",
        "valid.jsonl": "54231cb848035cd403671c6c278fa90d85ce5212c8ff4029d25ce49512c9f688",
    },
    ("--anonymize",): {
        "item_map.tsv": "79a7eb348af4bb07c70fbc5deeeda40040226f27891eb9e179429d70d7bf66cd",
        "manifest.json": "8e26081e9cce6c4790b4dc070a03407829ff83d92408b0cac19c8d4848357396",
        "stats.txt": "e60f78c54b1a8518c41f38e4277cc3e1b0aa4f1f306db7e25d7f17b012002e96",
        "test.jsonl": "287723f90666af0af59858698f695adacbb1beaa4181affe5aa57b7817d69bee",
        "train.jsonl": "a8d6feaf9c85d1d30e7a63ca9a85cd82b5a80ef6b2269aebb1465e4a52d25d52",
        "valid.jsonl": "3df3d51068e5244fc7c9dd6c26ef3cef022020815e3356929f14f7cc92a186e6",
    },
}


def write_pinned_log(path):
    """246 sessions after day cuts, 12 of 600 items filtered out as rare,
    sessions over the 50-item cap truncated, and three escaped user tags."""
    corpus = planted_corpus(n_users=8, n_items=600, sessions_per_user=30,
                            length_range=(2, 60), seed=3)
    with open(path, "w", encoding="utf-8") as fh:
        for s in corpus:
            user = ODD_USERS.get(s.user_tag, s.user_tag)
            for j, item in enumerate(s.items):
                fh.write(f"{user}\titem{item}\t{s.start_ts + 3600 * j}\n")


@pytest.mark.parametrize("flags", sorted(PINNED_PREPARE))
def test_prepare_outputs_keep_their_bytes(tmp_path, capsys, flags):
    write_pinned_log(tmp_path / "log.tsv")
    out = tmp_path / "out"
    rc = main(["prepare", "--input", str(tmp_path / "log.tsv"), "--out-dir", str(out), *flags])
    assert rc == 0
    capsys.readouterr()
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in os.listdir(out)}
    assert digests == PINNED_PREPARE[flags]


def test_prepare_ten_session_toy_log(tmp_path, capsys):
    log = tmp_path / "toy.tsv"
    rows = []
    for u in range(5):
        for day in range(2):
            ts = day * 86400 + u * 100
            rows += [f"u{u}\ta{u}\t{ts}", f"u{u}\tb{u}\t{ts + 1}", f"u{u}\ta{u}\t{ts + 2}"]
    log.write_text("\n".join(rows) + "\n", encoding="utf-8")
    rc = main(["prepare", "--input", str(log), "--out-dir", str(tmp_path / "toy"),
               "--min-item-count", "1"])
    assert rc == 0
    assert "# sessions\t10" in capsys.readouterr().out
    manifest = json.loads((tmp_path / "toy" / "manifest.json").read_text())
    assert manifest["counts"] == {"train": 8, "valid": 1, "test": 1}


def test_prepare_min_item_count_drops_rare_items(tmp_path, capsys):
    log = tmp_path / "log.tsv"
    corpus = planted_corpus(
        n_users=4, n_items=40, sessions_per_user=10, owners_per_item=2, seed=5
    )
    write_log(log, corpus)
    rare = tmp_path / "rare"
    rc = main(["prepare", "--input", str(log), "--out-dir", str(rare),
               "--min-item-count", "5"])
    assert rc == 0
    capsys.readouterr()
    kept = (rare / "item_map.tsv").read_text().strip().splitlines()
    assert 0 < len(kept) < 40


def test_prepare_usage_errors(tmp_path, capsys):
    assert main([]) == 1
    assert main(["prepare", "--out-dir", str(tmp_path / "x")]) == 1
    assert main(["prepare", "--input", str(tmp_path / "absent.tsv"),
                 "--out-dir", str(tmp_path / "x")]) == 2
    capsys.readouterr()


def test_prepare_rejects_unusable_flags_at_once(tmp_path, capsys):
    log = tmp_path / "log.tsv"
    log.write_text("u1\ta\t100\nu1\tb\t101\n", encoding="utf-8")
    out = tmp_path / "x"
    rc = main(["prepare", "--input", str(log), "--out-dir", str(out),
               "--min-item-count", "0", "--min-session-len", "1", "--max-session-len", "-1",
               "--ratios", "8,1", "--delimiter", ""])
    assert rc == 1
    err = capsys.readouterr().err
    assert "5 configuration problem(s)" in err
    for fragment in ("--min-item-count", "--min-session-len", "--max-session-len", "--ratios",
                     "--delimiter"):
        assert fragment in err
    assert not out.exists()


@pytest.mark.parametrize("flags", [
    ["--max-session-len", "1"],
    ["--max-session-len", "3", "--min-session-len", "5", "--drop-over-length"],
])
def test_prepare_rejects_a_length_cap_below_the_floor(tmp_path, capsys, flags):
    # no session could be both at most the cap and at least the floor long,
    # so this is a flag problem, found before the log is parsed
    log = tmp_path / "log.tsv"
    log.write_text("u1\ta\t100\nu1\tb\t101\nu1\tc\t102\n", encoding="utf-8")
    out = tmp_path / "x"
    rc = main(["prepare", "--input", str(log), "--out-dir", str(out)] + flags)
    assert rc == 1
    err = capsys.readouterr().err
    assert "1 configuration problem(s)" in err
    assert "--max-session-len" in err and "--min-session-len" in err
    assert not out.exists()


def test_prepare_reports_a_zero_session_floor_with_the_other_problems(tmp_path, capsys):
    # the flags are checked before they build a FilterConfig, which would
    # raise on a floor below 1 by itself
    log = tmp_path / "log.tsv"
    log.write_text("u1\ta\t100\nu1\tb\t101\n", encoding="utf-8")
    rc = main(["prepare", "--input", str(log), "--out-dir", str(tmp_path / "x"),
               "--min-session-len", "0", "--ratios", "8,1"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "2 configuration problem(s)" in err
    assert "--min-session-len must be >= 2, got 0" in err and "--ratios" in err


def test_prepare_infinite_timestamp_exits_2(tmp_path, capsys):
    log = tmp_path / "inf.tsv"
    log.write_text("u1\ta\t100\nu1\tb\tinf\n", encoding="utf-8")
    assert main(["prepare", "--input", str(log), "--out-dir", str(tmp_path / "x")]) == 2
    assert "line 2: bad timestamp 'inf'" in capsys.readouterr().err


def test_prepare_unreadable_log_exits_2(tmp_path, capsys):
    latin = tmp_path / "latin1.tsv"
    latin.write_bytes("u1\tcaf\u00e9\t100\nu1\tb\t101\n".encode("latin-1"))
    packed = gzip.compress(b"u1\ta\t100\nu1\tb\t101\n" * 50)
    truncated = tmp_path / "cut.tsv.gz"
    truncated.write_bytes(packed[: len(packed) // 2])
    for log in (latin, truncated):
        assert main(["prepare", "--input", str(log), "--out-dir", str(tmp_path / "x")]) == 2
        assert f"{log}: unreadable" in capsys.readouterr().err


# -- train -----------------------------------------------------------------------


@pytest.mark.parametrize(
    "text",
    [
        "{not json",
        "[1, 2]",
        '{"item_count": 60}',
        '{"files": {"train": "train.jsonl", "valid": "valid.jsonl", "test": "test.jsonl"}}',
        '{"files": {"train": "train.jsonl"}, "item_count": 60}',
        '{"files": {"train": "train.jsonl", "valid": "valid.jsonl", "test": "test.jsonl"}, '
        '"item_count": 1060, "counts": {"train": 1, "valid": 1, "test": 1}}',
        '{"files": {"train": "train\\u0000", "valid": "valid.jsonl", "test": "test.jsonl"}, '
        '"item_count": 60}',
    ],
    ids=["not-json", "not-object", "no-files", "no-item-count", "files-incomplete",
         "item-count-past-catalog", "nul-in-file-name"],
)
def test_train_rejects_bad_manifest_with_exit_2(prepared, capsys, text):
    tmp_path, data, cfg = prepared
    (data / "manifest.json").write_text(text, encoding="utf-8")
    rc = main(["train", "--data", str(data), "--out-dir", str(tmp_path / "run"),
               "--config", str(cfg)])
    assert rc == 2
    assert "manifest" in capsys.readouterr().err


@pytest.mark.parametrize(
    "line,problem",
    [
        ("{not json", "Expecting property name"),
        ('{"start_ts": 5, "user": "u0"}', "non-empty 'items' list"),
        ('{"items": [1, 999], "start_ts": 5, "user": "u0"}', "ids in 1.."),
        ("[" * 100_000, "recursion depth"),
    ],
    ids=["not-json", "no-items", "item-past-catalog", "deep-nesting"],
)
def test_train_rejects_corrupt_split_file_with_exit_2(prepared, capsys, line, problem):
    tmp_path, data, cfg = prepared
    lines = (data / "train.jsonl").read_text(encoding="utf-8").splitlines()
    lines[2] = line
    (data / "train.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    rc = main(["train", "--data", str(data), "--out-dir", str(tmp_path / "run"),
               "--config", str(cfg)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "train.jsonl: line 3:" in err and problem in err


def test_train_rejects_a_session_split_over_two_lines_with_exit_2(prepared, capsys):
    # line 3's session runs on into line 4, and line 5 holds two sessions:
    # joined by commas into one JSON array, the lines would still parse to
    # as many sessions as there are lines
    tmp_path, data, cfg = prepared
    lines = (data / "train.jsonl").read_text(encoding="utf-8").splitlines()
    head, tail = lines[2].split(',"start_ts"')
    lines[2:5] = [head, '"start_ts"' + tail, lines[3] + "," + lines[4]]
    (data / "train.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    rc = main(["train", "--data", str(data), "--out-dir", str(tmp_path / "run"),
               "--config", str(cfg)])
    assert rc == 2
    assert "train.jsonl: line 3:" in capsys.readouterr().err


def test_train_rejects_a_split_file_that_lost_lines_with_exit_2(prepared, capsys):
    tmp_path, data, cfg = prepared
    counts = json.loads((data / "manifest.json").read_text(encoding="utf-8"))["counts"]
    lines = (data / "train.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    assert len(lines) == counts["train"] > 30
    (data / "train.jsonl").write_text("".join(lines[:-30]), encoding="utf-8")
    rc = main(["train", "--data", str(data), "--out-dir", str(tmp_path / "run"),
               "--config", str(cfg)])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"train.jsonl: {counts['train'] - 30} sessions, but the manifest counts " \
           f"{counts['train']}" in err
    assert not (tmp_path / "run").exists()


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_train_diverging_to_a_nan_forward_exits_3(prepared, capsys):
    # one batch per epoch: the diverged parameters reach validation before
    # any later batch's loss could report them
    tmp_path, data, cfg = prepared
    rc = main(["train", "--data", str(data), "--out-dir", str(tmp_path / "run"),
               "--config", str(cfg), "--set", "learning_rate=1e300", "--set", "batch_size=100000"])
    assert rc == 3
    assert "has score nan" in capsys.readouterr().err


def test_train_writes_checkpoint_log_and_resolved_config(prepared, capsys):
    tmp_path, data, cfg = prepared
    out = tmp_path / "run"
    rc = main(["train", "--data", str(data), "--out-dir", str(out), "--config", str(cfg)])
    assert rc == 0
    capsys.readouterr()

    for name in ("model.ckpt", "train_log.jsonl", "config.resolved", "known_users.json"):
        assert (out / name).exists()
    lines = (out / "train_log.jsonl").read_text().strip().splitlines()
    assert len(lines) == 2
    assert all("val_recall20" in json.loads(line) for line in lines)
    resolved = (out / "config.resolved").read_text()
    assert "seed = 7" in resolved and "embed_dim = 8" in resolved
    # the data directory rides along as a comment; the keys are what --config takes
    assert resolved.startswith(f"# data = {data}\n")
    keys = {key for key, _, _ in read_config_file(str(out / "config.resolved"))}
    assert keys == {field.name for field in dataclasses.fields(TrainConfig)}

    # ratio 0: no flagged users, checkpoint carries an empty tag list
    assert json.loads((out / "known_users.json").read_text())["users"] == []
    _, _, meta = load_checkpoint(str(out / "model.ckpt"))
    assert meta["user_tags"] == []
    assert meta["config"]["seed"] == 7


def test_train_flags_known_users(prepared, capsys):
    tmp_path, data, cfg = prepared
    out = tmp_path / "run_known"
    rc = main(["train", "--data", str(data), "--out-dir", str(out), "--config", str(cfg),
               "--known-user-ratio", "0.5", "--set", "min_sessions_per_user=5"])
    assert rc == 0
    capsys.readouterr()
    flagged = json.loads((out / "known_users.json").read_text())
    assert flagged["ratio"] == 0.5
    assert 0 < len(flagged["users"]) <= 6
    _, _, meta = load_checkpoint(str(out / "model.ckpt"))
    assert meta["user_tags"] == flagged["users"]


def test_train_env_seed_applies(prepared, capsys, monkeypatch):
    tmp_path, data, cfg = prepared
    monkeypatch.setenv("PROXYREC_SEED", "31")
    out = tmp_path / "run_env"
    rc = main(["train", "--data", str(data), "--out-dir", str(out), "--config", str(cfg)])
    assert rc == 0
    capsys.readouterr()
    assert "seed = 31" in (out / "config.resolved").read_text()


def test_train_config_path_naming_a_directory_exits_1(prepared, capsys):
    tmp_path, data, _ = prepared
    rc = main(["train", "--data", str(data), "--out-dir", str(tmp_path / "x"),
               "--config", str(tmp_path)])
    assert rc == 1
    assert str(tmp_path) in capsys.readouterr().err


def test_train_with_tables_beyond_the_address_space_exits_1(prepared, capsys):
    # 2**40 columns: the item table alone is past the 47-bit address space,
    # so its draw fails without allocating
    tmp_path, data, cfg = prepared
    items = json.loads((data / "manifest.json").read_text())["item_count"]
    rc = main(["train", "--data", str(data), "--out-dir", str(tmp_path / "x"),
               "--config", str(cfg), "--set", "embed_dim=1099511627776"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert (f"{items} items with embed_dim 1099511627776, proxy_count 4 and max_len 50"
            in err)


def test_failed_train_keeps_the_earlier_runs_logs(prepared, capsys):
    # a 2-epoch run, then one that fails in set-up into the same directory:
    # the logs are written under temporary names and renamed into place only
    # after the checkpoint, so the failed run leaves the first run's bytes
    tmp_path, data, cfg = prepared
    out = tmp_path / "run"
    assert main(["train", "--data", str(data), "--out-dir", str(out), "--config", str(cfg)]) == 0
    logs = {name: (out / name).read_bytes() for name in ("train_log.jsonl", "train_timing.jsonl")}
    assert all(logs.values())
    rc = main(["train", "--data", str(data), "--out-dir", str(out),
               "--config", str(cfg), "--set", "embed_dim=1099511627776"])
    assert rc == 1
    assert {name: (out / name).read_bytes() for name in logs} == logs
    assert not list(out.glob("*.tmp"))
    capsys.readouterr()


def test_train_rejects_bad_config_with_exit_1(prepared, capsys):
    tmp_path, data, _ = prepared
    bad = tmp_path / "bad.cfg"
    bad.write_text("mode = bogus\nepochs = 0\n", encoding="utf-8")
    rc = main(["train", "--data", str(data), "--out-dir", str(tmp_path / "x"),
               "--config", str(bad)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "2 configuration problem" in err

    ranges = tmp_path / "ranges.cfg"
    ranges.write_text(
        "anneal_start = 0.001\nmargin = -1\nlambda_dist = -0.5\npatience = -3\n",
        encoding="utf-8",
    )
    rc = main(["train", "--data", str(data), "--out-dir", str(tmp_path / "z"),
               "--config", str(ranges)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "4 configuration problem" in err
    for field in ("anneal_start", "margin", "lambda_dist", "patience"):
        assert field in err

    # an infinite start fails before training, not as a nan loss in epoch 1
    rc = main(["train", "--data", str(data), "--out-dir", str(tmp_path / "w"),
               "--set", "anneal_start=inf", "--set", "epochs=3"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "anneal_start" in err and not (tmp_path / "w" / "train_log.jsonl").exists()

    # the evaluation thread pool and its key are gone
    gone = tmp_path / "threads.cfg"
    gone.write_text("threads = 2\n", encoding="utf-8")
    rc = main(["train", "--data", str(data), "--out-dir", str(tmp_path / "y"),
               "--config", str(gone)])
    assert rc == 1
    assert "unknown key 'threads'" in capsys.readouterr().err

    # filter and path keys belong to prepare's flags and the command line
    retired = tmp_path / "retired.cfg"
    retired.write_text("min_item_count = 3\ndata = x\n", encoding="utf-8")
    rc = main(["train", "--data", str(data), "--out-dir", str(tmp_path / "u"),
               "--config", str(retired)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "unknown key 'min_item_count'" in err and "unknown key 'data'" in err

    latin = tmp_path / "latin1.cfg"
    latin.write_bytes("# caf\u00e9\nseed = 3\n".encode("latin-1"))
    rc = main(["train", "--data", str(data), "--out-dir", str(tmp_path / "w"),
               "--config", str(latin)])
    assert rc == 1
    assert "not UTF-8" in capsys.readouterr().err

    rc = main(["train", "--data", str(data), "--out-dir", str(tmp_path / "v"),
               "--seed", "-1", "--set", "learning_rate=inf"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "seed must be >= 0" in err and "learning_rate must be finite" in err


def test_train_reruns_bit_identical_and_resolved_config_replays(prepared, capsys):
    tmp_path, data, cfg = prepared
    out1, out2, out3 = (tmp_path / n for n in ("rep1", "rep2", "rep3"))
    base = ["train", "--data", str(data), "--config", str(cfg), "--set", "margin=0.4"]
    assert main(base + ["--out-dir", str(out1)]) == 0
    assert main(base + ["--out-dir", str(out2)]) == 0
    blob = (out1 / "model.ckpt").read_bytes()
    assert blob == (out2 / "model.ckpt").read_bytes()
    # wall-clock seconds live in the timing file, so the epoch log repeats too
    assert (out1 / "train_log.jsonl").read_bytes() == (out2 / "train_log.jsonl").read_bytes()
    timing = [json.loads(line) for line in (out1 / "train_timing.jsonl").read_text().splitlines()]
    assert [t["epoch"] for t in timing] == [0, 1] and all(t["seconds"] >= 0 for t in timing)

    # the persisted config alone reproduces the run
    rc = main(["train", "--data", str(data), "--out-dir", str(out3),
               "--config", str(out1 / "config.resolved")])
    assert rc == 0
    capsys.readouterr()
    assert (out3 / "model.ckpt").read_bytes() == blob


@pytest.mark.parametrize("command", ["train", "ablate"])
def test_a_bad_config_is_reported_before_the_data_is_read(tmp_path, capsys, command):
    rc = main([command, "--data", str(tmp_path / "nodata"), "--out-dir", str(tmp_path / "run"),
               "--set", "epochs=0"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "epochs must be >= 1" in err and "nodata" not in err
    assert not (tmp_path / "run").exists()


def test_failed_train_keeps_every_file_of_the_earlier_run(prepared, capsys, monkeypatch):
    # a rerun with another margin fails on the last of its five files: all
    # five land together, so the first run's set keeps its bytes
    tmp_path, data, cfg = prepared
    out = tmp_path / "run"
    args = ["train", "--data", str(data), "--out-dir", str(out), "--config", str(cfg)]
    assert main(args) == 0
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    assert sorted(before) == ["config.resolved", "known_users.json", "model.ckpt",
                              "train_log.jsonl", "train_timing.jsonl"]

    def failing_write_resolved(*_):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli_module, "write_resolved", failing_write_resolved)
    capsys.readouterr()
    assert main(args + ["--set", "margin=0.3"]) == 2
    err = capsys.readouterr().err
    assert "No space left on device" in err and "Traceback" not in err
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before
    assert not list(out.glob("*.tmp"))


# -- evaluate --------------------------------------------------------------------


@pytest.fixture()
def trained(prepared, capsys):
    tmp_path, data, cfg = prepared
    out = tmp_path / "trained"
    assert main(["train", "--data", str(data), "--out-dir", str(out),
                 "--config", str(cfg)]) == 0
    capsys.readouterr()
    return tmp_path, data, out / "model.ckpt"


def test_evaluate_writes_reports_for_both_tasks(trained, capsys):
    tmp_path, data, ckpt = trained
    out = tmp_path / "reports"
    for task in ("unseen", "repeat"):
        rc = main(["evaluate", "--checkpoint", str(ckpt), "--data", str(data),
                   "--task", task, "--out-dir", str(out)])
        assert rc == 0
    shown = capsys.readouterr().out
    assert "recall@k" in shown
    for task in ("unseen", "repeat"):
        payload = json.loads((out / f"report_test_{task}.json").read_text())
        assert payload["config"]["task"] == task
        assert len(payload["recall"]) == 3 and len(payload["mrr"]) == 3
        assert (out / f"report_test_{task}.txt").exists()


def test_failed_evaluate_keeps_the_earlier_runs_reports(trained, capsys, monkeypatch):
    # a first evaluate, then one with other ks whose second report fails to
    # open: both reports are written under temporary names and renamed into
    # place only after both are written, so the first run's pair keeps its bytes
    tmp_path, data, ckpt = trained
    out = tmp_path / "reports"
    args = ["evaluate", "--checkpoint", str(ckpt), "--data", str(data), "--out-dir", str(out)]
    assert main(args) == 0
    names = ("report_test_unseen.json", "report_test_unseen.txt")
    reports = {name: (out / name).read_bytes() for name in names}
    opened = []

    def failing_open(path, *args, **kwargs):
        if os.path.basename(path).startswith("report_"):
            opened.append(path)
            if len(opened) == 2:
                raise OSError(28, "No space left on device", path)
        return open(path, *args, **kwargs)

    monkeypatch.setattr(cli_module, "open", failing_open, raising=False)
    capsys.readouterr()
    assert main(args + ["--ks", "5,10"]) == 2
    err = capsys.readouterr().err
    assert "No space left on device" in err and "Traceback" not in err
    assert len(opened) == 2
    assert {name: (out / name).read_bytes() for name in names} == reports
    assert not list(out.glob("*.tmp"))


def test_evaluate_valid_split_matches_training_log(trained, capsys):
    tmp_path, data, ckpt = trained
    logged = [
        json.loads(line)
        for line in (ckpt.parent / "train_log.jsonl").read_text().splitlines()
    ]
    best = max(s["val_recall20"] for s in logged)
    out = tmp_path / "replay"
    rc = main(["evaluate", "--checkpoint", str(ckpt), "--data", str(data),
               "--split", "valid", "--ks", "20", "--out-dir", str(out)])
    assert rc == 0
    capsys.readouterr()
    payload = json.loads((out / "report_valid_unseen.json").read_text())
    assert payload["recall"]["20"] == pytest.approx(best, abs=1e-12)


def test_evaluate_item_count_mismatch_is_exit_2(trained, capsys):
    tmp_path, _, ckpt = trained
    log = tmp_path / "other.tsv"
    write_log(log, planted_corpus(n_users=4, n_items=40, sessions_per_user=10,
                                  owners_per_item=2, seed=9))
    other = tmp_path / "other"
    assert main(["prepare", "--input", str(log), "--out-dir", str(other),
                 "--min-item-count", "1"]) == 0
    rc = main(["evaluate", "--checkpoint", str(ckpt), "--data", str(other)])
    assert rc == 2
    assert "items" in capsys.readouterr().err


def test_evaluate_corrupt_checkpoint_is_exit_2(trained, capsys):
    _, data, ckpt = trained
    raw = bytearray(ckpt.read_bytes())
    raw[-12] ^= 0x01  # inside the last tensor block's data
    ckpt.write_bytes(bytes(raw))
    assert main(["evaluate", "--checkpoint", str(ckpt), "--data", str(data)]) == 2
    assert "checksum mismatch" in capsys.readouterr().err


def with_meta(raw: bytes, meta) -> bytes:
    """A format-2 checkpoint with its meta block replaced, checksum included."""
    (old_len,) = struct.unpack("<Q", raw[8:16])
    block = json.dumps(meta).encode("utf-8")
    block = struct.pack("<Q", len(block)) + block
    return raw[:8] + block + struct.pack("<I", zlib.crc32(block)) + raw[16 + old_len + 4:]


def test_evaluate_checkpoint_with_bad_meta_is_exit_2(trained, capsys):
    tmp_path, data, ckpt = trained
    raw = ckpt.read_bytes()
    _, _, meta = load_checkpoint(str(ckpt))
    no_config = {k: v for k, v in meta.items() if k != "config"}
    wider = {**meta, "config": {**meta["config"], "embed_dim": 9}}
    path = tmp_path / "bad_meta.ckpt"
    for bad, problem in (
        ([1, 2], "metadata needs to be a JSON object"),
        (no_config, "metadata needs config.mode"),
        ({**meta, "tau": "0.5"}, "metadata needs a finite tau"),
        (wider, "do not match the shapes in the metadata"),
    ):
        path.write_bytes(with_meta(raw, bad))
        assert main(["evaluate", "--checkpoint", str(path), "--data", str(data)]) == 2
        assert problem in capsys.readouterr().err
    # the same meta block rebuilt unchanged still loads
    path.write_bytes(with_meta(raw, meta))
    load_checkpoint(str(path))


def test_evaluate_bad_ks_is_reported_before_the_checkpoint_is_read(tmp_path, capsys):
    rc = main(["evaluate", "--checkpoint", str(tmp_path / "nope.ckpt"),
               "--data", str(tmp_path / "nodata"), "--ks", "5,x"])
    assert rc == 1
    assert "--ks must be comma-separated integers, got '5,x'" in capsys.readouterr().err


@pytest.mark.parametrize("damage", ["item-row-scaled", "nan-weight"])
def test_evaluate_checkpoint_with_out_of_range_tensors_is_exit_2(trained, capsys, damage):
    # written through save_checkpoint, so every checksum matches the damage
    tmp_path, data, ckpt = trained
    params, adam, meta = load_checkpoint(str(ckpt))
    if damage == "item-row-scaled":
        params.items[3] *= 1e40
        problem = "tensors ['items'] have rows outside the unit ball"
    else:
        params.named()["enc_w1"][1, 2] = np.nan
        problem = "tensors ['enc_w1'] hold non-finite values"
    path = tmp_path / "damaged.ckpt"
    save_checkpoint(str(path), params, adam, meta["epoch"], meta["tau"],
                    TrainConfig(**meta["config"]))
    assert main(["evaluate", "--checkpoint", str(path), "--data", str(data),
                 "--out-dir", str(tmp_path / "reports")]) == 2
    err = capsys.readouterr().err
    assert problem in err and "Traceback" not in err
    assert not (tmp_path / "reports").exists()


# -- ablate ----------------------------------------------------------------------


def test_ablate_grid_and_full_row_matches_standalone_train(prepared, capsys):
    tmp_path, data, cfg = prepared
    grid = tmp_path / "grid"
    rc = main(["ablate", "--data", str(data), "--out-dir", str(grid), "--config", str(cfg)])
    assert rc == 0
    shown = capsys.readouterr().out
    assert "variant" in shown

    rows = json.loads((grid / "ablation.json").read_text())
    assert [r["variant"] for r in rows] == [
        "full", "proxy_only", "short_only", "no_projection",
        "weighted_comb", "dot_product", "no_reg_dist",
    ]
    for r in rows:
        assert 0.0 <= r["test_recall20"] <= 1.0
        assert (grid / f"{r['variant']}.ckpt").exists()
    assert (grid / "ablation.txt").read_text().count("\n") == 8

    out = tmp_path / "standalone"
    assert main(["train", "--data", str(data), "--out-dir", str(out),
                 "--config", str(cfg)]) == 0
    capsys.readouterr()
    assert (grid / "full.ckpt").read_bytes() == (out / "model.ckpt").read_bytes()

    # pinned temperature stays at its start value in the saved variant
    _, _, meta = load_checkpoint(str(grid / "weighted_comb.ckpt"))
    assert meta["config"]["anneal_end"] == meta["config"]["anneal_start"] == 3.0
    assert meta["tau"] == 3.0


def test_ablation_variants_keep_the_task_and_the_known_users(prepared):
    _, data, _ = prepared
    split, _ = read_split_manifest(str(data))
    for base in (TrainConfig(known_user_ratio=0.5), TrainConfig(task="repeat", seed=3)):
        known = pick_known_users(split, base)
        for cfg in ablation_variants(base).values():
            assert cfg.task == base.task
            assert pick_known_users(split, cfg) == known


def test_ablate_expands_the_test_split_once_and_keeps_the_grid_bytes(
    prepared, capsys, monkeypatch
):
    tmp_path, data, cfg = prepared
    split, _ = read_split_manifest(str(data))
    expand, evaluate, expanded = cli_module.expand_all, cli_module.evaluate, []

    def counted(sessions, *args, **kwargs):
        expanded.append(sessions)
        return expand(sessions, *args, **kwargs)

    def ablate(out_dir):
        argv = ["ablate", "--data", str(data), "--out-dir", str(out_dir), "--config", str(cfg)]
        assert main(argv) == 0
        capsys.readouterr()
        return {name: (out_dir / name).read_bytes() for name in ("ablation.json", "ablation.txt")}

    monkeypatch.setattr(cli_module, "expand_all", counted)
    once = ablate(tmp_path / "once")
    assert expanded == [split.test]

    # each variant's evaluate handed a test split expanded for it alone
    known = set(pick_known_users(split, resolve_config(str(cfg))))

    def per_variant(**kwargs):
        return evaluate(**dict(kwargs, instances=expand(split.test, kwargs["task"], known)))

    monkeypatch.setattr(cli_module, "evaluate", per_variant)
    assert ablate(tmp_path / "per_variant") == once


@pytest.mark.parametrize("where", ["--set", "config"])
def test_ablate_refuses_a_mode_other_than_full_before_training(prepared, capsys, where):
    # every grid row sets its own mode from a full base
    tmp_path, data, cfg = prepared
    grid = tmp_path / "grid"
    flags = ["ablate", "--data", str(data), "--out-dir", str(grid), "--config", str(cfg)]
    if where == "--set":
        flags += ["--set", "mode=dot_product"]
    else:
        cfg.write_text(cfg.read_text(encoding="utf-8") + "mode = dot_product\n", encoding="utf-8")
    assert main(flags) == 1
    captured = capsys.readouterr()
    assert "mode = 'dot_product'" in captured.err
    assert captured.out == ""
    assert not grid.exists()


def test_ablate_reruns_bit_identical_and_a_failed_rerun_keeps_the_grid(
    prepared, capsys, monkeypatch
):
    tmp_path, data, cfg = prepared
    grid = tmp_path / "grid"
    args = ["ablate", "--data", str(data), "--out-dir", str(grid), "--config", str(cfg)]

    def files():
        return {path.name: path.read_bytes() for path in grid.iterdir()}

    def untimed(found):
        return {name: blob for name, blob in found.items() if not name.endswith("timing.jsonl")}

    assert main(args) == 0
    first = files()
    assert len(first) == 7 * 3 + 3
    assert main(args) == 0
    assert untimed(files()) == untimed(first)
    first = files()

    # another margin changes every file; the third variant's fit then fails
    fit, calls = cli_module.fit, []

    def third_fit_fails(*fit_args, **fit_kwargs):
        calls.append(fit_args[1].mode)
        if len(calls) == 3:
            raise NumericError("loss is nan")
        return fit(*fit_args, **fit_kwargs)

    monkeypatch.setattr(cli_module, "fit", third_fit_fails)
    capsys.readouterr()
    assert main(args + ["--set", "margin=0.3"]) == 3
    err = capsys.readouterr().err
    assert "loss is nan" in err and "Traceback" not in err
    assert calls == ["full", "proxy_only", "short_only"]
    assert files() == first
