"""Command surface: config layering, exit codes, artifacts, determinism."""

import json
import os

import pytest

from proxyrec.cli import (
    ablation_variants,
    main,
    read_config_file,
    resolve_config,
    train_config,
)
from proxyrec.errors import ConfigError
from proxyrec.synth import planted_corpus
from proxyrec.trainer import TrainConfig, load_checkpoint


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
    resolved = resolve_config(environ={})
    cfg = train_config(resolved)
    assert cfg == TrainConfig()
    assert resolved["min_item_count"] == 5
    assert resolved["ratios"] == "8,1,1"


def test_file_env_and_overrides_layer_in_order(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("seed = 7\nnegatives = 2\n# comment\n\nmargin = 0.25\n", encoding="utf-8")
    assert len(read_config_file(str(path))) == 3

    resolved = resolve_config(str(path), environ={"PROXYREC_SEED": "99"})
    assert (resolved["seed"], resolved["negatives"], resolved["margin"]) == (99, 2, 0.25)

    resolved = resolve_config(
        str(path),
        overrides=[("seed", "5", "--seed")],
        environ={"PROXYREC_SEED": "99"},
    )
    assert resolved["seed"] == 5


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
    # config.resolved records out_dir, the only artifact allowed to differ
    names = sorted(set(os.listdir(data)) - {"config.resolved"})
    first = {name: (data / name).read_bytes() for name in names}
    assert "manifest.json" in first and "stats.txt" in first
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


def test_prepare_infinite_timestamp_exits_2(tmp_path, capsys):
    log = tmp_path / "inf.tsv"
    log.write_text("u1\ta\t100\nu1\tb\tinf\n", encoding="utf-8")
    assert main(["prepare", "--input", str(log), "--out-dir", str(tmp_path / "x")]) == 2
    assert "line 2: bad timestamp 'inf'" in capsys.readouterr().err


# -- train -----------------------------------------------------------------------


@pytest.mark.parametrize(
    "text",
    [
        "{not json",
        "[1, 2]",
        '{"item_count": 60}',
        '{"files": {"train": "train.jsonl", "valid": "valid.jsonl", "test": "test.jsonl"}}',
        '{"files": {"train": "train.jsonl"}, "item_count": 60}',
    ],
    ids=["not-json", "not-object", "no-files", "no-item-count", "files-incomplete"],
)
def test_train_rejects_bad_manifest_with_exit_2(prepared, capsys, text):
    tmp_path, data, cfg = prepared
    (data / "manifest.json").write_text(text, encoding="utf-8")
    rc = main(["train", "--data", str(data), "--out-dir", str(tmp_path / "run"),
               "--config", str(cfg)])
    assert rc == 2
    assert "manifest" in capsys.readouterr().err


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


def test_train_rejects_bad_config_with_exit_1(prepared, capsys):
    tmp_path, data, _ = prepared
    bad = tmp_path / "bad.cfg"
    bad.write_text("mode = bogus\nepochs = 0\n", encoding="utf-8")
    rc = main(["train", "--data", str(data), "--out-dir", str(tmp_path / "x"),
               "--config", str(bad)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "2 configuration problem" in err

    # the evaluation thread pool and its key are gone
    gone = tmp_path / "threads.cfg"
    gone.write_text("threads = 2\n", encoding="utf-8")
    rc = main(["train", "--data", str(data), "--out-dir", str(tmp_path / "y"),
               "--config", str(gone)])
    assert rc == 1
    assert "unknown key 'threads'" in capsys.readouterr().err


def test_train_reruns_bit_identical_and_resolved_config_replays(prepared, capsys):
    tmp_path, data, cfg = prepared
    out1, out2, out3 = (tmp_path / n for n in ("rep1", "rep2", "rep3"))
    base = ["train", "--data", str(data), "--config", str(cfg), "--set", "margin=0.4"]
    assert main(base + ["--out-dir", str(out1)]) == 0
    assert main(base + ["--out-dir", str(out2)]) == 0
    blob = (out1 / "model.ckpt").read_bytes()
    assert blob == (out2 / "model.ckpt").read_bytes()

    # the persisted config alone reproduces the run
    rc = main(["train", "--data", str(data), "--out-dir", str(out3),
               "--config", str(out1 / "config.resolved")])
    assert rc == 0
    capsys.readouterr()
    assert (out3 / "model.ckpt").read_bytes() == blob


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
