"""Seeded fuzzing of every external input: logs, manifests and their split
files, config files, checkpoints and prepare's flags.

Each file example truncates, bit-flips or inserts bytes into one valid file
and runs the command that reads it; the flag example draws prepare's filter,
delimiter and ratio values. Whatever the input, main() must return one of
the documented exit codes (0 success, 1 configuration, 2 data or artifact,
3 numeric) and never raise.
"""

import contextlib
import gzip
import io
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from proxyrec.cli import main
from proxyrec.synth import planted_corpus

FUZZ = settings(
    derandomize=True,
    database=None,
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# sizes pinned on the command line, so a damaged config file cannot make a
# run large; the file's own lines are still parsed and checked
SMALL = ["--set", "epochs=1", "--set", "embed_dim=4", "--set", "proxy_count=2",
         "--set", "negatives=2", "--set", "max_len=50"]

CONFIG = (
    "# desk-scale run\n"
    "embed_dim = 4\nproxy_count = 2\nepochs = 1\nnegatives = 2\n"
    "learning_rate = 0.01\nmargin = 0.5\nlambda_dist = 0.1\nmode = full\n"
    "task = unseen\nknown_user_ratio = 0.5\nmin_sessions_per_user = 2\nseed = 4\n"
)


@st.composite
def damage(draw):
    """A function that damages a byte string in one of three ways."""
    kind = draw(st.sampled_from(["truncate", "flip", "insert"]))
    at = draw(st.floats(0.0, 1.0))
    bit = draw(st.integers(0, 7))
    extra = draw(st.binary(min_size=1, max_size=8))

    def apply(raw: bytes) -> bytes:
        i = min(int(at * len(raw)), len(raw) - 1)
        if kind == "truncate":
            return raw[:i]
        if kind == "flip":
            return raw[:i] + bytes([raw[i] ^ (1 << bit)]) + raw[i + 1 :]
        return raw[:i] + extra + raw[i:]

    return apply


def run(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """A log (plain and gzipped), its prepared split, a config and a checkpoint."""
    root = tmp_path_factory.mktemp("fuzz")
    corpus = planted_corpus(n_users=4, n_items=30, sessions_per_user=8, owners_per_item=2, seed=1)
    rows = [f"{s.user_tag}\titem{i}\t{s.start_ts + j}\n"
            for s in corpus for j, i in enumerate(s.items)]
    (root / "log.tsv").write_text("".join(rows), encoding="utf-8")
    (root / "log.tsv.gz").write_bytes(gzip.compress("".join(rows).encode("utf-8"), mtime=0))
    (root / "run.cfg").write_text(CONFIG, encoding="utf-8")
    data, run_dir = root / "data", root / "run"
    assert run(["prepare", "--input", str(root / "log.tsv"), "--out-dir", str(data),
                "--min-item-count", "1"]) == 0
    assert run(["train", "--data", str(data), "--out-dir", str(run_dir),
                "--config", str(root / "run.cfg")] + SMALL) == 0
    return root


def damaged_copy(src: Path, dst: Path, fix) -> Path:
    dst.write_bytes(fix(src.read_bytes()))
    return dst


@FUZZ
@given(fix=damage(), gz=st.booleans())
def test_damaged_log(artifacts, fix, gz):
    name = "log.tsv.gz" if gz else "log.tsv"
    with tempfile.TemporaryDirectory() as tmp:
        log = damaged_copy(artifacts / name, Path(tmp) / name, fix)
        rc = run(["prepare", "--input", str(log), "--out-dir", str(Path(tmp) / "out"),
                  "--min-item-count", "1"])
    assert rc in (0, 1, 2, 3)


@FUZZ
@given(
    floors=st.tuples(st.integers(-2, 8), st.integers(-2, 8), st.integers(-2, 60)),
    # the log's own separator is one choice, so some draws get past the parse
    delimiter=st.one_of(st.just("\t"), st.text(max_size=2)),
    ratios=st.one_of(
        st.lists(st.integers(0, 10), min_size=3, max_size=3).map(lambda v: ",".join(map(str, v))),
        st.text(max_size=6),
    ),
)
@example(floors=(2, 3, 10), delimiter="\t", ratios="6,2,2")  # draws seldom get this far
def test_prepare_flags(artifacts, floors, delimiter, ratios):
    min_item_count, min_session_len, max_session_len = floors
    with tempfile.TemporaryDirectory() as tmp:
        rc = run(["prepare", "--input", str(artifacts / "log.tsv"),
                  "--out-dir", str(Path(tmp) / "out"),
                  "--min-item-count", str(min_item_count),
                  "--min-session-len", str(min_session_len),
                  "--max-session-len", str(max_session_len),
                  "--delimiter", delimiter, "--ratios", ratios])
    assert rc in (0, 1, 2, 3)


@FUZZ
@given(fix=damage(), name=st.sampled_from(["manifest.json", "train.jsonl", "valid.jsonl",
                                            "test.jsonl"]))
def test_damaged_manifest_or_split_file(artifacts, fix, name):
    with tempfile.TemporaryDirectory() as tmp:
        data = Path(tmp) / "data"
        shutil.copytree(artifacts / "data", data)
        damaged_copy(artifacts / "data" / name, data / name, fix)
        rc = run(["train", "--data", str(data), "--out-dir", str(Path(tmp) / "run"),
                  "--config", str(artifacts / "run.cfg")] + SMALL)
    assert rc in (0, 1, 2, 3)


@FUZZ
@given(fix=damage())
def test_damaged_config(artifacts, fix):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = damaged_copy(artifacts / "run.cfg", Path(tmp) / "run.cfg", fix)
        rc = run(["train", "--data", str(artifacts / "data"), "--out-dir", str(Path(tmp) / "run"),
                  "--config", str(cfg)] + SMALL)
    assert rc in (0, 1, 2, 3)


@FUZZ
@given(fix=damage())
def test_damaged_checkpoint(artifacts, fix):
    with tempfile.TemporaryDirectory() as tmp:
        ckpt = damaged_copy(artifacts / "run" / "model.ckpt", Path(tmp) / "model.ckpt", fix)
        rc = run(["evaluate", "--checkpoint", str(ckpt), "--data", str(artifacts / "data"),
                  "--out-dir", tmp])
    assert rc in (0, 1, 2, 3)
