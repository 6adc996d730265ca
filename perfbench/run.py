"""prepare -> fit -> checkpoint -> evaluate benchmark for proxyrec.

    python3 perfbench/run.py --workload long_sessions --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout: the program is imported from `src/`
there, and nothing else is used. Each workload runs in its own process with
the BLAS thread count set to the number of usable cores.

A run writes a generated interaction log to a scratch directory under
`perfbench/out/`, sets the whole pipeline up several times, then repeats
rounds of set-up, a fixed-epoch `fit`, a checkpoint save and load, and
`evaluate` on the test split until `--seconds` have passed. Set-up time is a
median; the other timings are work over time summed across the rounds (see
end_to_end_metrics). With `--trace 1` every other round runs with spans
recorded around the program's public functions (see spans.py) and the run
reports per-layer numbers plus the tracing overhead against the untraced
rounds of the same process.

Every run checks its outputs (see checks.py). The last line of standard output
is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import os

# BLAS reads its thread count once, when numpy loads it.
_CORES = len(os.sched_getaffinity(0))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(_CORES)

import argparse
import contextlib
import gc
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

import checks  # noqa: E402
from spans import SpanTable, Tracer  # noqa: E402

EPOCHS = 2  # the smallest count that lets the loss check compare two epochs
EXTRA_SETUPS = 9  # set-ups before the first round, so setup_s has >= 10 samples
CORPUS_SEED = 0
TRAIN_SEED = 0
RATIOS = (8, 1, 1)
KS = (5, 10, 20)
ORACLE_SAMPLE = 24

# The c08/c09 acceptance configuration (d=32, K=30, lr 0.01, batch 128).
_ACCEPTANCE = dict(embed_dim=32, proxy_count=30, learning_rate=0.01, batch_size=128)

WORKLOADS = {
    # 500 items, 7,585 training instances; per-op autodiff overhead dominates.
    # Runnable, but not in BENCHMARK.json: its timings spread too widely on
    # the 2-core reference machine (see README.md).
    "small_catalog": dict(
        corpus=dict(),
        filters=dict(),
        train=dict(_ACCEPTANCE, known_user_ratio=0.5),
        eval_repeats=5,
    ),
    # 7,211 items; dense O(N*d) work in backward, Adam and catalog scoring
    "wide_catalog": dict(
        corpus=dict(n_users=200, n_items=8000, sessions_per_user=20),
        filters=dict(min_item_count=1),
        train=dict(embed_dim=64, proxy_count=100, learning_rate=0.01, batch_size=128),
        eval_repeats=1,
    ),
    # prefixes of 1..49 items: many length buckets and O(L^2) attention
    "long_sessions": dict(
        corpus=dict(n_users=20, n_items=500, sessions_per_user=20, length_range=(10, 50)),
        filters=dict(),
        train=dict(_ACCEPTANCE, known_user_ratio=0.5),
        eval_repeats=5,
    ),
    # seconds-long shape for perfbench/smoke.py; not a benchmark workload
    "tiny": dict(
        corpus=dict(n_users=6, n_items=120, sessions_per_user=40),
        filters=dict(min_item_count=1),
        train=dict(embed_dim=16, proxy_count=6, learning_rate=0.01, batch_size=32,
                   known_user_ratio=0.5),
        eval_repeats=1,
    ),
}

# (name, unit) of the metrics an untraced run reports
END_TO_END = (
    ("setup_s", "s"),
    ("fit_s", "s"),
    ("train_instances_per_s", "instances/s"),
    ("eval_instances_per_s", "instances/s"),
    ("peak_rss_mb", "MB"),
    ("recall20", "fraction"),
    ("train_loss", "loss/instance"),
)

# (metric, unit, how, span name, parent span name); see layer_metrics()
PER_LAYER = (
    ("autodiff.graph_nodes", "count", "graph", None, None),
    ("autodiff.backward_ms", "ms", "median", "autodiff.Tensor.backward", None),
    ("trainer.objective_ms", "ms", "median", "trainer.objective", None),
    ("trainer.adam_step_ms", "ms", "median", "trainer.adam_step", None),
    ("trainer.project_constraints_ms", "ms", "median", "trainer.project_constraints", "trainer.train_epoch"),
    ("trainer.train_epoch_self_ms", "ms", "self_per_batch", "trainer.train_epoch", None),
    ("trainer.batches", "count", "per_fit", "trainer.objective", None),
    ("data.sample_negatives_us", "us", "median", "data.sample_negatives", None),
    ("data.sample_negatives_calls", "count", "per_fit", "data.sample_negatives", None),
    ("evaluator.validation_s", "s", "median", "evaluator.evaluate", "trainer.fit"),
    ("evaluator.evaluate_s", "s", "median", "evaluator.evaluate", "bench.evaluate"),
    ("evaluator.score_instance_us", "us", "median", "evaluator.score_instance", None),
    ("evaluator.rank_of_target_us", "us", "median", "evaluator.rank_of_target", None),
    ("selector.select_for_inference_us", "us", "median", "selector.select_for_inference", None),
    ("encoder.encode_short_term_us", "us", "median", "encoder.encode_short_term", None),
    ("scoring.score_catalog_us", "us", "median", "scoring.score_catalog", None),
    ("scoring.hyperplane_normal_us", "us", "median", "scoring.hyperplane_normal", None),
    ("data.load_interactions_s", "s", "per_setup", "data.load_interactions", "bench.setup"),
    ("data.build_sessions_s", "s", "per_setup", "data.build_sessions", "bench.setup"),
    ("data.apply_filters_s", "s", "per_setup", "data.apply_filters", "bench.setup"),
    ("data.chronological_split_s", "s", "per_setup", "data.chronological_split", "bench.setup"),
    ("data.write_split_manifest_s", "s", "per_setup", "data.write_split_manifest", "bench.setup"),
    ("data.read_split_manifest_s", "s", "per_setup", "data.read_split_manifest", "bench.setup"),
    ("data.expand_all_s", "s", "per_setup", "data.expand_all", "bench.setup"),
    ("trainer.init_model_s", "s", "per_setup", "trainer.init_model", "bench.setup"),
    ("trainer.save_checkpoint_s", "s", "median", "trainer.save_checkpoint", None),
    ("trainer.load_checkpoint_s", "s", "median", "trainer.load_checkpoint", None),
    ("trace.overhead_pct", "%", "overhead", None, None),
)
_SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6}


def load_program():
    """Import proxyrec from this checkout's src/, and from nowhere else."""
    sys.path.insert(0, SRC)
    try:
        import proxyrec
    except ImportError as exc:
        raise SystemExit(f"error: cannot import proxyrec from {SRC}: {exc}")
    if not os.path.abspath(proxyrec.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: proxyrec was imported from {proxyrec.__file__}, not {SRC}")
    from proxyrec import data, evaluator, synth, trainer

    return data, trainer, evaluator, synth


# -- inputs ---------------------------------------------------------------------


def write_log(path: str, sessions, seed: int) -> None:
    """One row per interaction: user, item, time (tab separated).

    The seed picks the opaque item tokens and shifts every timestamp by a whole
    number of days. `prepare` maps tokens to ids by first appearance and cuts
    sessions at day boundaries, so every seed yields the same prepared split
    and the same fitted model: the quality metrics are exact, and the timing
    differs between seeds only by the parser's work on other bytes.
    """
    rng = np.random.default_rng([seed, 4242])
    n_items = max(i for s in sessions for i in s.items)
    tokens = [f"{t:016x}" for t in rng.integers(0, 2**63, size=n_items + 1)]
    if len(set(tokens)) != len(tokens):
        raise SystemExit("error: item token collision; choose another seed")
    shift = int(rng.integers(0, 10_000)) * 86400
    with open(path, "w", encoding="utf-8") as fh:
        for s in sessions:
            for j, item in enumerate(s.items):
                fh.write(f"{s.user_tag}\t{tokens[item]}\t{s.start_ts + shift + j}\n")


@dataclass
class Prepared:
    split: object
    known: list
    train: list
    valid: list
    test: list
    params: object


@dataclass
class RoundResult:
    setup_s: float
    fit_s: float
    train_s: float
    eval_s: list  # one per evaluate call on the test split
    wall_s: float
    train_instances: int
    test_instances: int
    epochs: int
    recall: dict
    mrr: dict
    last_loss: float
    digest: str


class Bench:
    def __init__(self, workload: str, seed: int, work: str, modules):
        self.data, self.trainer, self.evaluator, synth = modules
        spec = WORKLOADS[workload]
        self.filters = self.data.FilterConfig(**spec["filters"])
        self.cfg = self.trainer.TrainConfig(
            epochs=EPOCHS, patience=EPOCHS, seed=TRAIN_SEED, **spec["train"]
        )
        self.eval_repeats = spec["eval_repeats"]
        self.work = work
        self.log = os.path.join(work, "events.tsv")
        write_log(self.log, synth.planted_corpus(seed=CORPUS_SEED, **spec["corpus"]), seed)
        self.tracer: Tracer | None = None
        self.problems: list[str] = []
        self.setup_samples: list[float] = []
        self.kept: tuple | None = None  # (prepared, fit result) of the first round
        self.peak_rss_mb = 0.0  # after the first round; later rounds only fragment the heap

    def span(self, name):
        return self.tracer.span(name) if self.tracer is not None else contextlib.nullcontext()

    def setup(self) -> Prepared:
        """Raw log on disk to the first training batch: the `prepare` pipeline,
        the manifest read back, instance expansion and init_model."""
        data, trainer, cfg = self.data, self.trainer, self.cfg
        out = os.path.join(self.work, "data")
        t0 = time.perf_counter()
        with self.span("bench.setup"):
            records, raw_map = data.load_interactions(self.log, columns="user,item,time")
            sessions = data.build_sessions(records, self.filters)
            sessions = data.apply_filters(sessions, self.filters)
            split = data.chronological_split(sessions, RATIOS, self.filters.min_session_len)
            data.write_split_manifest(split, out, raw_map, self.filters, RATIOS)
            split, manifest = data.read_split_manifest(out)
            known = trainer.pick_known_users(split, cfg)
            known_set = set(known)
            prepared = Prepared(
                split=split,
                known=known,
                train=data.expand_all(split.train, cfg.task, known_set),
                valid=data.expand_all(split.valid, cfg.task, known_set),
                test=data.expand_all(split.test, cfg.task, known_set),
                params=trainer.init_model(split.item_count, cfg, sorted(known)),
            )
        self.setup_samples.append(time.perf_counter() - t0)
        self.problems += checks.check_prepared(split, manifest, self.filters.min_session_len)
        return prepared

    def ops_per_round(self) -> int:
        return 4 + self.eval_repeats  # set-up, fit, save, load, each evaluate

    def round(self) -> RoundResult:
        trainer, evaluator, cfg = self.trainer, self.evaluator, self.cfg
        gc.collect()  # each round starts from the same heap, outside the timings
        t0 = time.perf_counter()
        with self.span("bench.round"):
            prep = self.setup()
            setup_s = self.setup_samples[-1]

            # fit looks evaluate up in proxyrec.evaluator on every call, so
            # timing it there separates validation from the training passes
            validate = evaluator.evaluate
            validation = [0.0]

            def timed_validate(*args, **kwargs):
                v0 = time.perf_counter()
                try:
                    return validate(*args, **kwargs)
                finally:
                    validation[0] += time.perf_counter() - v0

            evaluator.evaluate = timed_validate
            try:
                f0 = time.perf_counter()
                with self.span("bench.fit"):
                    result = trainer.fit(prep.split, cfg, prep.known, params=prep.params)
                fit_s = time.perf_counter() - f0
            finally:
                evaluator.evaluate = validate

            path = os.path.join(self.work, "model.ckpt")
            with self.span("bench.checkpoint"):
                trainer.save_checkpoint(path, result.params, result.adam, result.epoch, result.tau, cfg)
                loaded, loaded_adam, _ = trainer.load_checkpoint(path)
            eval_s = []
            for _ in range(self.eval_repeats):
                e0 = time.perf_counter()
                with self.span("bench.evaluate"):
                    report = evaluator.evaluate(result.params, prep.test, cfg.task, KS, result.tau)
                eval_s.append(time.perf_counter() - e0)
        wall_s = time.perf_counter() - t0

        self.problems += checks.check_checkpoint(result.params, result.adam, loaded, loaded_adam)
        self.problems += checks.check_fitted(result.params, result.history, report.recall[20], prep.test)
        with open(path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        if self.kept is None:
            self.kept = (prep, result)
            self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return RoundResult(
            setup_s, fit_s, fit_s - validation[0], eval_s, wall_s,
            len(prep.train), len(prep.test), len(result.history),
            report.recall, report.mrr, result.history[-1]["loss"], digest,
        )

    def check_rounds(self, rounds: list[RoundResult], seed: int) -> None:
        """Every round fits the same model; the first one passes the oracle."""
        first = rounds[0]
        for r in rounds[1:]:
            if (r.digest, r.recall, r.mrr) != (first.digest, first.recall, first.mrr):
                self.problems.append("rounds of one run fitted different models")
        prepared, result = self.kept
        test = prepared.test
        rng = np.random.default_rng([seed, 31])
        pick = sorted(rng.choice(len(test), size=min(ORACLE_SAMPLE, len(test)), replace=False))
        sample = [test[i] for i in pick]
        report = self.evaluator.evaluate(result.params, sample, self.cfg.task, KS, result.tau)
        self.problems += checks.check_ranking(
            result.params, sample, self.cfg.task, result.tau, report, KS
        )


# -- metrics --------------------------------------------------------------------


def end_to_end_metrics(bench: Bench, rounds: list[RoundResult]) -> dict:
    """Set-up is a median of many short samples. The other timings are work
    over time summed across all rounds: this machine's speed flips between
    two levels within seconds, and a median of samples taken from a two-level
    distribution jumps between them, while a sum moves with their mix."""
    evaluated = sum(r.test_instances * len(r.eval_s) for r in rounds)
    values = {
        "setup_s": statistics.median(bench.setup_samples),
        "fit_s": sum(r.fit_s for r in rounds) / len(rounds),
        "train_instances_per_s": sum(r.train_instances * r.epochs for r in rounds)
        / sum(r.train_s for r in rounds),
        "eval_instances_per_s": evaluated / sum(sum(r.eval_s) for r in rounds),
        "peak_rss_mb": bench.peak_rss_mb,
        "recall20": rounds[0].recall[20],
        "train_loss": rounds[0].last_loss,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def layer_metrics(tracer: Tracer, traced: list[RoundResult], untraced: list[RoundResult]):
    """Per-layer values from the spans; a layer with no spans is absent (0)."""
    table = SpanTable(tracer.spans)
    med = statistics.median
    fits = len(table.ids("trainer.fit"))
    batches = len(table.ids("trainer.objective"))
    out, absent = {}, []
    for name, unit, how, span, parent in PER_LAYER:
        value = None
        if how == "graph":
            value = float(np.mean(tracer.graph_nodes)) if tracer.graph_nodes else None
        elif how == "overhead":
            value = 100.0 * (med(r.wall_s for r in traced) / med(r.wall_s for r in untraced) - 1.0)
        else:
            ids = table.ids(span, parent)
            if ids.size:
                if how == "median":
                    value = float(np.median(table.dur[ids])) * _SCALE[unit]
                elif how == "per_fit" and fits:
                    value = ids.size / fits
                elif how == "self_per_batch" and batches:
                    value = float(table.self_time[ids].sum()) / batches * _SCALE[unit]
                elif how == "per_setup":
                    sums: dict[int, float] = {}
                    for i in ids:
                        sums[table.parent[i]] = sums.get(table.parent[i], 0.0) + table.dur[i]
                    value = med(sums.values()) * _SCALE[unit]
        if value is None:
            absent.append(name)
            value = 0.0
        out[name] = {"value": value, "unit": unit}
    return out, absent, table


# -- entry point ----------------------------------------------------------------


def run_workload(args) -> int:
    modules = load_program()
    os.makedirs(OUT, exist_ok=True)
    label = f"{args.workload}-s{args.seed}-t{args.trace}"
    work = os.path.join(OUT, f"work-{label}-{os.getpid()}")
    os.makedirs(work)
    try:
        bench = Bench(args.workload, args.seed, work, modules)
        tracer = Tracer() if args.trace else None
        start = time.perf_counter()
        bench.tracer = tracer
        if tracer is not None:
            tracer.install()
        try:
            for _ in range(EXTRA_SETUPS):
                bench.setup()
        finally:
            if tracer is not None:
                tracer.uninstall()
        untraced: list[RoundResult] = []
        traced: list[RoundResult] = []
        while True:
            bench.tracer = None
            untraced.append(bench.round())
            if tracer is not None:
                bench.tracer = tracer
                tracer.round = len(traced)
                tracer.install()
                try:
                    traced.append(bench.round())
                finally:
                    tracer.uninstall()
                    bench.tracer = None
            if time.perf_counter() - start >= args.seconds:
                break
        bench.check_rounds(untraced + traced, args.seed)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    rounds = len(untraced) + len(traced)
    attempted = EXTRA_SETUPS + bench.ops_per_round() * rounds
    print(f"workload {args.workload}  seed {args.seed}  rounds {rounds}  epochs {EPOCHS}  "
          f"BLAS threads {_CORES}")
    for i, r in enumerate(untraced + traced):
        kind = "untraced" if i < len(untraced) else "traced"
        print(f"round {i} {kind}: setup {r.setup_s:.4f} s  fit {r.fit_s:.4f} s  "
              f"train {r.train_s:.4f} s  evaluate " + " ".join(f"{e:.4f}" for e in r.eval_s) + " s")
    if tracer is None:
        metrics = end_to_end_metrics(bench, untraced)
    else:
        metrics, absent, table = layer_metrics(tracer, traced, untraced)
        faults = table.nesting_faults()
        if faults:
            bench.problems.append(f"{faults} spans not nested inside their parent span")
        trace_path = os.path.join(OUT, f"trace-{label}.tsv")
        tracer.write(trace_path, label)
        print(f"spans {len(tracer.spans)} written to {os.path.relpath(trace_path, ROOT)}")
        print(f"{'span':<36}{'calls':>9}{'total_s':>11}{'self_s':>11}")
        for name, (calls, total, own) in table.self_times().items():
            print(f"{name:<36}{calls:>9}{total:>11.4f}{own:>11.4f}")
        if absent:
            print("absent layers (no spans recorded): " + ", ".join(absent))
    for problem in dict.fromkeys(bench.problems):
        print(f"CHECK FAILED: {problem}")
    for name, m in metrics.items():
        print(f"{name:<36}{m['value']:>16.6g} {m['unit']}")
    line = {
        "correct": not bench.problems,
        "attempted": attempted,
        "failed": 0,
        "metrics": metrics,
    }
    with open(os.path.join(OUT, f"result-{label}.json"), "w", encoding="utf-8") as fh:
        json.dump(line, fh, indent=2)
        fh.write("\n")
    print(json.dumps(line))
    return 0


def run_all(args) -> int:
    """Each workload of BENCHMARK.json in its own child process, one after another."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        workloads = [w["name"] for w in json.load(fh)["workloads"]]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {workload} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
