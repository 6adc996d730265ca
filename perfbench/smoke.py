"""Smoke test of the benchmark itself; makes no timing assertions.

    python3 perfbench/smoke.py

Runs the `tiny` shape end to end, untraced and traced, and checks that the
printed metric names and units are exactly those declared in BENCHMARK.json
and that every correctness check passed. Then checks that the ranking oracle
accepts evaluate's metrics and flags a deliberately wrong rank. Exits 0 when
everything holds.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_tiny(trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", "tiny",
           "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_result(result: dict, declared: list[dict]) -> list[str]:
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append("a correctness check failed")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1):
        problems.append(f"attempted = {result.get('attempted')!r}")
    if result.get("failed") != 0:
        problems.append(f"failed = {result.get('failed')!r}")
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m.get("unit") for name, m in result.get("metrics", {}).items()}
    if got != want:
        problems.append(f"metrics {got} differ from BENCHMARK.json {want}")
    for name, m in result.get("metrics", {}).items():
        if not (isinstance(m.get("value"), (int, float)) and math.isfinite(m["value"])):
            problems.append(f"{name} value {m.get('value')!r} is not a finite number")
    return problems


def check_oracle() -> list[str]:
    """The oracle agrees with evaluate on a tiny model and flags a wrong rank."""
    sys.path.insert(0, HERE)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import checks
    from proxyrec.data import chronological_split, expand_all
    from proxyrec.evaluator import evaluate
    from proxyrec.synth import planted_corpus
    from proxyrec.trainer import TrainConfig, init_model, pick_known_users

    split = chronological_split(planted_corpus(n_users=6, n_items=120, sessions_per_user=10))
    cfg = TrainConfig(embed_dim=16, proxy_count=6, known_user_ratio=0.5, min_sessions_per_user=1)
    known = pick_known_users(split, cfg)
    params = init_model(split.item_count, cfg, sorted(known))
    sample = expand_all(split.test, cfg.task, set(known))[:20]
    tau, ks = 0.5, (5, 10, 20)
    problems = []
    if not any(i.known_user for i in sample):
        problems.append("the sample has no known user, so the bias row goes unchecked")
    report = evaluate(params, sample, cfg.task, ks, tau)
    agree = checks.check_ranking(params, sample, cfg.task, tau, report, ks)
    if agree:
        problems.append(f"oracle disagrees with evaluate: {agree}")

    intervals = checks.rank_intervals(params, sample, tau)
    exact = [j for j, (lo, hi) in enumerate(intervals) if lo == hi]
    if not exact:
        return problems + ["no instance has an exact oracle rank"]
    ranks = [lo for lo, _ in intervals]
    j = exact[0]
    ranks[j] = 1 if ranks[j] > 1 else 2  # moves recall and MRR at every cutoff
    wrong = SimpleNamespace(
        recall={k: sum(r <= k for r in ranks) / len(ranks) for k in ks},
        mrr={k: sum(1.0 / r for r in ranks if r <= k) / len(ranks) for k in ks},
    )
    if not checks.check_ranking(params, sample, cfg.task, tau, wrong, ks):
        problems.append("oracle accepted a deliberately wrong rank")
    return problems


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        problems += [f"trace {trace}: {p}" for p in check_result(run_tiny(trace), declared)]
    problems += check_oracle()
    for p in problems:
        print(f"FAIL: {p}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
