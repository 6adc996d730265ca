"""Hyperplane projection and dissimilarity modes."""

import numpy as np
import pytest

from proxyrec.autodiff import Tensor
from proxyrec.data import PredictionInstance
from proxyrec.encoder import encode_prefixes
from proxyrec.errors import ConfigError, DegenerateProxyError, MetricError
from proxyrec.scoring import (
    SCORING_MODES,
    catalog_scores,
    catalog_table,
    distance,
    project,
    query,
    session_state,
)
from proxyrec.selector import assemble_normal, selection_logits
from proxyrec.trainer import TrainConfig, init_model


def unit(v):
    return v / np.linalg.norm(v)


def rows(x):
    return None if x is None else Tensor(np.atleast_2d(x))


def project_to_hyperplane(x, v):
    """x (d,) or a stack (n, d) projected onto the hyperplane of one normal."""
    out = project(rows(x), rows(v), "full").data
    return out if np.ndim(x) > 1 else out[0]


def hyperplane_normal(pi, normals, strict=True):
    return assemble_normal(Tensor(pi[None]), Tensor(normals), strict).data[0]


def dissimilarity(proxy, short, item_vec, normal, mode="full"):
    """One session state against one item (d,) or a stack (n, d)."""
    v = rows(normal)
    q = query(rows(proxy), v, rows(short), mode)
    out = distance(q, project(rows(item_vec), v, mode), mode).data
    return out if np.ndim(item_vec) > 1 else float(out[0])


def score_catalog(proxy, short, normal, table, mask=None, mode="full"):
    """One session's catalog row through the folded one-GEMM scorer."""
    q = query(rows(proxy), rows(normal), rows(short), mode).data
    v = None if normal is None else np.atleast_2d(normal)
    return catalog_scores(q, v, catalog_table(table), mode, None if mask is None else [mask])[0]


class TestProjection:
    def test_axis_oracle(self):
        out = project_to_hyperplane(np.array([3.0, 4.0]), np.array([1.0, 0.0]))
        np.testing.assert_array_equal(out, [0.0, 4.0])

    def test_stacked_rows(self):
        v = np.array([0.0, 1.0, 0.0])
        x = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        np.testing.assert_allclose(
            project_to_hyperplane(x, v), [[1.0, 0.0, 3.0], [4.0, 0.0, 6.0]], atol=1e-15
        )

    def test_orthogonal_after_projection(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            d = int(rng.integers(2, 16))
            v = unit(rng.normal(size=d))
            x = rng.normal(size=d) * 10
            assert abs(v @ project_to_hyperplane(x, v)) < 1e-10

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        for _ in range(500):
            d = int(rng.integers(2, 16))
            v = unit(rng.normal(size=d))
            x = rng.normal(size=d)
            once = project_to_hyperplane(x, v)
            twice = project_to_hyperplane(once, v)
            np.testing.assert_allclose(twice, once, atol=1e-12)

    def test_normal_component_is_removed(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            d = int(rng.integers(2, 16))
            v = unit(rng.normal(size=d))
            x = rng.normal(size=d)
            c = float(rng.normal() * 5)
            a = project_to_hyperplane(x, v)
            b = project_to_hyperplane(x + c * v, v)
            np.testing.assert_allclose(a, b, atol=1e-9)


class TestHyperplaneNormal:
    def test_unit_norm(self):
        rng = np.random.default_rng(4)
        normals = rng.normal(size=(5, 7))
        pi = rng.dirichlet(np.ones(5))
        v = hyperplane_normal(pi, normals)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)

    def test_one_hot_recovers_direction(self):
        normals = np.array([[3.0, 0.0], [0.0, 2.0]])
        v = hyperplane_normal(np.array([0.0, 1.0]), normals)
        np.testing.assert_allclose(v, [0.0, 1.0], atol=1e-15)

    def test_cancelling_mixture_raises(self):
        normals = np.array([[1.0, 0.0], [-1.0, 0.0]])
        with pytest.raises(DegenerateProxyError):
            hyperplane_normal(np.array([0.5, 0.5]), normals)

    def test_training_path_stays_finite(self):
        normals = np.array([[1.0, 0.0], [-1.0, 0.0]])
        v = hyperplane_normal(np.array([0.5, 0.5]), normals, strict=False)
        assert np.isfinite(v).all()


class TestDissimilarity:
    # one fixed geometry checked against every mode's hand value:
    # v = e_x, proxy = (0,1), short = (2,3), item = (5,5)
    V = np.array([1.0, 0.0])
    P = np.array([0.0, 1.0])
    S = np.array([2.0, 3.0])
    I = np.array([5.0, 5.0])

    def test_full_oracle(self):
        # q = p + s_perp = (0,4); item_perp = (0,5); dist = 1
        assert dissimilarity(self.P, self.S, self.I, self.V, "full") == pytest.approx(1.0)

    def test_proxy_only_oracle(self):
        assert dissimilarity(self.P, None, self.I, self.V, "proxy_only") == pytest.approx(16.0)

    def test_short_only_oracle(self):
        assert dissimilarity(None, self.S, self.I, None, "short_only") == pytest.approx(13.0)

    def test_no_projection_oracle(self):
        assert dissimilarity(self.P, self.S, self.I, None, "no_projection") == pytest.approx(10.0)

    def test_dot_product_oracle(self):
        assert dissimilarity(self.P, self.S, self.I, self.V, "dot_product") == pytest.approx(-20.0)

    def test_stacked_items_match_scalar_calls(self):
        rng = np.random.default_rng(5)
        v = unit(rng.normal(size=4))
        p, s = rng.normal(size=4), rng.normal(size=4)
        items = rng.normal(size=(6, 4))
        for mode in SCORING_MODES:
            batch = dissimilarity(p, s, items, v, mode)
            singles = [dissimilarity(p, s, it, v, mode) for it in items]
            np.testing.assert_allclose(batch, singles, atol=1e-12)
            expanded = score_catalog(p, s, v, np.vstack([np.zeros(4), items]), mode=mode)
            np.testing.assert_allclose(expanded[1:], singles, atol=1e-12)

    def test_full_score_ignores_normal_component_of_item(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            d = int(rng.integers(2, 10))
            v = unit(rng.normal(size=d))
            p, s, item = rng.normal(size=d), rng.normal(size=d), rng.normal(size=d)
            c = float(rng.normal() * 3)
            a = dissimilarity(p, s, item, v, "full")
            b = dissimilarity(p, s, item + c * v, v, "full")
            assert a == pytest.approx(b, abs=1e-9)

    def test_smaller_means_closer(self):
        v = np.array([1.0, 0.0, 0.0])
        p = np.array([0.0, 1.0, 0.0])
        s = np.zeros(3)
        near = np.array([0.0, 1.1, 0.0])
        far = np.array([0.0, 9.0, 0.0])
        d_near = dissimilarity(p, s, near, v, "full")
        d_far = dissimilarity(p, s, far, v, "full")
        assert d_near < d_far

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError):
            dissimilarity(self.P, self.S, self.I, self.V, "cosine")


class TestScoreCatalog:
    def _setup(self):
        rng = np.random.default_rng(7)
        table = rng.normal(size=(8, 3))
        table[0] = 0.0
        v = unit(rng.normal(size=3))
        p, s = rng.normal(size=3), rng.normal(size=3)
        return table, p, s, v

    def test_padding_row_scores_inf(self):
        table, p, s, v = self._setup()
        scores = score_catalog(p, s, v, table)
        assert scores[0] == np.inf
        assert np.isfinite(scores[1:]).all()

    def test_matches_per_item_calls(self):
        table, p, s, v = self._setup()
        scores = score_catalog(p, s, v, table)
        for item_id in range(1, 8):
            expect = dissimilarity(p, s, table[item_id], v, "full")
            assert scores[item_id] == pytest.approx(expect, abs=1e-12)

    def test_mask_sets_inf(self):
        table, p, s, v = self._setup()
        scores = score_catalog(p, s, v, table, mask=(2, 5))
        assert scores[2] == np.inf
        assert scores[5] == np.inf
        assert np.isfinite(scores[3])

    def test_mask_out_of_range_raises(self):
        table, p, s, v = self._setup()
        with pytest.raises(MetricError):
            score_catalog(p, s, v, table, mask=(99,))

    def test_empty_mask_is_noop(self):
        table, p, s, v = self._setup()
        a = score_catalog(p, s, v, table, mask=())
        b = score_catalog(p, s, v, table)
        np.testing.assert_array_equal(a, b)


class TestPaddedBatch:
    @pytest.mark.parametrize("strict", [True, False], ids=["strict", "non-strict"])
    def test_mixed_lengths_match_each_instance_alone(self, strict):
        # one padded (B, L) block must give every instance what it gets alone:
        # padding changes no logit, no attention weight, no short-term vector
        cfg = TrainConfig(embed_dim=6, proxy_count=5, max_len=9, seed=4)
        params = init_model(30, cfg, user_tags=["u1"])
        rng = np.random.default_rng(8)
        params.user_bias[1] = rng.normal(size=cfg.proxy_count)
        instances = []
        for n, cut in ((1, 1), (9, 9), (4, 3), (1, 1), (6, 5), (9, 8), (2, 1)):
            parent = tuple(int(i) for i in rng.integers(1, 31, size=n))
            instances.append(PredictionInstance(
                prefix=parent[:cut], target=parent[-1], parent_items=parent,
                user_tag="u1", known_user=bool(cut % 2),
            ))
        leaves = {name: Tensor(arr) for name, arr in params.named().items()}
        sessions = [i.prefix if strict else i.parent_items for i in instances]
        prefixes = [i.prefix for i in instances]
        assert {1, cfg.max_len} <= {len(s) for s in sessions + prefixes}

        bias_rows = params.bias_rows(instances)
        batch = session_state(instances, bias_rows, leaves, 0.5, "full", strict)
        logits = selection_logits(sessions, leaves).data
        short = encode_prefixes(prefixes, leaves).data
        for b, inst in enumerate(instances):
            alone = session_state([inst], bias_rows[b : b + 1], leaves, 0.5, "full", strict)
            for got, want in zip(batch, alone):
                np.testing.assert_allclose(got.data[b], want.data[0], rtol=0, atol=1e-12)
            np.testing.assert_allclose(
                logits[b], selection_logits([sessions[b]], leaves).data[0], rtol=0, atol=1e-12
            )
            np.testing.assert_allclose(
                short[b], encode_prefixes([prefixes[b]], leaves).data[0], rtol=0, atol=1e-12
            )
