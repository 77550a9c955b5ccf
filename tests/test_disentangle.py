"""Sparsity measure and assignment solver (brute-force verified)."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cosep import disentangle as dz

from oracles import brute_force_assignment


def table(values):
    values = np.asarray(values, dtype=np.float64)
    rows = values / values.sum(axis=1, keepdims=True)
    return dz.ActivationTable(rows, [f"c{i}" for i in range(rows.shape[0])])


class TestSparsity:
    def test_uniform_is_zero(self):
        for k in (2, 4, 32):
            assert abs(dz.sparsity(np.full(k, 0.37))) <= 1e-9

    def test_one_hot_is_one(self):
        for k in (2, 4, 32):
            x = np.zeros(k)
            x[k // 2] = 2.5
            assert abs(dz.sparsity(x) - 1.0) <= 1e-9

    def test_reference_vector(self):
        assert abs(dz.sparsity([3.0, 1.0, 0.0, 0.0]) - 0.8) <= 1e-12

    def test_scale_invariance(self):
        rng = np.random.default_rng(11)
        x = rng.random(16) + 0.01
        base = dz.sparsity(x)
        for alpha in (1e-3, 0.5, 7.0, 1e4):
            assert abs(dz.sparsity(alpha * x) - base) <= 1e-9

    def test_monotone_along_uniform_to_onehot(self):
        k = 12
        uniform = np.full(k, 1.0 / k)
        onehot = np.zeros(k)
        onehot[3] = 1.0
        values = [dz.sparsity((1 - t) * uniform + t * onehot) for t in np.linspace(0.05, 0.95, 19)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_invalid_inputs(self):
        with pytest.raises(ValueError, match="zero"):
            dz.sparsity(np.zeros(4))
        with pytest.raises(ValueError, match="non-negative"):
            dz.sparsity([1.0, -0.5, 0.2])
        with pytest.raises(ValueError, match="length"):
            dz.sparsity([1.0])


class TestActivationTable:
    def test_row_sum_validation(self):
        with pytest.raises(ValueError, match="sum to 1"):
            dz.ActivationTable(np.array([[0.5, 0.2]]), ["a"])

    def test_more_categories_than_channels_rejected(self):
        vals = np.full((3, 2), 0.5)
        with pytest.raises(ValueError, match="channels"):
            dz.ActivationTable(vals, ["a", "b", "c"])


class TestAssign:
    def test_diagonal_dominant_table(self):
        t = table([[0.8, 0.1, 0.1], [0.2, 0.7, 0.1], [0.1, 0.2, 0.7]])
        res = dz.assign(t)
        assert res.category_to_channel == [0, 1, 2]
        assert abs(res.total_profit - t.values[[0, 1, 2], [0, 1, 2]].sum()) <= 1e-9

    def test_rectangular_table(self):
        t = table([[0.1, 0.1, 0.8], [0.6, 0.2, 0.2]])
        res = dz.assign(t)
        assert res.category_to_channel == [2, 0]
        expected = t.values[0, 2] + t.values[1, 0]
        assert abs(res.total_profit - expected) <= 1e-9

    def test_uniform_table_lexicographic(self):
        t = table(np.ones((3, 5)))
        res = dz.assign(t)
        assert res.category_to_channel == [0, 1, 2]

    def test_nan_rejected(self):
        vals = np.full((2, 3), 1 / 3)
        t = dz.ActivationTable(vals.copy(), ["a", "b"])
        t.values[0, 1] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            dz.assign(t)

    def test_matches_brute_force_on_random_tables(self):
        rng = np.random.default_rng(2024)
        for trial in range(1000):
            k = int(rng.integers(2, 8))
            c = int(rng.integers(2, k + 1))
            profit = rng.random((c, k))
            rows = profit / profit.sum(axis=1, keepdims=True)
            res = dz.assign(dz.ActivationTable(rows, [str(i) for i in range(c)]))
            _, best = brute_force_assignment(rows)
            mine = sum(rows[i, res.category_to_channel[i]] for i in range(c))
            assert mine == pytest.approx(best, abs=1e-12), f"trial {trial}"
            assert len(set(res.category_to_channel)) == c  # injective

    @staticmethod
    @st.composite
    def tables(draw):
        """Raw C x K activations; integer entries in 0..3 tie often."""
        c = draw(st.integers(1, 5))
        k = draw(st.integers(c, 6))
        entries = draw(st.sampled_from([st.integers(0, 3), st.floats(0.0, 1.0)]))
        return np.array(draw(st.lists(st.lists(entries, min_size=k, max_size=k),
                                      min_size=c, max_size=c)), dtype=np.float64)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(tables())
    @example(np.ones((3, 4)))
    @example(np.array([[2.0, 2.0, 1.0], [2.0, 1.0, 2.0], [1.0, 2.0, 2.0]]))
    @example(np.array([[1.0, 1.0, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0]]))
    def test_matches_brute_force_on_drawn_tables(self, raw):
        raw[raw.sum(axis=1) == 0] = 1.0
        rows = raw / raw.sum(axis=1, keepdims=True)
        c, k = rows.shape
        res = dz.assign(dz.ActivationTable(rows, [str(i) for i in range(c)]))
        _, best = brute_force_assignment(rows)
        assert res.total_profit == pytest.approx(best, abs=1e-12)
        assert len(set(res.category_to_channel)) == c  # injective
        assert all(0 <= ch < k for ch in res.category_to_channel)
        assert res.per_category_profit == [rows[i, ch] for i, ch in enumerate(res.category_to_channel)]

    def test_profit_invariant_under_column_permutation(self):
        rng = np.random.default_rng(5)
        profit = rng.random((4, 6))
        rows = profit / profit.sum(axis=1, keepdims=True)
        base = dz.assign(dz.ActivationTable(rows, list("abcd")))
        perm = rng.permutation(6)
        permuted = dz.assign(dz.ActivationTable(rows[:, perm], list("abcd")))
        assert permuted.total_profit == pytest.approx(base.total_profit, abs=1e-12)

    def test_json_roundtrip(self, tmp_path):
        t = table([[0.8, 0.1, 0.1], [0.2, 0.7, 0.1]])
        res = dz.assign(t)
        path = tmp_path / "assignment.json"
        res.save(path, extra={"config_hash": "deadbeef"})
        loaded, doc = dz.Assignment.load(path)
        assert loaded.category_to_channel == res.category_to_channel
        assert doc["config_hash"] == "deadbeef"
        assert loaded.total_profit == pytest.approx(res.total_profit)

    def test_load_pairs_each_name_with_its_channel(self, tmp_path):
        """``save`` sorts the names; ``load`` restores the category order."""
        path, again = tmp_path / "assignment.json", tmp_path / "again.json"
        for channels in itertools.permutations(range(4), 3):
            asg = dz.Assignment(list(channels), [0.5, 0.25, 0.125], 0.875, ["circle", "square", "bars"])
            asg.save(path, extra={"config_hash": "cafe"})
            loaded, _ = dz.Assignment.load(path)
            assert loaded == asg
            loaded.save(again, extra={"config_hash": "cafe"})
            assert again.read_bytes() == path.read_bytes()
