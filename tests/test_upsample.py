import tracemalloc

import numpy as np
import pytest

from tabseq.errors import ConfigError, TooFewSamples
from tabseq.upsample import (
    SmoteConfig,
    duplicate_upsample,
    k_nearest_neighbors,
    smote_upsample,
)


def random_windows(n, shape=(4, 3), seed=0):
    return np.random.default_rng(seed).standard_normal((n,) + shape)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            SmoteConfig(k=0)
        with pytest.raises(ConfigError):
            SmoteConfig(target_ratio=0.0)
        with pytest.raises(ConfigError):
            SmoteConfig(target_ratio=1.5)


class TestKNearestNeighbors:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(1)
        flat = rng.standard_normal((30, 8))
        nn = k_nearest_neighbors(flat, 4)
        for i in range(30):
            d = np.linalg.norm(flat - flat[i], axis=1)
            d[i] = np.inf
            expect = set(np.sort(d)[:4].round(12))
            got = set(np.linalg.norm(flat[nn[i]] - flat[i], axis=1).round(12))
            assert got == expect

    def test_never_returns_self(self):
        flat = np.random.default_rng(2).standard_normal((10, 3))
        nn = k_nearest_neighbors(flat, 3)
        for i in range(10):
            assert i not in nn[i]

    @staticmethod
    def full_matrix(flat, k):
        """All n² distances at once, the stable sort breaking ties by row order."""
        d2 = np.sum((flat[:, None, :] - flat[None, :, :]) ** 2, axis=-1)
        np.fill_diagonal(d2, np.inf)
        return np.argsort(d2, axis=1, kind="stable")[:, :k]

    @pytest.mark.parametrize("n, k, f", [(1, 3, 7), (6, 5, 7), (127, 4, 7), (128, 5, 7),
                                         (257, 5, 7), (300, 9, 7), (300, 9, 60)],
                             ids=["1-3", "6-5", "127-4", "128-5", "257-5", "300-9", "300-9-f60"])
    def test_bit_equal_to_full_matrix(self, n, k, f):
        rng = np.random.default_rng(n)
        flat = rng.standard_normal((n, f))
        flat[n // 2:] = flat[: n - n // 2]  # exact ties, across blocks at f 60
        flat[::5] = np.round(flat[::5])
        got = k_nearest_neighbors(flat, k)
        assert got.dtype == np.intp
        assert np.array_equal(got, self.full_matrix(flat, k))

    def test_memory_stays_below_the_full_matrix(self):
        # the [n, n, F] differences alone take 1500² · 4 · 8 bytes, about 69 MiB
        flat = np.random.default_rng(3).standard_normal((1500, 4))
        tracemalloc.start()
        try:
            k_nearest_neighbors(flat, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_memory_bounded_for_wide_rows(self):
        # 10 rows x 6 fields: one fixed 128-row block of [128, n, F] float64
        # differences alone would take 98 MB
        flat = np.random.default_rng(4).standard_normal((1600, 60))
        tracemalloc.start()
        try:
            k_nearest_neighbors(flat, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


class TestSmote:
    def test_interpolation_formula_endpoints(self):
        # two identical clusters force known neighbor geometry
        pts = np.array([[0.0, 0.0], [1.0, 1.0], [0.1, 0.1], [0.9, 0.9]])
        out = smote_upsample(pts.reshape(4, 1, 2), 40, SmoteConfig(k=1, seed=0))
        flat = pts
        nn = k_nearest_neighbors(flat, 1)
        for window in out:
            s = window.reshape(-1)
            on_segment = False
            for i in range(4):
                x, x_nn = flat[i], flat[nn[i, 0]]
                d = x_nn - x
                denom = float(d @ d)
                u = 0.0 if denom == 0 else float((s - x) @ d) / denom
                if -1e-12 <= u <= 1 + 1e-12 and np.allclose(s, x + u * d, atol=1e-12):
                    on_segment = True
            assert on_segment

    def test_synthetic_on_true_neighbor_segments(self):
        minority = random_windows(25, seed=3)
        out = smote_upsample(minority, 100, SmoteConfig(k=5, seed=3))
        flat = minority.reshape(len(minority), -1)
        nn = k_nearest_neighbors(flat, 5)
        for window in out:
            s = window.reshape(-1)
            found = False
            for i in range(len(flat)):
                for j in nn[i]:
                    d = flat[j] - flat[i]
                    u = float((s - flat[i]) @ d) / float(d @ d)
                    if -1e-9 <= u <= 1 + 1e-9 and np.allclose(s, flat[i] + u * d, atol=1e-9):
                        found = True
            assert found
            # coordinate-wise the sample stays inside the endpoint box
            lo = flat.min(axis=0) - 1e-12
            hi = flat.max(axis=0) + 1e-12
            assert ((s >= lo) & (s <= hi)).all()

    def test_target_ratio_balances_counts(self):
        minority = random_windows(20, seed=4)
        out = smote_upsample(minority, 100, SmoteConfig(k=5, target_ratio=1.0, seed=4))
        assert len(minority) + len(out) == 100

    def test_partial_target_ratio(self):
        minority = random_windows(20, seed=4)
        out = smote_upsample(minority, 100, SmoteConfig(k=5, target_ratio=0.5, seed=4))
        assert len(minority) + len(out) == 50

    def test_already_balanced_returns_nothing(self):
        minority = random_windows(50, seed=5)
        assert smote_upsample(minority, 40, SmoteConfig(k=5, seed=5)).shape == (0, 4, 3)

    def test_too_few_samples(self):
        with pytest.raises(TooFewSamples):
            smote_upsample(random_windows(5, seed=6), 100, SmoteConfig(k=5))

    def test_deterministic(self):
        minority = random_windows(15, seed=8)
        a = smote_upsample(minority, 60, SmoteConfig(k=4, seed=8))
        b = smote_upsample(minority, 60, SmoteConfig(k=4, seed=8))
        assert np.array_equal(a, b)

    def test_matches_recorded_output(self):
        # synthetic rows of this input, recorded from the per-window
        # implementation that took and returned lists of FeatureMatrix
        minority = np.random.default_rng(11).standard_normal((8, 2, 2))
        recorded = np.array([
            [[-1.049775110970279, -0.6602266212113843],
             [0.08903119518902558, -0.5830133942736028]],
            [[-1.6765803465854965, -0.32941694019768514],
             [0.3099521124312432, -0.6462528747269831]],
            [[-0.6268028318794803, -0.3721141155700328],
             [0.6598904010341583, -0.10480953238723614]],
            [[-0.5396737215075705, -0.4132551522659476],
             [0.6360001429668567, -0.09189381992881906]],
        ])
        assert np.array_equal(smote_upsample(minority, 12, SmoteConfig(k=3, seed=5)), recorded)


class TestDuplicate:
    def test_counts(self):
        out = duplicate_upsample(list(range(10)), 50, 1.0, seed=0)
        assert len(out) == 40
        assert set(out) <= set(range(10))

    def test_deterministic(self):
        assert duplicate_upsample([1, 2, 3], 30, 1.0, 5) == \
            duplicate_upsample([1, 2, 3], 30, 1.0, 5)

    def test_empty_minority_rejected(self):
        with pytest.raises(TooFewSamples):
            duplicate_upsample([], 10, 1.0, 0)

    def test_bad_ratio_rejected(self):
        with pytest.raises(ConfigError):
            duplicate_upsample([1], 10, 0.0, 0)
