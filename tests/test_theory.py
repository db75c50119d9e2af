from itertools import accumulate
from math import comb

import numpy as np
import pytest
from scipy.stats import spearmanr

from bottlenet import theory
from bottlenet.errors import NotInvertibleError, ShapeMismatchError
from bottlenet.model import BottleneckLayer, ConvLayer, ModelSpec, build_model
from bottlenet.tensor import Rng, random_gaussian
from bottlenet.theory import (
    activation_pattern_stats,
    invertibility_condition,
    make_spiral,
    recover_input,
    relu_interior_identity_check,
    relu_preserved_fraction,
    relu_preserved_fraction_mc,
    spiral_experiment,
    spiral_roundtrip_error,
)


class TestInteriorIdentity:
    def test_positive_samples_pass(self):
        pts = np.abs(Rng(11).normal((100_000, 8), dtype=np.float64)) + 1e-9
        assert relu_interior_identity_check(pts)

    def test_negative_coordinate_fails(self):
        pts = np.array([[1.0, -0.5, 2.0]])
        assert not relu_interior_identity_check(pts)

    def test_boundary_zero_still_identity(self):
        # zero is kept by max(x, 0); only negatives are moved
        assert relu_interior_identity_check(np.array([[0.0, 1.0]]))


class TestInvertibilityCondition:
    def test_hand_constructed_positive_orthant(self):
        B = np.array([[1, 0], [0, 1], [-1, 0], [0, -1]], dtype=np.float64)
        x0 = np.array([1.0, 1.0])
        y0 = np.maximum(B @ x0, 0.0)
        assert y0.tolist() == [1.0, 1.0, 0.0, 0.0]
        assert invertibility_condition(B, y0)

    def test_hand_constructed_negative_orthant(self):
        B = np.array([[1, 0], [0, 1], [-1, 0], [0, -1]], dtype=np.float64)
        x0 = np.array([-1.0, -1.0])
        y0 = np.maximum(B @ x0, 0.0)
        assert y0.tolist() == [0.0, 0.0, 1.0, 1.0]
        assert invertibility_condition(B, y0)

    def test_too_few_active_coordinates(self):
        B = np.eye(3)
        y0 = np.array([1.0, 1.0, 0.0])
        assert not invertibility_condition(B, y0)

    def test_rank_deficient_active_rows(self):
        B = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        y0 = np.array([1.0, 2.0, 3.0])
        assert not invertibility_condition(B, y0)

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            invertibility_condition(np.eye(3), np.ones(4))


class TestRecovery:
    def test_gaussian_recovery_precision(self):
        rng = Rng(13)
        B = rng.normal((24, 4), dtype=np.float64)
        x0 = rng.normal((4,), dtype=np.float64)
        y0 = np.maximum(B @ x0, 0.0)
        x = recover_input(B, y0)
        assert np.linalg.norm(x - x0) / np.linalg.norm(x0) < 1e-6

    def test_roundtrip_consistency(self):
        rng = Rng(14)
        B = rng.normal((20, 3), dtype=np.float64)
        x0 = rng.normal((3,), dtype=np.float64)
        y0 = np.maximum(B @ x0, 0.0)
        x = recover_input(B, y0)
        assert float(np.max(np.abs(np.maximum(B @ x, 0.0) - y0))) < 1e-6

    def test_zero_output_is_not_invertible(self):
        B = Rng(15).normal((8, 2), dtype=np.float64)
        with pytest.raises(NotInvertibleError):
            recover_input(B, np.zeros(8))

    def test_success_rate_with_wide_matrices(self):
        # At m = 6n the counting condition holds on every draw and the
        # active rows are almost surely full rank, so recovery never misses.
        rng = Rng(16)
        hits = 0
        for _ in range(100):
            B = rng.normal((24, 4), dtype=np.float64)
            x0 = rng.normal((4,), dtype=np.float64)
            y0 = np.maximum(B @ x0, 0.0)
            assert invertibility_condition(B, y0)
            x = recover_input(B, y0)
            hits += np.linalg.norm(x - x0) / np.linalg.norm(x0) < 1e-6
        assert hits == 100

    def test_condition_implies_recovery_at_narrow_margin(self):
        # With m = 2n the counting condition fails on a sizeable fraction
        # of draws, but whenever it holds the recovery is exact.
        rng = Rng(18)
        held = 0
        for _ in range(100):
            B = rng.normal((8, 4), dtype=np.float64)
            x0 = rng.normal((4,), dtype=np.float64)
            y0 = np.maximum(B @ x0, 0.0)
            if invertibility_condition(B, y0):
                held += 1
                x = recover_input(B, y0)
                assert np.linalg.norm(x - x0) / np.linalg.norm(x0) < 1e-6
        assert 0 < held < 100


class TestPreservedFraction:
    @pytest.mark.parametrize(
        "n,m,expected",
        [(2, 4, 11 / 16), (3, 3, 1 / 8), (1, 1, 1 / 2), (2, 2, 1 / 4)],
    )
    def test_exact_binomial(self, n, m, expected):
        assert relu_preserved_fraction(n, m) == pytest.approx(expected, abs=0)

    def test_wide_expansion_bound(self):
        # preserved >= 1 - 2^{-m/2} once m is comfortably above n
        assert relu_preserved_fraction(4, 24) >= 1 - 2.0**-12

    def test_past_float_range_of_two_to_the_m(self):
        # 2.0**1100 overflows; the exact integer divisor does not.
        assert relu_preserved_fraction(1, 1100) == 1.0

    def test_same_bytes_as_the_direct_sum(self):
        # Past the midpoint the complement sum_{j<n} C(m, j) is shorter; the
        # numerator is the same integer, so the float is the same.
        for m in range(1, 201):
            direct = list(accumulate(comb(m, k) for k in range(m)))
            for n in range(1, m + 1):
                want = direct[m - n] / 2**m
                assert relu_preserved_fraction(n, m).hex() == want.hex(), (n, m)

    def test_mc_within_four_standard_errors(self):
        for n, m, seed in ((2, 4, 3), (3, 3, 4), (2, 6, 5)):
            p = relu_preserved_fraction(n, m)
            trials = 20_000
            se = np.sqrt(p * (1 - p) / trials)
            est = relu_preserved_fraction_mc(n, m, trials, seed)
            assert abs(est - p) <= 4 * se

    def test_mc_deterministic_per_seed(self):
        a = relu_preserved_fraction_mc(2, 4, 5000, 9)
        b = relu_preserved_fraction_mc(2, 4, 5000, 9)
        assert a == b

    def test_mc_batches_capped_by_matrix_values(self, monkeypatch):
        # Each batch of matrices holds at most MC_BATCH_VALUES values, and
        # at least one trial; the default cap leaves m*n <= 2048 at MC_CHUNK.
        assert theory.MC_BATCH_VALUES // 2048 == theory.MC_CHUNK
        sizes, normal = [], Rng.normal

        def recorded(self, shape, **kw):
            sizes.append(shape)
            return normal(self, shape, **kw)

        monkeypatch.setattr(Rng, "normal", recorded)
        monkeypatch.setattr(theory, "MC_BATCH_VALUES", 64)
        relu_preserved_fraction_mc(2, 8, 100, 1)
        assert sizes == [(4, 8, 2)] * 25
        sizes.clear()
        relu_preserved_fraction_mc(9, 9, 3, 1)
        assert sizes == [(1, 9, 9)] * 3

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            relu_preserved_fraction(4, 3)
        with pytest.raises(ValueError):
            relu_preserved_fraction_mc(2, 4, 0, 1)

    def test_row_negation_flips_one_sign(self):
        rng = Rng(17)
        B = rng.normal((6, 3), dtype=np.float64)
        x = rng.normal((3,), dtype=np.float64)
        signs = np.sign(B @ x)
        for i in range(6):
            D = np.eye(6)
            D[i, i] = -1.0
            flipped = np.sign((D @ B) @ x)
            expect = signs.copy()
            expect[i] = -expect[i]
            assert np.array_equal(flipped, expect)


class TestSpiral:
    def test_shape_and_radius_law(self):
        s = make_spiral(points=500)
        assert s.shape == (500, 2)
        r = np.linalg.norm(s, axis=1)
        assert r[0] == 0.0 and r[-1] == pytest.approx(1.0)
        assert np.all(np.diff(r) > 0)

    def test_low_dims_lose_high_dims_keep(self):
        errs = spiral_experiment([2, 3, 15, 30], seed=1)
        assert errs[2] >= 10 * errs[30]
        assert errs[3] >= 10 * errs[30]
        assert errs[15] < errs[2] / 10
        assert errs[30] < 1e-10

    def test_rank_deficient_embedding_is_lossy(self):
        T = np.array([[1.0, 2.0], [1.0, 2.0]])  # n=2, equal rows
        err = spiral_roundtrip_error(make_spiral(), T)
        assert err > 1e-2

    def test_errors_trend_down_in_dimension(self):
        dims = [2, 3, 5, 8, 15, 30]
        means = np.zeros(len(dims))
        for seed in range(20):
            errs = spiral_experiment(dims, seed=seed)
            means += np.array([errs[n] for n in dims])
        rho = spearmanr(dims, means / 20).statistic
        assert rho < 0

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            spiral_experiment([1], seed=0)


@pytest.fixture(scope="module")
def small_stats():
    model = build_model(
        ModelSpec(resolution=96, width_multiplier=0.35, classes=10)
    ).randomize(Rng(5))
    batch = random_gaussian((8, 96, 96, 3), Rng(6))
    return model, activation_pattern_stats(model, batch)


class TestActivationStats:
    def test_counts_ordered(self, small_stats):
        _, stats = small_stats
        for layer in stats.layers:
            assert 0 <= layer.min_count <= layer.mean_count <= layer.max_count
            assert layer.max_count <= layer.channels

    def test_threshold_is_one_sixth_for_expansion6(self, small_stats):
        _, stats = small_stats
        six = [l for l in stats.layers if "block02" in l.name]
        assert six, "expected rectified taps for an expansion-6 block"
        for layer in six:
            assert layer.threshold == layer.channels / 6

    @pytest.mark.parametrize("alpha", [0.35, 1.0])
    def test_every_threshold_is_the_emitting_layers_input_width(self, alpha):
        model = build_model(
            ModelSpec(resolution=96, width_multiplier=alpha, classes=10)
        ).randomize(Rng(5))
        stats = activation_pattern_stats(model, random_gaussian((1, 96, 96, 3), Rng(6)))
        expected = []
        for layer in model.layers:
            if isinstance(layer, ConvLayer) and layer.activation == "relu6":
                expected.append((layer.name, layer.params.in_channels))
            elif isinstance(layer, BottleneckLayer):
                if layer.params.expand is not None:
                    expected.append((f"{layer.name}.expand", layer.params.in_channels))
                expected.append((f"{layer.name}.depthwise", layer.params.in_channels))
        assert expected[0][0] == "stem" and expected[-1][0] == "head"
        assert [(l.name, l.threshold) for l in stats.layers] == expected

    def test_random_init_fractions_near_half(self, small_stats):
        _, stats = small_stats
        for layer in stats.layers:
            assert 0.35 <= layer.mean_fraction <= 0.65, layer.name

    def test_dead_model_detected(self):
        model = build_model(
            ModelSpec(resolution=96, width_multiplier=0.35, classes=10)
        )
        for name, arr in model.parameters():
            arr[...] = -1.0 if name.endswith(".bias") else 0.0
        batch = random_gaussian((4, 96, 96, 3), Rng(8))
        stats = activation_pattern_stats(model, batch)
        for layer in stats.layers:
            assert layer.mean_fraction == 0.0

    def test_per_map_aggregation_flag(self):
        model = build_model(
            ModelSpec(resolution=96, width_multiplier=0.35, classes=10)
        ).randomize(Rng(9))
        batch = random_gaussian((4, 96, 96, 3), Rng(10))
        per_map = activation_pattern_stats(model, batch, per_location=False)
        assert not per_map.per_location
        # a channel that is positive anywhere counts, so fractions dominate
        # the per-location ones
        per_loc = activation_pattern_stats(model, batch, per_location=True)
        for a, b in zip(per_map.layers, per_loc.layers):
            assert a.mean_fraction >= b.mean_fraction
