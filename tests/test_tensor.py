import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bottlenet.errors import InvalidShapeError, ShapeMismatchError, TensorFormatError
from bottlenet.tensor import (
    Rng,
    flat_index,
    load_tensor,
    max_abs_rel_diff,
    new_tensor,
    random_gaussian,
    save_tensor,
)

from conftest import corrupt, corruptions


class TestNewTensor:
    def test_zero_fill(self):
        x = new_tensor((1, 2, 2, 3), 0.0)
        assert x.shape == (1, 2, 2, 3)
        assert x.dtype == np.float32
        assert np.count_nonzero(x) == 0 and x.size == 12

    def test_singleton(self):
        assert new_tensor((1, 1, 1, 1), 6.0).reshape(-1).tolist() == [6.0]

    def test_image_sized_ones(self):
        x = new_tensor((1, 224, 224, 3), 1.0)
        assert x.size == 150528
        assert float(x.sum()) == 150528.0

    @pytest.mark.parametrize("shape", [(0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 1, 0)])
    def test_zero_dimension_rejected(self, shape):
        with pytest.raises(InvalidShapeError):
            new_tensor(shape)

    def test_wrong_rank_rejected(self):
        with pytest.raises(InvalidShapeError):
            new_tensor((2, 2, 2))


class TestRandomGaussian:
    def test_sample_mean_close(self):
        x = random_gaussian((1, 1, 1, 10000), Rng(7))
        assert abs(float(x.mean())) < 5.0 / np.sqrt(10000)

    def test_zero_stddev_degenerates_to_mean(self):
        x = random_gaussian((2, 3, 3, 4), Rng(1), mean=2.5, stddev=0.0)
        assert np.all(x == np.float32(2.5))

    def test_same_seed_bit_identical(self):
        a = random_gaussian((2, 5, 5, 7), Rng(42))
        b = random_gaussian((2, 5, 5, 7), Rng(42))
        assert a.tobytes() == b.tobytes()

    def test_negative_stddev_rejected(self):
        with pytest.raises(ValueError):
            random_gaussian((1, 1, 1, 1), Rng(0), stddev=-1.0)


class TestRng:
    def test_equal_seeds_equal_streams(self):
        a = Rng(123).normal((1_000_000,), dtype=np.float64)
        b = Rng(123).normal((1_000_000,), dtype=np.float64)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(Rng(1).normal((100,)), Rng(2).normal((100,)))

    def test_derive_is_deterministic_offset(self):
        a = Rng(10).derive(5).normal((8,))
        b = Rng(15).normal((8,))
        assert np.array_equal(a, b)

    def test_seed_range_checked(self):
        with pytest.raises(ValueError):
            Rng(-1)
        with pytest.raises(ValueError):
            Rng(2**64)


class TestMaxAbsRelDiff:
    def test_identity_is_zero(self):
        x = random_gaussian((1, 3, 3, 2), Rng(0))
        assert max_abs_rel_diff(x, x) == 0.0

    def test_small_perturbation(self):
        a = np.full((1, 1, 1, 1), 1.0, dtype=np.float32)
        b = np.full((1, 1, 1, 1), 1.00001, dtype=np.float32)
        assert max_abs_rel_diff(a, b) == pytest.approx(1e-5, rel=0.05)

    def test_zero_vs_zero_guarded(self):
        z = new_tensor((1, 1, 1, 1), 0.0)
        assert max_abs_rel_diff(z, z) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            max_abs_rel_diff(new_tensor((1, 1, 1, 1)), new_tensor((1, 1, 1, 2)))


@settings(max_examples=50, deadline=None)
@given(
    shape=st.tuples(*(st.integers(1, 4) for _ in range(4))),
    data=st.data(),
)
def test_layout_flat_index_matches_ravel(shape, data):
    b, h, w, c = shape
    idx = (
        data.draw(st.integers(0, b - 1)),
        data.draw(st.integers(0, h - 1)),
        data.draw(st.integers(0, w - 1)),
        data.draw(st.integers(0, c - 1)),
    )
    x = random_gaussian(shape, Rng(3))
    assert x.ravel()[flat_index(shape, idx)] == x[idx]


@settings(max_examples=50, deadline=None)
@given(
    shape=st.tuples(*(st.integers(1, 4) for _ in range(4))),
    value=st.floats(-1e6, 1e6, width=32),
    data=st.data(),
)
def test_set_get_round_trip(shape, value, data):
    idx = tuple(data.draw(st.integers(0, d - 1)) for d in shape)
    x = new_tensor(shape, 0.0)
    x[idx] = value
    assert x[idx] == np.float32(value)


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        x = random_gaussian((2, 7, 5, 3), Rng(8))
        x[0, 0, 0, 0] = -0.0
        x[0, 0, 0, 1] = 6.0
        path = tmp_path / "t.bten"
        save_tensor(path, x)
        y = load_tensor(path)
        assert x.tobytes() == y.tobytes()

    def test_header_fields(self, tmp_path):
        x = new_tensor((1, 2, 3, 4), 1.0)
        path = tmp_path / "t.bten"
        save_tensor(path, x)
        raw = path.read_bytes()
        assert raw[:4] == b"BTEN"
        assert len(raw) == 24 + 4 * x.size

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "t.bten"
        save_tensor(path, new_tensor((1, 2, 2, 2), 1.0))
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(TensorFormatError):
            load_tensor(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "t.bten"
        save_tensor(path, new_tensor((1, 1, 1, 1), 1.0))
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        path.write_bytes(bytes(raw))
        with pytest.raises(TensorFormatError):
            load_tensor(path)


SAVED_TENSOR = np.float32(-1.5) * np.arange(2 * 5 * 4 * 3, dtype=np.float32).reshape(2, 5, 4, 3)


@settings(max_examples=300, deadline=None)
@given(corruption=corruptions(24 + 4 * SAVED_TENSOR.size, 24))
def test_corrupt_tensor_file_raises_typed_error(fuzz_dir, corruption):
    # Byte flips, half of them aimed at the 24-byte header, and truncations
    # of a saved tensor: a load either returns a valid activation tensor
    # or raises TensorFormatError, never another exception.
    path = fuzz_dir / "t.bten"
    save_tensor(path, SAVED_TENSOR)
    path.write_bytes(corrupt(path.read_bytes(), *corruption))
    try:
        x = load_tensor(path)
    except TensorFormatError:
        return
    assert x.dtype == np.float32 and x.ndim == 4 and min(x.shape) >= 1
