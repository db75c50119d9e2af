import numpy as np
import pytest
from hypothesis import given, settings

from bottlenet.errors import (
    WeightFormatError,
    WeightNameError,
    WeightPayloadError,
    WeightShapeError,
)
from bottlenet.model import ModelSpec, build_model
from bottlenet.tensor import Rng, random_gaussian
from bottlenet.weights import load_weights, pack_container, save_weights, unpack_container

from conftest import WRAPPING_CONTAINER, corrupt, corruptions

SMALL = ModelSpec(resolution=96, width_multiplier=0.35, classes=10)


def small_model(seed=1):
    return build_model(SMALL).randomize(Rng(seed))


SAVED = pack_container(list(small_model().parameters()))
MANIFEST_BYTES = len(SAVED) - 4 * sum(a.size for _, a in build_model(SMALL).parameters())


class TestContainerFormat:
    def test_pack_unpack_round_trip(self):
        entries = [
            ("a.weight", np.arange(24, dtype=np.float32).reshape(1, 2, 3, 4)),
            ("a.bias", np.array([1.5, -2.0], dtype=np.float32)),
        ]
        back = unpack_container(pack_container(entries))
        assert [(n, a.shape) for n, a in back] == [("a.weight", (1, 2, 3, 4)), ("a.bias", (2,))]
        for (_, x), (_, y) in zip(entries, back):
            assert x.tobytes() == y.tobytes()

    def test_magic(self):
        raw = pack_container([("x", np.zeros(3, np.float32))])
        assert raw[:4] == b"BWGT"
        with pytest.raises(WeightFormatError):
            unpack_container(b"XXXX" + raw[4:])

    def test_duplicate_names_rejected(self):
        raw = pack_container([("x", np.zeros(2, np.float32)),
                              ("x", np.zeros(2, np.float32))])
        with pytest.raises(WeightFormatError):
            unpack_container(raw)

    def test_element_count_does_not_wrap(self):
        with pytest.raises(WeightPayloadError):
            unpack_container(WRAPPING_CONTAINER)

    def test_truncated_manifest_rejected(self):
        raw = pack_container([("some.tensor", np.zeros(5, np.float32))])
        with pytest.raises(WeightFormatError):
            unpack_container(raw[:10])


class TestSaveLoad:
    def test_round_trip_preserves_forward_bits(self, tmp_path):
        m = small_model()
        path = tmp_path / "w.bwgt"
        save_weights(m, path)
        fresh = build_model(SMALL)
        load_weights(fresh, path)
        x = random_gaussian((1, 96, 96, 3), Rng(5))
        assert m.forward(x).tobytes() == fresh.forward(x).tobytes()

    # The first entry fails before any copy could start; the last fails
    # after every other entry checked out, so a load that copied while it
    # checked would have written all the others.
    @pytest.mark.parametrize("index", [0, -1], ids=["first", "last"])
    def test_shape_mismatch_names_the_tensor(self, tmp_path, index):
        entries = list(small_model().parameters())
        name, arr = entries[index]
        entries[index] = (name, np.zeros(arr.shape[:-1] + (arr.shape[-1] + 1,), np.float32))
        path = tmp_path / "w.bwgt"
        path.write_bytes(pack_container(entries))
        target = build_model(SMALL)
        before = [a.tobytes() for _, a in target.parameters()]
        with pytest.raises(WeightShapeError, match=name):
            load_weights(target, path)
        assert [a.tobytes() for _, a in target.parameters()] == before

    @pytest.mark.parametrize("index", [0, -1], ids=["first", "last"])
    def test_name_mismatch(self, tmp_path, index):
        entries = list(small_model().parameters())
        entries[index] = ("not.a.real.tensor", entries[index][1])
        path = tmp_path / "w.bwgt"
        path.write_bytes(pack_container(entries))
        target = build_model(SMALL)
        before = [a.tobytes() for _, a in target.parameters()]
        with pytest.raises(WeightNameError):
            load_weights(target, path)
        assert [a.tobytes() for _, a in target.parameters()] == before

    def test_truncated_payload_no_partial_mutation(self, tmp_path):
        m = small_model()
        path = tmp_path / "w.bwgt"
        save_weights(m, path)
        path.write_bytes(path.read_bytes()[:-8])
        target = build_model(SMALL)
        before = {n: a.copy() for n, a in target.parameters()}
        with pytest.raises(WeightPayloadError):
            load_weights(target, path)
        for n, a in target.parameters():
            assert np.array_equal(a, before[n]), f"{n} was mutated by a failed load"

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_payload_rejected_before_any_write(self, tmp_path, value):
        entries = list(small_model().parameters())
        name, arr = entries[-3]
        arr[(0,) * arr.ndim] = value
        path = tmp_path / "w.bwgt"
        path.write_bytes(pack_container(entries))
        target = build_model(SMALL)
        with pytest.raises(WeightPayloadError, match=name):
            load_weights(target, path)
        assert not any(a.any() for _, a in target.parameters())

    def test_schema_order_is_enforced(self, tmp_path):
        m = small_model()
        entries = list(m.parameters())
        entries[0], entries[1] = entries[1], entries[0]
        path = tmp_path / "w.bwgt"
        path.write_bytes(pack_container(entries))
        with pytest.raises(WeightNameError):
            load_weights(build_model(SMALL), path)


@settings(max_examples=300, deadline=None)
@given(corruption=corruptions(len(SAVED), MANIFEST_BYTES))
def test_corrupt_container_raises_typed_error_and_leaves_model(fuzz_dir, corruption):
    # Byte flips, half of them aimed at the manifest, and truncations of a
    # saved container: a load either succeeds with exactly the file's
    # tensors, all finite, or raises a WeightFormatError and changes no
    # parameter byte.
    raw = corrupt(SAVED, *corruption)
    path = fuzz_dir / "w.bwgt"
    path.write_bytes(raw)
    target = build_model(SMALL)  # zero parameters: any write shows
    before = [a.tobytes() for _, a in target.parameters()]
    try:
        load_weights(target, path)
    except WeightFormatError:
        assert [a.tobytes() for _, a in target.parameters()] == before
    else:
        assert [a.tobytes() for _, a in target.parameters()] == [
            a.tobytes() for _, a in unpack_container(raw)]
        assert all(np.isfinite(a).all() for _, a in target.parameters())
