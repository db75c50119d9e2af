"""Binary weight container.

Layout (all little-endian): magic ``b"BWGT"``, u32 manifest entry count,
then per entry a u16 name length, the UTF-8 name bytes, a u8 rank and
rank u32 dims.  After the manifest comes the payload: the concatenated
float32 data of every entry in manifest order.

Unpacking rejects a payload of the wrong length or with a non-finite
value.  Loading checks every manifest name and shape against the model's
parameters, in order, before its first copy, so a failed load never
leaves a half-mutated model.  It checks views of the file's bytes and
copies each tensor once, into the model.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .errors import (
    WeightFormatError,
    WeightNameError,
    WeightPayloadError,
    WeightShapeError,
)
from .model import Model

WEIGHT_MAGIC = b"BWGT"


def pack_container(entries: list[tuple[str, np.ndarray]]) -> bytes:
    """Serialize (name, float32 array) pairs into container bytes."""
    out = bytearray()
    out += WEIGHT_MAGIC
    out += struct.pack("<I", len(entries))
    payload = bytearray()
    for name, arr in entries:
        encoded = name.encode("utf-8")
        arr = np.ascontiguousarray(arr, dtype=np.float32)
        out += struct.pack("<H", len(encoded))
        out += encoded
        out += struct.pack("<B", arr.ndim)
        out += struct.pack(f"<{arr.ndim}I", *arr.shape)
        payload += arr.astype("<f4", copy=False).tobytes()
    return bytes(out) + bytes(payload)


def _container_views(raw: bytes) -> list[tuple[str, np.ndarray]]:
    """(name, read-only float32 view of ``raw``) pairs of a checked container."""
    if len(raw) < 8 or raw[:4] != WEIGHT_MAGIC:
        raise WeightFormatError("not a weight container (bad magic)")
    (count,) = struct.unpack_from("<I", raw, 4)
    offset = 8
    manifest: list[tuple[str, tuple[int, ...]]] = []
    for _ in range(count):
        try:
            (name_len,) = struct.unpack_from("<H", raw, offset)
            offset += 2
            name = raw[offset : offset + name_len].decode("utf-8")
            offset += name_len
            (rank,) = struct.unpack_from("<B", raw, offset)
            offset += 1
            dims = struct.unpack_from(f"<{rank}I", raw, offset)
            offset += 4 * rank
        except (struct.error, UnicodeDecodeError) as exc:
            raise WeightFormatError(f"truncated or corrupt manifest: {exc}") from exc
        manifest.append((name, tuple(dims)))
    seen = set()
    for name, _ in manifest:
        if name in seen:
            raise WeightFormatError(f"duplicate tensor name {name!r}")
        seen.add(name)
    # Python ints: a fixed-width product could wrap and match a short payload.
    total = sum(math.prod(shape) for _, shape in manifest)
    if len(raw) - offset != 4 * total:
        raise WeightPayloadError(
            f"payload is {len(raw) - offset} bytes, manifest requires {4 * total}"
        )
    views = []
    for name, shape in manifest:
        n = math.prod(shape)
        arr = np.frombuffer(raw, dtype="<f4", count=n, offset=offset)
        if not np.isfinite(arr).all():
            raise WeightPayloadError(f"tensor {name!r} holds a non-finite value")
        views.append((name, arr.reshape(shape)))
        offset += 4 * n
    return views


def unpack_container(raw: bytes) -> list[tuple[str, np.ndarray]]:
    """Parse container bytes back into (name, array) pairs."""
    return [(name, view.astype(np.float32)) for name, view in _container_views(raw)]


def save_weights(model: Model, path) -> None:
    with open(path, "wb") as fp:
        fp.write(pack_container(list(model.parameters())))


def load_weights(model: Model, path) -> Model:
    """Populate ``model`` from a container file; validates before mutating."""
    with open(path, "rb") as fp:
        entries = _container_views(fp.read())  # copied once, into the model
    params = list(model.parameters())
    if len(entries) != len(params):
        raise WeightNameError(
            f"container has {len(entries)} tensors, model expects {len(params)}"
        )
    for (got_name, arr), (want_name, want) in zip(entries, params):
        if got_name != want_name:
            raise WeightNameError(
                f"tensor name mismatch: container has {got_name!r}, "
                f"model expects {want_name!r}"
            )
        if arr.shape != want.shape:
            raise WeightShapeError(
                f"tensor {got_name!r} has shape {arr.shape}, "
                f"model expects {want.shape}"
            )
    for (_, arr), (_, want) in zip(entries, params):
        want[...] = arr
    return model
