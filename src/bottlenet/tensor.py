"""Activation tensors and the project-wide random number generator.

Every activation in this package is a plain ``numpy.ndarray`` with shape
``(batch, height, width, channels)``, dtype float32, C-contiguous.  The
C layout over that axis order means the flat index of element
``(b, y, x, c)`` is ``((b * H + y) * W + x) * C + c``: channels are the
fastest-moving axis, so slicing a contiguous channel range of one pixel
touches contiguous memory.  The channel-split execution path in
``blocks`` relies on this.

Tensors are treated as immutable once handed to a consumer; no function
in this package mutates its inputs.

File format (``save_tensor``/``load_tensor``): little-endian, a header of
magic ``b"BTEN"``, version u16, rank u16, four u32 dims, followed by the
raw float32 payload in C order.  Round trips are bit-exact.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import InvalidShapeError, ShapeMismatchError, TensorFormatError

TENSOR_MAGIC = b"BTEN"
TENSOR_VERSION = 1
_HEADER = struct.Struct("<4sHH4I")

# Floor for the relative-difference denominator; only protects exact zeros.
REL_DIFF_EPS = 1e-12


class Rng:
    """Deterministic random source: Philox4x32-10 behind numpy's Generator.

    Philox is counter-based, so the stream for a given 64-bit seed is
    identical across runs and platforms (for a fixed numpy version, which
    pins the Gaussian ziggurat tables).  All randomness in the package
    must flow through one of these; never use ambient entropy.
    """

    ALGORITHM = "philox4x32-10"

    def __init__(self, seed: int):
        if not 0 <= int(seed) < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed!r}")
        self.seed = int(seed)
        self._gen = np.random.Generator(np.random.Philox(self.seed))

    def derive(self, index: int) -> "Rng":
        """Independent child stream, e.g. one per trial (seed + index)."""
        return Rng((self.seed + int(index)) % 2**64)

    def normal(self, shape, mean: float = 0.0, stddev: float = 1.0, dtype=np.float32):
        if stddev < 0:
            raise ValueError(f"stddev must be non-negative, got {stddev}")
        out = self._gen.standard_normal(size=shape, dtype=np.float64)
        return (out * stddev + mean).astype(dtype)

    def uniform(self, shape, low: float = 0.0, high: float = 1.0, dtype=np.float32):
        return self._gen.uniform(low, high, size=shape).astype(dtype)

    def integers(self, low: int, high: int, size=None):
        return self._gen.integers(low, high, size=size)


def _check_shape(shape) -> tuple[int, int, int, int]:
    if len(shape) != 4:
        raise InvalidShapeError(f"activation tensors are rank 4, got shape {tuple(shape)}")
    dims = tuple(int(d) for d in shape)
    if any(d < 1 for d in dims):
        raise InvalidShapeError(f"all dimensions must be >= 1, got {dims}")
    return dims


def new_tensor(shape, fill: float = 0.0) -> np.ndarray:
    """Fresh (b, h, w, c) float32 tensor with every element equal to ``fill``."""
    dims = _check_shape(shape)
    return np.full(dims, fill, dtype=np.float32)


def random_gaussian(shape, rng: Rng, mean: float = 0.0, stddev: float = 1.0) -> np.ndarray:
    """Seeded i.i.d. Gaussian tensor; reproducible bit-for-bit from the seed."""
    dims = _check_shape(shape)
    return rng.normal(dims, mean=mean, stddev=stddev, dtype=np.float32)


def assert_activation(x: np.ndarray, name: str = "tensor") -> np.ndarray:
    """Validate the (b, h, w, c)/float32 convention; returns ``x`` unchanged."""
    if not isinstance(x, np.ndarray) or x.ndim != 4:
        raise InvalidShapeError(f"{name} must be a rank-4 ndarray")
    if x.dtype != np.float32:
        raise InvalidShapeError(f"{name} must be float32, got {x.dtype}")
    if any(d < 1 for d in x.shape):
        raise InvalidShapeError(f"{name} has a zero dimension: {x.shape}")
    return x


def flat_index(shape, idx) -> int:
    """Flat offset of element ``(b, y, x, c)`` under the fixed layout."""
    b, y, x, c = idx
    _, height, width, channels = shape
    return ((b * height + y) * width + x) * channels + c


def max_abs_rel_diff(a: np.ndarray, b: np.ndarray) -> float:
    """max over elements of |a - b| / max(|a|, |b|, eps).

    The eps floor only guards the exactly-zero-vs-zero case; it does not
    make the metric meaningful for near-cancelling values.
    """
    if a.shape != b.shape:
        raise ShapeMismatchError(f"shape mismatch: {a.shape} vs {b.shape}")
    af = np.asarray(a, dtype=np.float64)
    bf = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(af), np.abs(bf)), REL_DIFF_EPS)
    return float(np.max(np.abs(af - bf) / denom)) if af.size else 0.0


def save_tensor(path, x: np.ndarray) -> None:
    x = assert_activation(x)
    header = _HEADER.pack(TENSOR_MAGIC, TENSOR_VERSION, 4, *x.shape)
    with open(path, "wb") as fp:
        fp.write(header)
        fp.write(np.ascontiguousarray(x).astype("<f4", copy=False).tobytes())


def load_tensor(path) -> np.ndarray:
    with open(path, "rb") as fp:
        raw = fp.read()
    if len(raw) < _HEADER.size:
        raise TensorFormatError(f"{path}: truncated header")
    magic, version, rank, d0, d1, d2, d3 = _HEADER.unpack_from(raw)
    if magic != TENSOR_MAGIC:
        raise TensorFormatError(f"{path}: bad magic {magic!r}")
    if version != TENSOR_VERSION:
        raise TensorFormatError(f"{path}: unsupported version {version}")
    if rank != 4:
        raise TensorFormatError(f"{path}: rank must be 4, got {rank}")
    dims = (d0, d1, d2, d3)
    if any(d < 1 for d in dims):
        raise TensorFormatError(f"{path}: invalid dims {dims}")
    count = d0 * d1 * d2 * d3
    payload = raw[_HEADER.size:]
    if len(payload) != 4 * count:
        raise TensorFormatError(
            f"{path}: payload is {len(payload)} bytes, expected {4 * count}"
        )
    data = np.frombuffer(payload, dtype="<f4", count=count)
    return data.reshape(dims).astype(np.float32, copy=True)
