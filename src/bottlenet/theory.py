"""Numerical experiments on information preservation through rectifiers.

The object under study is the map x -> relu(B x) for an m x n matrix B
with m >= n.  Everything here runs in double precision; the recovery
tolerances (1e-6 relative) are not reachable in single.

Key facts exercised:

* On the strictly positive orthant the rectifier is the identity, so any
  full-dimensional piece of its image is reached linearly.
* relu(B x0) determines x0 uniquely iff at least n coordinates are
  non-zero and the corresponding rows of B have rank n; recovery is then
  the least-squares solution restricted to those rows.
* For B drawn from a sign-symmetric density (i.i.d. Gaussian here), the
  expected fraction of an n-dimensional set that keeps full rank through
  the rectifier is sum_{k=0}^{m-n} C(m, k) / 2^m, which approaches 1
  rapidly once m >> n.
* Embedding a 2-D spiral into n dimensions through a random matrix and a
  rectifier, then inverting, is visibly lossy for n near 2 and nearly
  exact for large n.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import NotInvertibleError, ShapeMismatchError
from .model import Model, layer_walk
from .tensor import Rng

RANK_RTOL = 1e-8
# Trials drawn per Monte Carlo batch, and the float64 values one batch of
# matrices may hold; the draws for a seed depend on both.
MC_CHUNK = 8192
MC_BATCH_VALUES = 2**24
SPIRAL_TURNS = 3.0


def relu_interior_identity_check(points: np.ndarray) -> bool:
    """True iff max(x, 0) == x holds exactly for every row of ``points``.

    Callers supply points with strictly positive coordinates (interior
    points of a rectifier image); the check returns False on any
    violation instead of asserting.
    """
    pts = np.asarray(points)
    return bool(np.array_equal(np.maximum(pts, 0.0), pts))


def _rank(mat: np.ndarray, rtol: float = RANK_RTOL) -> int:
    """Numerical rank: the singular values above ``rtol`` times the largest."""
    if mat.size == 0:
        return 0
    sv = np.linalg.svd(mat, compute_uv=False)
    return int(np.count_nonzero(sv > rtol * sv[0]))


def invertibility_condition(B: np.ndarray, y0: np.ndarray) -> bool:
    """Whether y0 = relu(B x) pins down x uniquely.

    Requires at least n non-zero entries of y0 and rank n among the rows
    of B they select.
    """
    B = np.asarray(B, dtype=np.float64)
    y0 = np.asarray(y0, dtype=np.float64).reshape(-1)
    m, n = B.shape
    if y0.shape[0] != m:
        raise ShapeMismatchError(f"y0 has {y0.shape[0]} entries, B has {m} rows")
    active = np.flatnonzero(y0 != 0.0)
    if active.size < n:
        return False
    return _rank(B[active]) == n


def recover_input(B: np.ndarray, y0: np.ndarray) -> np.ndarray:
    """Solve y0 = relu(B x) for x via least squares on the active rows."""
    B = np.asarray(B, dtype=np.float64)
    y0 = np.asarray(y0, dtype=np.float64).reshape(-1)
    if not invertibility_condition(B, y0):
        raise NotInvertibleError(
            "y0 does not satisfy the invertibility condition (too few active "
            "coordinates or rank-deficient active rows)"
        )
    active = np.flatnonzero(y0 != 0.0)
    x, *_ = np.linalg.lstsq(B[active], y0[active], rcond=None)
    return x


def relu_preserved_fraction(n: int, m: int) -> float:
    """Exact expected fraction of sign patterns with >= n positive entries."""
    if not 1 <= n <= m:
        raise ValueError(f"need 1 <= n <= m, got n={n}, m={m}")
    # Sum the shorter run of binomials: the numerator is the same integer,
    # since sum_{k<=m-n} C(m, k) = 2^m - sum_{j<n} C(m, j).
    if n < m - n + 1:
        return (2**m - sum(comb(m, j) for j in range(n))) / 2**m
    return sum(comb(m, k) for k in range(m - n + 1)) / 2**m


def relu_preserved_fraction_mc(
    n: int, m: int, trials: int, seed: int
) -> float:
    """Monte Carlo estimate of ``relu_preserved_fraction``.

    Each trial draws x uniform on [0, 1]^n and an i.i.d. Gaussian B, and
    counts the trial as preserved when B x has at least n positive
    coordinates.  The Gaussian density is sign-symmetric row-wise, which
    is exactly the symmetry the expectation relies on.
    """
    if not 1 <= n <= m:
        raise ValueError(f"need 1 <= n <= m, got n={n}, m={m}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rng = Rng(seed)
    preserved = 0
    done = 0
    while done < trials:
        count = max(1, min(MC_CHUNK, trials - done, MC_BATCH_VALUES // (m * n)))
        B = rng.normal((count, m, n), dtype=np.float64)
        x = rng.uniform((count, n), dtype=np.float64)
        z = np.einsum("tmn,tn->tm", B, x)
        preserved += int(np.count_nonzero((z > 0).sum(axis=1) >= n))
        done += count
    return preserved / trials


def make_spiral(points: int = 1000) -> np.ndarray:
    """Planar spiral of ``SPIRAL_TURNS`` turns with linearly growing radius,
    (points, 2) float64."""
    theta = np.linspace(0.0, 2.0 * np.pi * SPIRAL_TURNS, points)
    radius = theta / (2.0 * np.pi * SPIRAL_TURNS)
    return np.stack([radius * np.cos(theta), radius * np.sin(theta)], axis=1)


def spiral_roundtrip_error(
    spiral: np.ndarray, embed: np.ndarray
) -> float:
    """Mean squared 2-D error of embed -> rectify -> invert on the spiral.

    The inverse solves, per point, the least-squares system restricted to
    the coordinates the rectifier left active; clipped coordinates carry
    only an inequality, not an equation, so a full-matrix pseudo-inverse
    would bias every reconstruction toward zero.  Rank-deficient active
    sets fall back to the minimum-norm solution, which is where the
    information loss shows up.
    """
    P = np.asarray(spiral, dtype=np.float64)
    T = np.asarray(embed, dtype=np.float64)
    Y = np.maximum(P @ T.T, 0.0)
    W = (Y > 0.0).astype(np.float64)
    # Normal equations per point, batched: A_p = T_S^T T_S, b_p = T_S^T y_S.
    A = np.einsum("pn,ni,nj->pij", W, T, T)
    b = np.einsum("pn,pn,ni->pi", W, Y, T)
    X = np.einsum("pij,pj->pi", np.linalg.pinv(A), b)
    return float(np.mean(np.sum((X - P) ** 2, axis=1)))


def spiral_experiment(
    dims: list[int], seed: int, points: int = 1000
) -> dict[int, float]:
    """Reconstruction error per embedding dimension, one Gaussian matrix each.

    The matrix for dimension n is derived from (seed, n), so results for a
    given n do not depend on which other dimensions were requested.
    """
    spiral = make_spiral(points=points)
    errors: dict[int, float] = {}
    for n in dims:
        if n < 2:
            raise ValueError(f"embedding dimension must be >= 2, got {n}")
        T = Rng(seed).derive(n).normal((n, 2), dtype=np.float64)
        errors[n] = spiral_roundtrip_error(spiral, T)
    return errors


@dataclass
class LayerActivation:
    index: int
    name: str
    channels: int
    threshold: float
    min_count: float
    mean_count: float
    max_count: float

    @property
    def mean_fraction(self) -> float:
        return self.mean_count / self.channels


@dataclass
class ActivationStats:
    per_location: bool
    layers: list[LayerActivation]


def activation_pattern_stats(
    model: Model, batch: np.ndarray, per_location: bool = True
) -> ActivationStats:
    """Positive-channel statistics after every rectified layer.

    ``per_location`` counts channels with a positive value at each spatial
    location (then aggregates min/mean/max over locations and batch);
    otherwise a channel counts once per image if it is positive anywhere
    in its feature map.  The threshold column is the invertibility
    floor: the width of the tensor feeding the layer's block, i.e.
    channels / t for an expansion-t block.
    """
    # Tap names are "<layer>" or "<layer>.<stage>".
    in_channels = {r.name: r.in_channels for r in layer_walk(model.spec)}
    stats: list[LayerActivation] = []

    def tap(name: str, t: np.ndarray) -> None:
        positive = t > 0
        if per_location:
            counts = positive.sum(axis=3)
        else:
            counts = positive.any(axis=(1, 2)).sum(axis=1)
        stats.append(LayerActivation(
            index=len(stats),
            name=name,
            channels=t.shape[3],
            threshold=float(in_channels[name.partition(".")[0]]),
            min_count=float(counts.min()),
            mean_count=float(counts.mean()),
            max_count=float(counts.max()),
        ))

    model.forward(batch, tap=tap)
    return ActivationStats(per_location=per_location, layers=stats)
