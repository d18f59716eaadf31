"""Probe functions for experiments: smooth test data on grids and random
bounded vectors.  Everything here is deterministic given an explicit
numpy Generator, which the CLI seeds from the config."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .limits import Fn
from .spaces import FiniteSpace

__all__ = [
    "trig_polynomial",
    "trig_basis",
    "bump",
    "random_bounded",
]


def trig_polynomial(
    space: FiniteSpace,
    cos_coeffs: Sequence[float],
    sin_coeffs: Sequence[float] = (),
    period: float = 1.0,
) -> Fn:
    """sum_k a_k cos(2 pi k x / period) + b_k sin(2 pi k x / period) sampled
    on the first coordinate of the space."""
    x = space.coords[:, 0]
    v = np.zeros(space.size)
    for k, a in enumerate(cos_coeffs):
        v += a * np.cos(2.0 * np.pi * k * x / period)
    for k, b in enumerate(sin_coeffs, start=1):
        v += b * np.sin(2.0 * np.pi * k * x / period)
    return Fn(space, v)


def trig_basis(space: FiniteSpace, max_degree: int, period: float = 1.0) -> list[Fn]:
    """The truncated Fourier family 1, cos kx, sin kx up to max_degree.

    Spans of these are dense in the continuous functions on a circle, which
    is what the density-of-domain arguments need from a probe family.
    """
    out = [trig_polynomial(space, [1.0], period=period)]
    for k in range(1, max_degree + 1):
        c = [0.0] * k + [1.0]
        out.append(trig_polynomial(space, c, period=period))
        s = [0.0] * (k - 1) + [1.0]
        out.append(trig_polynomial(space, [0.0], s, period=period))
    return out


def bump(space: FiniteSpace, center: float, width: float, height: float = 1.0) -> Fn:
    """Smooth compactly-peaked probe exp(-(x-c)^2 / w^2), scaled, in the first
    coordinate of the space."""
    x = space.coords[:, 0]
    return Fn(space, height * np.exp(-((x - center) / width) ** 2))


def random_bounded(space: FiniteSpace, rng: np.random.Generator, bound: float = 1.0) -> Fn:
    return Fn(space, rng.uniform(-bound, bound, size=space.size))
