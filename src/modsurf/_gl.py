"""Cached Gauss-Legendre nodes and simple panel quadrature helpers."""

from __future__ import annotations

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=64)
def gl_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], cached by order."""
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def gl_panels(a: float, b, n_panels: int, n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre rule: `n_panels` equal panels on [a, b].

    For an array of upper ends b the nodes and weights have shape
    ``np.shape(b) + (n_panels * n_nodes,)``, each row the rule of its own b.
    """
    x, w = gl_nodes(n_nodes)
    edges = np.linspace(a, b, n_panels + 1, axis=-1)[..., None]
    half = 0.5 * (edges[..., 1:, :] - edges[..., :-1, :])
    shape = np.shape(b) + (-1,)
    return (edges[..., :-1, :] + half * (x + 1.0)).reshape(shape), (half * w).reshape(shape)
