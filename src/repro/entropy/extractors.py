"""Extractor-style facts behind the MCM lower bound — Appendix H.

Numerically verifiable (exact, by enumeration over small F_2 spaces):

* **Theorem H.9** (Dodis–Oliveira): for independent ``y, z`` on F_2^n
  with ``H∞(y) + H∞(z) >= (1 + Δ) n``, the pair ``(y, <y, z>)`` is
  ``2^{-Δn/2 - 1}``-close to ``D_y x U_1``.
* **Theorem 6.3 shape**: matrix–vector multiplication amplifies
  min-entropy — if ``A`` is (close to) uniform and ``x`` has linear
  min-entropy, ``Ax`` has nearly full min-entropy.
* **Appendix I.3**: the Shannon-entropy counterexample — conditioned on
  the images of a basis of a planted subspace, the Shannon entropy of
  ``Ax`` collapses to about half of ``H(x)``, which is why the paper's
  induction needs min-entropy.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, Mapping, Tuple

import numpy as np

from ..linalg import f2
from .minentropy import (
    min_entropy,
    shannon_entropy,
    statistical_distance,
)


def all_vectors(n: int):
    """All 2^n vectors of F_2^n, as int-coded keys + arrays."""
    for value in range(2**n):
        yield value, f2.unpack_int(value, n)


def inner_product_distance(
    dist_y: Mapping[int, float], dist_z: Mapping[int, float], n: int
) -> float:
    """Exact statistical distance of ``(y, <y,z>)`` from ``D_y x U_1``.

    Both distributions are over int-coded F_2^n vectors; ``y`` and ``z``
    are independent.
    """
    joint: Dict[Tuple[int, int], float] = {}
    vecs = {v: arr for v, arr in all_vectors(n)}
    for y, py in dist_y.items():
        if py == 0:
            continue
        for z, pz in dist_z.items():
            if pz == 0:
                continue
            ip = int(np.dot(vecs[y], vecs[z]) % 2)
            key = (y, ip)
            joint[key] = joint.get(key, 0.0) + py * pz
    ideal = {
        (y, b): py / 2 for y, py in dist_y.items() for b in (0, 1)
    }
    return statistical_distance(joint, ideal)


def theorem_h9_bound(n: int, h_y: float, h_z: float) -> float:
    """``2^{-Δn/2 - 1}`` with ``Δ = (H∞(y) + H∞(z))/n - 1``."""
    delta = (h_y + h_z) / n - 1.0
    return 2.0 ** (-(delta * n) / 2 - 1)


def matvec_min_entropy(
    dist_a: Mapping[int, float],
    dist_x: Mapping[int, float],
    n: int,
) -> float:
    """Exact ``H∞(Ax)`` for independent int-coded A (row-major n² bits)
    and x distributions.  Feasible for n <= 3 with uniform A; use planted
    ``dist_a`` supports for larger n."""
    out: Dict[int, float] = {}
    xs = {v: f2.unpack_int(v, n) for v in dist_x}
    for a_code, pa in dist_a.items():
        if pa == 0:
            continue
        a = f2.unpack_int(a_code, n * n).reshape(n, n)
        for x_code, px in dist_x.items():
            if px == 0:
                continue
            y = f2.pack_int(f2.matvec(a, xs[x_code]))
            out[y] = out.get(y, 0.0) + pa * px
    return min_entropy(out)


def uniform_matrices(n: int) -> Dict[int, float]:
    """The uniform distribution on all 2^(n²) matrices (n <= 3 advised)."""
    total = 2 ** (n * n)
    p = 1.0 / total
    return {v: p for v in range(total)}


def planted_deficiency_matrices(n: int, fixed_rows: int) -> Dict[int, float]:
    """Uniform over matrices whose first ``fixed_rows`` rows are zero —
    min-entropy ``(n - fixed_rows) n`` = deficiency ``γ = fixed_rows/n``."""
    free = (n - fixed_rows) * n
    out = {}
    p = 1.0 / (2**free)
    for tail in range(2**free):
        out[tail] = p  # leading rows zero: code == tail
    return out


def shannon_counterexample(n: int, t: int) -> Dict[str, float]:
    """Appendix I.3, computed exactly for small ``n``.

    The distribution on ``x``: with probability ``1 - α`` uniform on
    ``S = span(e_1..e_t)``, with probability ``α`` uniform on the
    complementary coordinate subspace (``α = t/n`` as in the appendix).
    ``A`` is uniform; ``f(A) = (A e_1, ..., A e_t)``.

    Returns a dict with:
        ``h_x``: the Shannon entropy of x (≈ 2α(1-α)n);
        ``h_ax_given_fa_x``: the exact conditional Shannon entropy
        ``H(Ax | f(A), x)`` — 0 on the ``x ∈ S`` branch (Ax is then
        determined by f(A) and x) and full on the other branch, i.e.
        ``α * n``: about *half* of ``h_x`` for small α.  Min-entropy-based
        amplification (Theorem 6.3) has no such collapse.
    """
    if not 1 <= t < n:
        raise ValueError("need 1 <= t < n")
    alpha = t / n
    # H(x): mixture of uniforms on disjoint supports S (2^t) and S' (2^{n-t}).
    dist_x: Dict[int, float] = {}
    for code in range(2**n):
        high = code >> (n - t)  # first t coordinates
        low = code & ((1 << (n - t)) - 1)
        if low == 0:  # x in S = span(e_1..e_t)
            dist_x[code] = dist_x.get(code, 0.0) + (1 - alpha) / (2**t)
        if high == 0:  # x in the complement span(e_{t+1}..e_n)
            dist_x[code] = dist_x.get(code, 0.0) + alpha / (2 ** (n - t))
    total = math.fsum(dist_x.values())
    dist_x = {k: v / total for k, v in dist_x.items()}
    h_x = shannon_entropy(dist_x)

    # H(Ax | f(A), x): exact branch computation.
    #  - x in S, x != 0: Ax = sum of revealed columns -> determined: 0 bits.
    #  - x = 0: Ax = 0: 0 bits.
    #  - x in S' \ {0}: given f(A), Ax is uniform on F_2^n: n bits.
    p_splice = dist_x.get(0, 0.0)  # the all-zero vector sits in both parts
    mass_outside = math.fsum(
        p for code, p in dist_x.items()
        if (code >> (n - t)) == 0 and code != 0
    )
    h_ax = mass_outside * n
    return {
        "n": float(n),
        "alpha": alpha,
        "h_x": h_x,
        "h_ax_given_fa_x": h_ax,
        "claimed_upper": alpha * n,
        "zero_mass": p_splice,
    }
