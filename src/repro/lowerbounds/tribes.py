"""TRIBES and DISJ — the two-party hardness source (Theorem 2.3).

Following the paper's convention (Theorem 2.3), ``DISJ_N(X, Y) = 1`` iff
``X ∩ Y != ∅`` and

    TRIBES_{m,N}(Xbar, Ybar) = AND_i DISJ_N(X_i, Y_i).

Jayram et al. prove ``R(TRIBES_{m,N}) >= Ω(m N)`` in the two-party model;
every lower bound in the paper reduces a TRIBES instance to a BCQ/FAQ
instance and inherits that bound across a min cut.  The *hard
distribution* has ``|X_i ∩ Y_i| <= 1`` for every i (Remark G.5), which the
hash-split argument of Appendix G.6 additionally exploits.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Set, Tuple


@dataclass(frozen=True)
class TribesInstance:
    """One TRIBES_{m,N} input: m set pairs over universe [N] = {0..N-1}.

    Attributes:
        universe_size: ``N``.
        pairs: The ``(S_i, T_i)`` pairs (``m = len(pairs)``).
    """

    universe_size: int
    pairs: Tuple[Tuple[frozenset, frozenset], ...]

    @property
    def m(self) -> int:
        return len(self.pairs)

    def disj(self, i: int) -> bool:
        """``DISJ_N(S_i, T_i)``: True iff the sets intersect (paper sign)."""
        s, t = self.pairs[i]
        return bool(s & t)

    def evaluate(self) -> bool:
        """``TRIBES_{m,N}`` = AND of all DISJ values."""
        return all(self.disj(i) for i in range(self.m))

    def lower_bound_rounds(self) -> float:
        """The Theorem 2.3 two-party bound Ω(m·N), with constant 1."""
        return float(self.m * self.universe_size)


def random_tribes(
    m: int,
    universe_size: int,
    seed: Optional[int] = None,
    density: float = 0.3,
) -> TribesInstance:
    """A uniformly random TRIBES instance (each element i.i.d. present)."""
    rng = random.Random(0 if seed is None else seed)
    pairs = []
    for _ in range(m):
        s = frozenset(
            x for x in range(universe_size) if rng.random() < density
        )
        t = frozenset(
            x for x in range(universe_size) if rng.random() < density
        )
        pairs.append((s, t))
    return TribesInstance(universe_size, tuple(pairs))


def hard_tribes(
    m: int,
    universe_size: int,
    value: bool,
    seed: Optional[int] = None,
) -> TribesInstance:
    """A hard-distribution instance: ``|S_i ∩ T_i| <= 1`` (Remark G.5).

    Args:
        value: The target TRIBES value.  When True every pair intersects
            in exactly one element; when False one uniformly chosen pair is
            made disjoint (the rest intersect in one element).
    """
    rng = random.Random(0 if seed is None else seed)
    if universe_size < 2:
        raise ValueError("universe must have at least two elements")
    pairs: List[Tuple[frozenset, frozenset]] = []
    broken = None if value else rng.randrange(m)
    for i in range(m):
        elements = list(range(universe_size))
        rng.shuffle(elements)
        half = universe_size // 2
        s_part: Set[int] = set(elements[:half])
        t_part: Set[int] = set(elements[half:])
        if i != broken:
            witness = rng.randrange(universe_size)
            s_part.add(witness)
            t_part.add(witness)
        else:
            # Disjoint by construction: s_part and t_part partition [N].
            pass
        pairs.append((frozenset(s_part), frozenset(t_part)))
    instance = TribesInstance(universe_size, tuple(pairs))
    if instance.evaluate() != value:
        raise ValueError(
            f"planted hard TRIBES instance (m={m}, N={universe_size}) "
            f"evaluates to {instance.evaluate()}, not the requested {value!r}"
        )
    return instance


def tribes_round_lower_bound(
    m: int, universe_size: int, mincut_value: int
) -> float:
    """The Lemma 4.4 cut-simulation bound.

    An R-round protocol on G induces a two-party protocol exchanging
    ``R * MinCut * ceil(log2 MinCut)`` bits, so

        R >= Ω( m N / (MinCut * log2 MinCut) ).

    Polylog factors are part of the paper's ``Ω̃``; we keep the
    ``log2(MinCut)`` term explicit and set the constant to 1.
    """
    import math

    if mincut_value < 1:
        raise ValueError("mincut must be positive")
    log_term = max(1.0, math.ceil(math.log2(max(2, mincut_value))))
    return (m * universe_size) / (mincut_value * log_term)
