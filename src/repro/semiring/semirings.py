"""Commutative semirings (paper Section 1, footnote 2).

A *commutative semiring* is a triple ``(D, +, *)`` where ``(D, +)`` and
``(D, *)`` are commutative monoids with identities ``0`` and ``1``, ``*``
distributes over ``+`` and ``0`` annihilates under ``*``.  All FAQ
computations in this library are parameterized over a :class:`Semiring`.

The paper's two headline instantiations are provided as
:data:`BOOLEAN` (Boolean Conjunctive Queries) and :data:`REAL` (PGM factor
marginals), along with the counting, tropical, GF(2) and max-product
semirings that the FAQ framework of Abo Khamis et al. (PODS 2016)
encompasses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass(frozen=True)
class Semiring:
    """A commutative semiring ``(domain, add, mul)`` with identities.

    Attributes:
        name: Human-readable identifier (used in reprs and error messages).
        zero: Additive identity; also the "absent tuple" annotation in
            the listing representation of a factor.
        one: Multiplicative identity.
        add: Commutative, associative binary operator with identity ``zero``.
        mul: Commutative, associative binary operator with identity ``one``
            that distributes over ``add`` and annihilates on ``zero``.
        is_idempotent_add: True when ``add(x, x) == x`` for all x (e.g.
            Boolean or, min, max).  Idempotent addition lets repeated
            aggregation of the same value be collapsed, which the naive
            solver exploits when a bound variable occurs in no factor.
        eq: Equality predicate used by tests and solvers to compare results
            (floating-point semirings need a tolerance).
    """

    name: str
    zero: Any
    one: Any
    add: Callable[[Any, Any], Any]
    mul: Callable[[Any, Any], Any]
    is_idempotent_add: bool = False
    eq: Callable[[Any, Any], bool] = field(default=lambda a, b: a == b)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Semiring({self.name})"

    def sum(self, values) -> Any:
        """Fold ``add`` over an iterable, starting from ``zero``."""
        acc = self.zero
        for v in values:
            acc = self.add(acc, v)
        return acc

    def product(self, values) -> Any:
        """Fold ``mul`` over an iterable, starting from ``one``."""
        acc = self.one
        for v in values:
            acc = self.mul(acc, v)
        return acc

    def sum_repeat(self, value: Any, times: int) -> Any:
        """``value + value + ... + value`` (``times`` summands).

        Used when a bound variable appears in no factor: summing it out
        multiplies the result by its domain size *in the semiring's sense*.
        For idempotent addition this is just ``value`` (for ``times >= 1``).
        """
        if times < 0:
            raise ValueError(f"times must be non-negative, got {times}")
        if times == 0:
            return self.zero
        if self.is_idempotent_add:
            return value
        return fold_repeat(self.add, value, times)

    def is_zero(self, value: Any) -> bool:
        """True when ``value`` equals the additive identity."""
        return self.eq(value, self.zero)


def fold_repeat(op: Callable[[Any, Any], Any], value: Any, times: int) -> Any:
    """Fold ``times`` copies of ``value`` under an associative, commutative
    binary ``op`` in O(log times) via double-and-add.

    Used by :meth:`Semiring.sum_repeat` and by
    :func:`repro.faq.operations.aggregate_absent_variable` (any FAQ
    aggregate qualifies).

    Raises:
        ValueError: if ``times`` is not positive (there is no generic
            identity to return for an empty fold).
    """
    if times < 1:
        raise ValueError(f"times must be positive, got {times}")
    acc = None
    base = value
    n = times
    while n:
        if n & 1:
            acc = base if acc is None else op(acc, base)
        n >>= 1
        if n:
            base = op(base, base)
    return acc


def _float_eq(a: Any, b: Any) -> bool:
    return math.isclose(float(a), float(b), rel_tol=1e-9, abs_tol=1e-12)


#: Boolean semiring ({0,1}, or, and) — the BCQ semiring (paper Section 1).
BOOLEAN = Semiring(
    name="boolean",
    zero=False,
    one=True,
    add=lambda a, b: a or b,
    mul=lambda a, b: a and b,
    is_idempotent_add=True,
)

#: Counting semiring (N, +, *) — counts join results.
COUNTING = Semiring(
    name="counting",
    zero=0,
    one=1,
    add=lambda a, b: a + b,
    mul=lambda a, b: a * b,
)

#: Non-negative reals (R>=0, +, *) — PGM factor marginals (paper Section 1).
REAL = Semiring(
    name="real",
    zero=0.0,
    one=1.0,
    add=lambda a, b: a + b,
    mul=lambda a, b: a * b,
    eq=_float_eq,
)

#: Tropical min-plus semiring — shortest paths / MAP-style minimization.
MIN_PLUS = Semiring(
    name="min-plus",
    zero=math.inf,
    one=0.0,
    add=min,
    mul=lambda a, b: a + b,
    is_idempotent_add=True,
    eq=_float_eq,
)

#: Tropical max-plus semiring.
MAX_PLUS = Semiring(
    name="max-plus",
    zero=-math.inf,
    one=0.0,
    add=max,
    mul=lambda a, b: a + b,
    is_idempotent_add=True,
    eq=_float_eq,
)

#: Max-product (Viterbi) semiring over [0, 1].
MAX_TIMES = Semiring(
    name="max-times",
    zero=0.0,
    one=1.0,
    add=max,
    mul=lambda a, b: a * b,
    is_idempotent_add=True,
    eq=_float_eq,
)

#: GF(2) = F_2 (xor, and) — the field of the matrix-chain problem (Section 6).
GF2 = Semiring(
    name="gf2",
    zero=0,
    one=1,
    add=lambda a, b: (a ^ b) & 1,
    mul=lambda a, b: a & b,
)

#: All built-in semirings keyed by name.
BUILTIN_SEMIRINGS = {
    s.name: s
    for s in (BOOLEAN, COUNTING, REAL, MIN_PLUS, MAX_PLUS, MAX_TIMES, GF2)
}


def get_semiring(name: str) -> Semiring:
    """Look up a built-in semiring by name.

    Raises:
        KeyError: if ``name`` is not one of :data:`BUILTIN_SEMIRINGS`.
    """
    try:
        return BUILTIN_SEMIRINGS[name]
    except KeyError:
        known = ", ".join(sorted(BUILTIN_SEMIRINGS))
        raise KeyError(f"unknown semiring {name!r}; known: {known}") from None


def check_semiring_axioms(semiring: Semiring, samples) -> None:
    """Check the semiring axioms on a finite sample of domain elements.

    This is a testing utility: it checks commutativity, associativity,
    identities, distributivity and annihilation on every pair/triple drawn
    from ``samples``.  It raises rather than asserts, so it checks the
    same under ``python -O``.

    Raises:
        ValueError: on the first violated axiom, naming the axiom and the
            sample that violates it.
    """
    eq = semiring.eq
    add, mul = semiring.add, semiring.mul
    zero, one = semiring.zero, semiring.one
    samples = list(samples)

    def require(holds: bool, axiom: str, *sample) -> None:
        if not holds:
            raise ValueError(f"{semiring.name}: {axiom} for {sample!r}")

    for a in samples:
        require(eq(add(a, zero), a), "a+0 != a", a)
        require(eq(mul(a, one), a), "a*1 != a", a)
        require(eq(mul(a, zero), zero), "a*0 != 0", a)
        for b in samples:
            require(eq(add(a, b), add(b, a)), "+ not commutative", a, b)
            require(eq(mul(a, b), mul(b, a)), "* not commutative", a, b)
            for c in samples:
                require(
                    eq(add(add(a, b), c), add(a, add(b, c))),
                    "+ not associative", a, b, c,
                )
                require(
                    eq(mul(mul(a, b), c), mul(a, mul(b, c))),
                    "* not associative", a, b, c,
                )
                require(
                    eq(mul(a, add(b, c)), add(mul(a, b), mul(a, c))),
                    "* does not distribute over +", a, b, c,
                )
