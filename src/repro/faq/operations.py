"""Factor algebra: join, semijoin, projection and ⊕-marginalization.

These are the relational/semiring operators the paper builds on:
natural join (Definition 3.4), semijoin (Definition 3.5), projection
``pi_S`` and the aggregate push-down of Theorem G.1 / Corollary G.2.

Each operator dispatches on the operands' storage backend: when every
operand is a :class:`~repro.semiring.columnar.ColumnarFactor` (and, for
marginalization, the aggregate is the semiring's own ⊕ without a
full-domain fold), the vectorized kernels of
:mod:`repro.semiring.columnar` run; otherwise the generic dict path below
does, which accepts any mix of backends, semirings and aggregates.  Both
paths produce the same canonical listing representation.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, Sequence, Tuple

from ..obs.counters import COUNTERS
from ..semiring import ColumnarFactor, Factor, Semiring, supports_columnar, to_backend
from ..semiring.semirings import fold_repeat
from ..semiring.columnar import (
    columnar_join,
    columnar_marginalize,
    columnar_project,
    columnar_semijoin,
)

Tuple_ = Tuple[Any, ...]


def _columnar_operands(*factors: Factor) -> bool:
    """True when every operand can take the vectorized path."""
    return all(isinstance(f, ColumnarFactor) for f in factors) and supports_columnar(
        factors[0].semiring
    )


def _merged_schema(a: Sequence[str], b: Sequence[str]) -> Tuple[str, ...]:
    return tuple(a) + tuple(v for v in b if v not in a)


def join(left: Factor, right: Factor, name: str | None = None) -> Factor:
    """Natural join with semiring-multiplied annotations.

    For Boolean factors this is Definition 3.4; in general it is the ⊗ of
    two functions viewed over the union schema.

    Raises:
        ValueError: if the factors use different semirings.
    """
    if left.semiring.name != right.semiring.name:
        raise ValueError(
            f"cannot join factors over semirings "
            f"{left.semiring.name!r} and {right.semiring.name!r}"
        )
    semiring = left.semiring
    if _columnar_operands(left, right):
        out = columnar_join(left, right, name)
        if out is not None:
            COUNTERS.increment("kernel.columnar")
            return out
    COUNTERS.increment("kernel.dict_fallback")
    shared = tuple(v for v in left.schema if v in right.schema)
    out_schema = _merged_schema(left.schema, right.schema)

    # Hash join: index the smaller side on the shared variables.
    if len(right) < len(left):
        build, probe = right, left
    else:
        build, probe = left, right
    build_key_idx = [build.column_index(v) for v in shared]
    probe_key_idx = [probe.column_index(v) for v in shared]
    index: Dict[Tuple_, list] = {}
    for row, value in build:
        key = tuple(row[i] for i in build_key_idx)
        index.setdefault(key, []).append((row, value))

    # Positions to assemble the output tuple from (probe row, build row).
    out_rows: Dict[Tuple_, Any] = {}
    # Output order must follow out_schema: compute per-variable source.
    sources = []
    for v in out_schema:
        if v in probe.schema:
            sources.append(("p", probe.column_index(v)))
        else:
            sources.append(("b", build.column_index(v)))
    mul = semiring.mul
    for prow, pval in probe:
        key = tuple(prow[i] for i in probe_key_idx)
        for brow, bval in index.get(key, ()):
            out = tuple(
                prow[i] if side == "p" else brow[i] for side, i in sources
            )
            val = mul(pval, bval)
            if out in out_rows:
                out_rows[out] = semiring.add(out_rows[out], val)
            else:
                out_rows[out] = val
    return Factor(out_schema, out_rows, semiring, name)


def multi_join(factors: Iterable[Factor], name: str | None = None) -> Factor:
    """Join a sequence of factors left to right.

    Raises:
        ValueError: on an empty sequence (there is no universal schema).
    """
    factors = list(factors)
    if not factors:
        raise ValueError("multi_join requires at least one factor")
    acc = factors[0]
    for f in factors[1:]:
        acc = join(acc, f)
    if name is not None:
        acc = acc.copy(name=name)
    return acc


def semijoin(left: Factor, right: Factor, name: str | None = None) -> Factor:
    """Semijoin ``left ⋉ right`` (Definition 3.5).

    Keeps the tuples of ``left`` whose projection onto the shared
    variables appears in ``right``; annotations of ``left`` are preserved
    (the paper's usage is Boolean filtering, e.g. Examples 2.1–2.2).
    """
    if _columnar_operands(left, right):
        out = columnar_semijoin(left, right, name)
        if out is not None:
            COUNTERS.increment("kernel.columnar")
            return out
    COUNTERS.increment("kernel.dict_fallback")
    shared = tuple(v for v in left.schema if v in right.schema)
    if not shared:
        # Degenerate: R1 ⋈ pi_∅(R2) — empty right empties left.
        if len(right) == 0:
            return Factor(left.schema, (), left.semiring, name)
        return left.copy(name=name)
    right_keys = {right.project_tuple(row, shared) for row in right.tuples()}
    left_idx = [left.column_index(v) for v in shared]
    rows = {
        row: value
        for row, value in left
        if tuple(row[i] for i in left_idx) in right_keys
    }
    return Factor(left.schema, rows, left.semiring, name)


def project(factor: Factor, variables: Sequence[str], name: str | None = None) -> Factor:
    """Projection ``pi_variables`` with ⊕-combined annotations.

    For Boolean factors this is classic duplicate-eliminating projection
    (used by the star protocol of Example 2.2: ``pi_A(R)``); in general
    duplicate images are combined with the semiring's ``add``.
    """
    variables = tuple(variables)
    if _columnar_operands(factor):
        out = columnar_project(factor, variables, name)
        if out is not None:
            COUNTERS.increment("kernel.columnar")
            return out
    COUNTERS.increment("kernel.dict_fallback")
    idx = [factor.column_index(v) for v in variables]
    semiring = factor.semiring
    rows: Dict[Tuple_, Any] = {}
    for row, value in factor:
        key = tuple(row[i] for i in idx)
        if key in rows:
            rows[key] = semiring.add(rows[key], value)
        else:
            rows[key] = value
    return Factor(variables, rows, semiring, name)


def marginalize(
    factor: Factor,
    variable: str,
    combine: Callable[[Any, Any], Any] | None = None,
    full_domain: Sequence[Any] | None = None,
    name: str | None = None,
) -> Factor:
    """Aggregate ``variable`` out of ``factor``.

    Args:
        factor: The input factor; ``variable`` must be in its schema.
        combine: The aggregate operator ``⊕(i)``.  Defaults to the
            semiring's ``add``.  Any *semiring aggregate* (an operator
            forming a semiring with the same ⊗ and additive identity 0,
            per the general FAQ definition) may skip absent tuples, since
            they carry the shared identity.
        full_domain: Must be supplied for *product aggregates* (⊕ = ⊗) or
            any operator whose identity is not the semiring zero: the fold
            then runs left-to-right over ``full_domain`` *in the given
            order*, with absent tuples contributing the semiring zero
            (annihilating a product).  For a non-commutative or
            non-associative ``combine`` the result therefore depends on the
            order of ``full_domain``; callers must pass the domain in the
            order the aggregate is meant to fold (semiring aggregates and
            product aggregates are commutative, so the paper's queries are
            insensitive to it).
        name: Optional output name.

    Returns:
        A factor over the schema without ``variable``.
    """
    semiring = factor.semiring
    if (
        full_domain is None
        and (combine is None or combine is semiring.add)
        and _columnar_operands(factor)
    ):
        out = columnar_marginalize(factor, variable, name)
        if out is not None:
            COUNTERS.increment("kernel.columnar")
            return out
    COUNTERS.increment("kernel.dict_fallback")
    combine = combine or semiring.add
    var_idx = factor.column_index(variable)
    out_schema = tuple(v for v in factor.schema if v != variable)

    if full_domain is None:
        rows: Dict[Tuple_, Any] = {}
        for row, value in factor:
            key = row[:var_idx] + row[var_idx + 1:]
            if key in rows:
                rows[key] = combine(rows[key], value)
            else:
                rows[key] = value
        return Factor(out_schema, rows, semiring, name)

    # Full-domain fold: group rows, then fold over every domain value.
    groups: Dict[Tuple_, Dict[Any, Any]] = {}
    for row, value in factor:
        key = row[:var_idx] + row[var_idx + 1:]
        groups.setdefault(key, {})[row[var_idx]] = value
    rows = {}
    zero = semiring.zero
    domain = list(full_domain)
    for key, present in groups.items():
        it = iter(domain)
        acc = present.get(next(it), zero)
        for dom_value in it:
            acc = combine(acc, present.get(dom_value, zero))
        rows[key] = acc
    return Factor(out_schema, rows, semiring, name)


def aggregate_absent_variable(
    factor: Factor,
    combine: Callable[[Any, Any], Any],
    domain_size: int,
) -> Factor:
    """Aggregate out a variable that does not occur in ``factor``.

    Summing a bound variable absent from every factor multiplies each
    annotation by the domain size *in the aggregate's sense*: a fold of
    ``|Dom|`` copies of the value under ``combine`` (for a product
    aggregate, the value to the power ``|Dom|``).
    """
    if domain_size < 1:
        raise ValueError("domain_size must be positive")
    semiring = factor.semiring

    if combine is semiring.add:
        # The semiring's own fold gets the idempotent-add shortcut.
        scale = lambda value: semiring.sum_repeat(value, domain_size)  # noqa: E731
    else:
        # Any other FAQ aggregate is associative and commutative, so the
        # O(log |Dom|) double-and-add fold applies.
        scale = lambda value: fold_repeat(combine, value, domain_size)  # noqa: E731

    rows = {row: scale(value) for row, value in factor}
    out = Factor(factor.schema, rows, semiring, factor.name)
    # Per-row scaling is inherently scalar work, but keep the result on the
    # input's backend so a columnar pipeline stays columnar afterwards.
    return to_backend(out, factor.backend)


def scalar(semiring: Semiring, value: Any) -> Factor:
    """A zero-arity factor holding one value (a query answer)."""
    return Factor((), {(): value} if not semiring.is_zero(value) else {}, semiring)


def scalar_value(factor: Factor) -> Any:
    """Read the value of a zero-arity factor (semiring zero when empty).

    Raises:
        ValueError: if the factor still has variables.
    """
    if factor.schema:
        raise ValueError(f"factor still has free variables: {factor.schema}")
    return factor.rows.get((), factor.semiring.zero)
