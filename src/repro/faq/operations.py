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

The dict path reads every row key with one C-level ``itemgetter``
(:func:`_row_key`), drops a zero annotation where it is produced, and
builds each result through :func:`_listing`.  :func:`join_marginalize`
is one variable-elimination step: its last join folds each product
straight into its ⊕ group instead of listing the joined factor first.
None of the dict path uses the columnar kernels or :mod:`repro.kernels`,
so it stays an independent oracle for them.
"""

from __future__ import annotations

from operator import itemgetter
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


def _row_key(positions: Sequence[int]) -> Callable[[Tuple_], Tuple_]:
    """``row -> tuple(row[i] for i in positions)``, at C speed.

    ``itemgetter`` returns a tuple only for two or more positions, so one
    position and none are spelled out.
    """
    if len(positions) > 1:
        return itemgetter(*positions)
    if positions:
        (i,) = positions
        return lambda row: (row[i],)
    return lambda row: ()


def _listing(
    schema: Sequence[str],
    pairs: Iterable[Tuple[Tuple_, Any]],
    semiring: Semiring,
    name: str | None,
) -> Factor:
    """The factor listing ``(row, value)`` pairs, zero annotations dropped.

    Every dict kernel here emits rows that are already unique tuples of
    ``schema``'s arity, so ``Factor.__init__``'s arity and duplicate
    checks hold by construction and are skipped.  ``pairs`` is consumed
    lazily: a join's zero product is dropped as it is produced.
    """
    out = Factor(schema, (), semiring, name)
    is_zero = semiring.is_zero
    out.rows = {row: value for row, value in pairs if not is_zero(value)}
    return out


def _columnar_join(left: Factor, right: Factor, name: str | None = None):
    """``left ⋈ right`` on the vectorized kernel, or ``None`` when the
    dict path must run (counted either way).

    Raises:
        ValueError: if the factors use different semirings.
    """
    if left.semiring.name != right.semiring.name:
        raise ValueError(
            f"cannot join factors over semirings "
            f"{left.semiring.name!r} and {right.semiring.name!r}"
        )
    if _columnar_operands(left, right):
        out = columnar_join(left, right, name)
        if out is not None:
            COUNTERS.increment("kernel.columnar")
            return out
    COUNTERS.increment("kernel.dict_fallback")
    return None


def _hash_join(left: Factor, right: Factor):
    """The dict join's plan: index the smaller side on the shared variables.

    Returns ``(schema, source, index, probe, probe_key)``: the output
    schema (``left``'s variables, then ``right``'s new ones); ``source``,
    each output variable's position in ``probe_row + build_row``; the
    build rows bucketed by shared-variable key in build order; the probe
    side and its key.  Products come out probe-major, in bucket order.
    """
    shared = tuple(v for v in left.schema if v in right.schema)
    if len(right) < len(left):
        build, probe = right, left
    else:
        build, probe = left, right
    build_key = _row_key([build.column_index(v) for v in shared])
    index: Dict[Tuple_, list] = {}
    for row, value in build:
        index.setdefault(build_key(row), []).append((row, value))
    source = {v: i for i, v in enumerate(probe.schema)}
    for i, v in enumerate(build.schema):
        source.setdefault(v, probe.arity + i)
    probe_key = _row_key([probe.column_index(v) for v in shared])
    return _merged_schema(left.schema, right.schema), source, index, probe, probe_key


def join(left: Factor, right: Factor, name: str | None = None) -> Factor:
    """Natural join with semiring-multiplied annotations.

    For Boolean factors this is Definition 3.4; in general it is the ⊗ of
    two functions viewed over the union schema.

    Raises:
        ValueError: if the factors use different semirings.
    """
    out = _columnar_join(left, right, name)
    if out is not None:
        return out
    semiring = left.semiring
    schema, source, index, probe, probe_key = _hash_join(left, right)
    out_row = _row_key([source[v] for v in schema])
    mul = semiring.mul
    products = (
        (out_row(prow + brow), mul(pval, bval))
        for prow, pval in probe
        for brow, bval in index.get(probe_key(prow), ())
    )
    return _listing(schema, products, semiring, name)


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


def join_marginalize(
    parts: Sequence[Factor],
    variable: str,
    combine: Callable[[Any, Any], Any],
) -> Factor:
    """One elimination step: ``marginalize(multi_join(parts), variable,
    combine)`` for an aggregate that needs no full-domain fold.

    All parts but the last are joined as :func:`multi_join` joins them.
    When the last join takes the dict path, each of its products is
    folded straight into the ⊕ group keyed by the output row minus
    ``variable``, in the order the joined factor would have listed it, so
    a float ⊕ folds bit for bit as before; the step is counted as the
    join plus the marginalize it replaces.  Only the last join fuses:
    an earlier one picks its build side by the size of its result.

    Raises:
        KeyError: if no part has ``variable``.
        ValueError: if the parts use different semirings.
    """
    if len(parts) == 1:
        return marginalize(parts[0], variable, combine)
    left, right = multi_join(parts[:-1]), parts[-1]
    joined = _columnar_join(left, right)
    if joined is not None:
        return marginalize(joined, variable, combine)
    COUNTERS.increment("kernel.dict_fallback")
    semiring = left.semiring
    schema, source, index, probe, probe_key = _hash_join(left, right)
    if variable not in source:
        raise KeyError(f"variable {variable!r} not in schema {schema}")
    out_schema = tuple(v for v in schema if v != variable)
    group_key = _row_key([source[v] for v in out_schema])
    mul, is_zero = semiring.mul, semiring.is_zero
    groups: Dict[Tuple_, Any] = {}
    for prow, pval in probe:
        for brow, bval in index.get(probe_key(prow), ()):
            value = mul(pval, bval)
            if is_zero(value):
                continue
            key = group_key(prow + brow)
            groups[key] = combine(groups[key], value) if key in groups else value
    return _listing(out_schema, groups.items(), semiring, None)


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
    right_key = _row_key([right.column_index(v) for v in shared])
    right_keys = set(map(right_key, right.tuples()))
    left_key = _row_key([left.column_index(v) for v in shared])
    kept = ((row, value) for row, value in left if left_key(row) in right_keys)
    return _listing(left.schema, kept, left.semiring, name)


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
    key_of = _row_key([factor.column_index(v) for v in variables])
    add = factor.semiring.add
    rows: Dict[Tuple_, Any] = {}
    for row, value in factor:
        key = key_of(row)
        rows[key] = add(rows[key], value) if key in rows else value
    return _listing(variables, rows.items(), factor.semiring, name)


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
    key_of = _row_key([i for i in range(factor.arity) if i != var_idx])

    if full_domain is None:
        rows: Dict[Tuple_, Any] = {}
        for row, value in factor:
            key = key_of(row)
            rows[key] = combine(rows[key], value) if key in rows else value
        return _listing(out_schema, rows.items(), semiring, name)

    # Full-domain fold: group rows, then fold over every domain value.
    groups: Dict[Tuple_, Dict[Any, Any]] = {}
    for row, value in factor:
        groups.setdefault(key_of(row), {})[row[var_idx]] = value
    rows = {}
    zero = semiring.zero
    domain = list(full_domain)
    for key, present in groups.items():
        it = iter(domain)
        acc = present.get(next(it), zero)
        for dom_value in it:
            acc = combine(acc, present.get(dom_value, zero))
        rows[key] = acc
    return _listing(out_schema, rows.items(), semiring, name)


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
