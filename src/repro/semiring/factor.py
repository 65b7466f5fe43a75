"""Factors: semiring-annotated relations in listing representation.

The paper (Section 1) represents each input function
``f_e : prod_{v in e} Dom(v) -> D`` as the list of its non-zero values

    R_e = {(y, f_e(y)) | y in prod Dom(v), f_e(y) != 0}.

:class:`Factor` is exactly that: a schema (ordered tuple of variable names)
plus a dict mapping value-tuples to non-zero semiring annotations.  A plain
relation is a Boolean factor (every present tuple annotated ``True``).

This dict storage is the ``"dict"`` *backend*: fully generic over hashable
domains and arbitrary semirings.  The vectorized ``"columnar"`` backend
(:class:`~repro.semiring.columnar.ColumnarFactor`, a subclass with the same
public surface) stores rows as per-variable NumPy code arrays; convert
between the two with :func:`repro.semiring.backend.to_backend`.
"""

from __future__ import annotations

from typing import Any, Collection, Dict, Iterable, Iterator, Mapping, Sequence, Tuple

from .semirings import BOOLEAN, Semiring

Tuple_ = Tuple[Any, ...]


class Factor:
    """An annotated relation over a fixed schema.

    Args:
        schema: Ordered, duplicate-free variable names.
        rows: Mapping (or iterable of pairs) from value tuples to
            annotations.  Tuples annotated with the semiring zero are
            dropped, keeping the listing representation canonical.
        semiring: The annotation semiring; defaults to Boolean.
        name: Optional relation name (e.g. ``"R"``); used in reprs and by
            the distributed protocols to identify which player holds what.
    """

    __slots__ = ("schema", "rows", "semiring", "name")

    def __init__(
        self,
        schema: Sequence[str],
        rows: Mapping[Tuple_, Any] | Iterable[Tuple[Tuple_, Any]] = (),
        semiring: Semiring = BOOLEAN,
        name: str | None = None,
    ) -> None:
        schema = tuple(schema)
        if len(set(schema)) != len(schema):
            raise ValueError(f"schema has duplicate variables: {schema}")
        self.schema: Tuple[str, ...] = schema
        self.semiring = semiring
        self.name = name
        items = rows.items() if isinstance(rows, Mapping) else rows
        cleaned: Dict[Tuple_, Any] = {}
        for key, value in items:
            key = tuple(key)
            if len(key) != len(schema):
                raise ValueError(
                    f"tuple {key!r} does not match schema {schema} (arity mismatch)"
                )
            if not semiring.is_zero(value):
                if key in cleaned:
                    # Listing representation has one entry per tuple;
                    # duplicates are combined additively.
                    cleaned[key] = semiring.add(cleaned[key], value)
                else:
                    cleaned[key] = value
        self.rows: Dict[Tuple_, Any] = cleaned

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_tuples(
        cls,
        schema: Sequence[str],
        tuples: Iterable[Tuple_],
        semiring: Semiring = BOOLEAN,
        name: str | None = None,
    ) -> "Factor":
        """Build a factor where every listed tuple is annotated ``one``."""
        one = semiring.one
        return cls(schema, ((tuple(t), one) for t in tuples), semiring, name)

    @classmethod
    def constant_one(
        cls,
        schema: Sequence[str],
        domains: Mapping[str, Sequence[Any]],
        semiring: Semiring = BOOLEAN,
        name: str | None = None,
    ) -> "Factor":
        """The all-ones factor over the full product domain of ``schema``.

        Used by lower-bound embeddings, e.g. the ``[N] x {1}`` filler
        relations of Lemma 4.3.
        """
        import itertools

        cols = [domains[v] for v in schema]
        return cls.from_tuples(schema, itertools.product(*cols), semiring, name)

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Tuple[Tuple_, Any]]:
        return iter(self.rows.items())

    def __contains__(self, key: Tuple_) -> bool:
        return tuple(key) in self.rows

    def __call__(self, key: Tuple_) -> Any:
        """Evaluate the underlying function: zero for absent tuples."""
        return self.rows.get(tuple(key), self.semiring.zero)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Factor):
            return NotImplemented
        if self.schema != other.schema or self.semiring.name != other.semiring.name:
            return False
        if set(self.rows) != set(other.rows):
            return False
        eq = self.semiring.eq
        return all(eq(v, other.rows[k]) for k, v in self.rows.items())

    def __hash__(self):  # Factors are mutable-ish containers; not hashable.
        raise TypeError("Factor objects are unhashable")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = self.name or "Factor"
        return (
            f"<{label}({', '.join(self.schema)}) |rows|={len(self.rows)} "
            f"semiring={self.semiring.name}>"
        )

    @property
    def arity(self) -> int:
        """Number of variables in the schema (paper's ``r`` per relation)."""
        return len(self.schema)

    @property
    def backend(self) -> str:
        """Storage backend name (``"dict"`` here; ``"columnar"`` on the
        NumPy-backed subclass)."""
        return "dict"

    def column_index(self, var: str) -> int:
        """Position of ``var`` in the schema.

        Raises:
            KeyError: if ``var`` is not in the schema.
        """
        try:
            return self.schema.index(var)
        except ValueError:
            raise KeyError(f"variable {var!r} not in schema {self.schema}") from None

    def active_domain(self, var: str) -> set:
        """Values of ``var`` that appear in some listed tuple."""
        i = self.column_index(var)
        return {t[i] for t in self.rows}

    def used_values(self, var: str) -> Collection:
        """The :meth:`active_domain`, each value at least once, but not
        necessarily as a set (the cheapest form a backend has)."""
        return self.active_domain(var)

    def size_bits(self, bits_per_tuple: int) -> int:
        """Total size in bits under a fixed per-tuple encoding.

        The paper charges ``O(r * log2 D)`` bits per tuple; callers supply
        that constant so protocols can account communication exactly.
        """
        return len(self.rows) * bits_per_tuple

    # ------------------------------------------------------------------
    # Simple transformations (heavier algebra lives in repro.faq.operations)
    # ------------------------------------------------------------------
    def rename(self, mapping: Mapping[str, str], name: str | None = None) -> "Factor":
        """Return a copy with schema variables renamed via ``mapping``."""
        new_schema = tuple(mapping.get(v, v) for v in self.schema)
        out = Factor(new_schema, semiring=self.semiring, name=name or self.name)
        out.rows = dict(self.rows)
        return out

    def with_semiring(self, semiring: Semiring, convert=None) -> "Factor":
        """Reinterpret annotations in another semiring.

        Args:
            semiring: Target semiring.
            convert: Optional per-annotation conversion; defaults to mapping
                every (non-zero) annotation to the target ``one`` — i.e. the
                canonical relation->factor lifting of Appendix G.4.
        """
        if convert is None:
            convert = lambda _value: semiring.one  # noqa: E731
        return Factor(
            self.schema,
            ((t, convert(v)) for t, v in self.rows.items()),
            semiring,
            self.name,
        )

    def project_tuple(self, row: Tuple_, variables: Sequence[str]) -> Tuple_:
        """Project one value tuple onto ``variables`` (paper's ``pi_S(t)``)."""
        idx = [self.column_index(v) for v in variables]
        return tuple(row[i] for i in idx)

    def is_boolean(self) -> bool:
        """True when annotated in the Boolean semiring."""
        return self.semiring.name == BOOLEAN.name

    def tuples(self) -> Iterator[Tuple_]:
        """Iterate value tuples (ignoring annotations)."""
        return iter(self.rows)

    def copy(self, name: str | None = None) -> "Factor":
        """Shallow copy (rows dict is copied; values are shared)."""
        out = Factor(self.schema, semiring=self.semiring, name=name or self.name)
        out.rows = dict(self.rows)
        return out
