"""FAQ query objects — the general FAQ problem of Section 5 / Appendix G.1.

An FAQ instance is a multi-hypergraph ``H = (V, E)`` with one input
function (factor) per hyperedge, a tuple of *free* variables ``F``, and one
aggregate operator per *bound* variable.  Each bound variable's operator is
either the semiring ``⊕`` itself (FAQ-SS), another operator forming a
commutative semiring with the same ``⊗`` and identities (a *semiring
aggregate*), or the product ``⊗`` itself (a *product aggregate*).

The answer is the function

    phi(x_F) = ⊕^{(l+1)} ... ⊕^{(n)}  ⊗_{e in E} f_e(x_e)

computed right-to-left over the bound-variable order.
"""

from __future__ import annotations

import copy
import dataclasses
import operator
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional, Sequence, Tuple

from ..hypergraph import Hypergraph
from ..semiring import (
    BOOLEAN,
    ColumnarFactor,
    Factor,
    Semiring,
    supports_columnar,
    to_backend,
    validate_backend,
)
from ..semiring.columnar import intern_factors


@dataclass(frozen=True)
class Aggregate:
    """One bound-variable operator ``⊕(i)``.

    Attributes:
        name: Identifier ("sum", "product", "max", ...).
        kind: ``"semiring"`` when ``(D, combine, ⊗)`` forms a commutative
            semiring sharing identities with the query's semiring (absent
            tuples then carry the identity 0 and may be skipped), or
            ``"product"`` when ``combine`` is ``⊗`` (the fold must then run
            over the full domain — absent tuples annihilate).
        combine: The binary operator; None means "use the query semiring's
            add (for kind=semiring) or mul (for kind=product)".
    """

    name: str
    kind: str = "semiring"
    combine: Optional[Callable[[Any, Any], Any]] = None

    def __post_init__(self) -> None:
        if self.kind not in ("semiring", "product"):
            raise ValueError(f"unknown aggregate kind {self.kind!r}")

    def resolve(self, semiring: Semiring) -> Callable[[Any, Any], Any]:
        """The concrete binary operator for this aggregate."""
        if self.combine is not None:
            return self.combine
        return semiring.mul if self.kind == "product" else semiring.add

    @property
    def needs_full_domain(self) -> bool:
        """Product aggregates must fold over every domain value."""
        return self.kind == "product"

    @property
    def is_plain_sum(self) -> bool:
        """The query semiring's own ⊕ (the FAQ-SS aggregate)."""
        return self.kind == "semiring" and self.combine is None


#: The default FAQ-SS aggregate: the semiring's own ⊕.
SUM = Aggregate("sum", "semiring")
#: The product aggregate ⊕(i) = ⊗.
PRODUCT = Aggregate("product", "product")


@dataclass
class FAQQuery:
    """A general FAQ instance (Appendix G.1 notation).

    Attributes:
        hypergraph: The query hypergraph ``H``; hyperedge names key factors.
        factors: One factor per hyperedge, with a schema whose variable
            *set* equals the hyperedge.
        domains: Full domain per variable (``Dom(v)``); needed for product
            aggregates, for the naive solver, and to compute ``D`` and
            per-tuple bit costs.
        free_vars: The free variables ``F`` (output schema, in order).
        semiring: The query semiring ``(D, ⊕, ⊗)``.
        aggregates: Operator per bound variable; missing entries default
            to :data:`SUM` (i.e. FAQ-SS on those variables).
        bound_order: Order in which bound variables are *listed*
            (``x_{l+1}, ..., x_n``); aggregation applies right-to-left, so
            solvers eliminate the last variable first.  Defaults to sorted
            bound variables.
        name: Optional label for reports.
        backend: Factor storage backend: ``"dict"`` (generic, the seed
            representation), ``"columnar"`` (vectorized NumPy data plane
            for the standard numeric semirings; factors over unsupported
            semirings stay dict), or ``None`` (default) to leave the
            supplied factors' storage untouched.
    """

    hypergraph: Hypergraph
    factors: Dict[str, Factor]
    domains: Dict[str, Tuple[Any, ...]]
    free_vars: Tuple[str, ...] = ()
    semiring: Semiring = BOOLEAN
    aggregates: Dict[str, Aggregate] = field(default_factory=dict)
    bound_order: Optional[Tuple[str, ...]] = None
    name: Optional[str] = None
    backend: Optional[str] = None

    def __post_init__(self) -> None:
        self.free_vars = tuple(self.free_vars)
        self.domains = {v: tuple(dom) for v, dom in self.domains.items()}
        if self.backend is not None:
            validate_backend(self.backend)
            self.factors = {
                n: to_backend(f, self.backend) for n, f in self.factors.items()
            }
        self.validate()
        # backend -> (what was converted, the converted query); see
        # :meth:`with_backend`.  Not a field: ``dataclasses.replace``
        # starts every copy with an empty one.
        self._converted: Dict[
            Optional[str], Tuple[Tuple[Any, ...], "FAQQuery"]
        ] = {}
        # (what was interned, the interned factors); see
        # :meth:`interned_factors`.
        self._interned: Optional[
            Tuple[Tuple[Any, ...], Mapping[str, Factor]]
        ] = None
        if self.bound_order is None:
            self.bound_order = tuple(sorted(self.bound_vars, key=str))
        else:
            self.bound_order = tuple(self.bound_order)
            if set(self.bound_order) != self.bound_vars:
                raise ValueError(
                    "bound_order must list exactly the bound variables; "
                    f"got {self.bound_order}, expected {sorted(self.bound_vars, key=str)}"
                )
        # What was normalized and validated above, for :meth:`with_backend`.
        self._validated = self._conversion_inputs()

    # ------------------------------------------------------------------
    # Derived structure
    # ------------------------------------------------------------------
    @property
    def variables(self) -> set:
        return self.hypergraph.vertices

    @property
    def bound_vars(self) -> set:
        return self.variables - set(self.free_vars)

    @property
    def num_relations(self) -> int:
        """``k`` in the paper's notation."""
        return self.hypergraph.num_edges

    @property
    def max_factor_size(self) -> int:
        """``N``: the largest listing size among the input functions."""
        return max((len(f) for f in self.factors.values()), default=0)

    @property
    def max_domain_size(self) -> int:
        """``D = max_v |Dom(v)|``."""
        return max((len(d) for d in self.domains.values()), default=0)

    @property
    def arity(self) -> int:
        """``r``: the maximum arity among the input functions."""
        return self.hypergraph.arity

    def bits_per_tuple(self) -> int:
        """The paper's per-round edge budget ``O(r * log2 D)`` in bits."""
        import math

        d = max(2, self.max_domain_size)
        return max(1, self.arity) * max(1, math.ceil(math.log2(d)))

    def aggregate_for(self, variable: str) -> Aggregate:
        """The operator for a bound variable (defaults to :data:`SUM`)."""
        if variable in self.free_vars:
            raise ValueError(f"{variable!r} is free; it has no aggregate")
        return self.aggregates.get(variable, SUM)

    def is_faq_ss(self) -> bool:
        """True when every bound variable uses the same semiring ⊕ (FAQ-SS)."""
        return all(self.aggregate_for(v).is_plain_sum for v in self.bound_vars)

    def with_backend(self, backend: Optional[str]) -> "FAQQuery":
        """This query with factors stored in ``backend``.

        ``"dict"`` / ``"columnar"`` normalize every factor to that storage
        (columnar conversion skips factors over unsupported semirings);
        ``None`` leaves factor storage untouched.  Returns ``self`` when
        the backend already matches.

        The converted query is built once per backend and kept on this
        instance, so it lives exactly as long as the query it was
        converted from; every later call returns that same object, which
        callers share read-only.  Each call first checks, by
        identity and in O(k + |V|), that every field still holds what was
        converted: a caller who has since replaced, added or removed a
        factor (or a domain, or any other field) gets a fresh conversion,
        never a stale one.  Rows edited *inside* a factor are not seen —
        a factor handed to a query is immutable by convention.

        Conversion keeps every row, so while the fields hold what
        construction validated, the conversion is not validated again;
        after a change it is built and validated as a fresh query.
        """
        if backend == self.backend:
            return self
        inputs = self._conversion_inputs()
        kept = self._converted.get(backend)
        if kept is not None and _same_objects(kept[0], inputs):
            return kept[1]
        if not _same_objects(self._validated, inputs):
            converted = dataclasses.replace(self, backend=backend)
        else:
            # Storage only: the fields construction normalized and
            # validated, over fresh containers.
            converted = copy.copy(self)
            converted.__dict__.update(
                backend=None if backend is None else validate_backend(backend),
                factors={
                    n: f if backend is None else to_backend(f, backend)
                    for n, f in self.factors.items()
                },
                domains=dict(self.domains),
                aggregates=dict(self.aggregates),
                _converted={},
                _interned=None,
            )
        self._converted[backend] = (inputs, converted)
        return converted

    def interned_factors(self) -> Mapping[str, Factor]:
        """The factors the compiled consumers read (the compiled solver,
        the compiled engine's star pass and pricing): when every factor
        is columnar over a semiring with a vector profile, re-coded so
        that all columns of one variable share one dictionary object
        (:func:`~repro.semiring.columnar.intern_factors`); otherwise
        :attr:`factors` itself.  The operator solver and the generator
        engine, the references, read :attr:`factors`.

        Made once and kept on this instance, checked and rebuilt the way
        :meth:`with_backend` keeps its conversion.  Fires no counter:
        the first plane that asks pays for it, so a count would depend
        on plane order.
        """
        inputs = self._conversion_inputs()
        kept = self._interned
        if kept is None or not _same_objects(kept[0], inputs):
            factors: Mapping[str, Factor] = self.factors
            if supports_columnar(self.semiring) and all(
                isinstance(f, ColumnarFactor) for f in factors.values()
            ):
                factors = intern_factors(factors)
            kept = self._interned = (inputs, factors)
        return kept[1]

    def _conversion_inputs(self) -> Tuple[Any, ...]:
        """Every object a conversion reads, flat, for an identity check."""
        inputs = [
            self.hypergraph, self.semiring, self.free_vars,
            self.bound_order, self.name,
        ]
        for mapping in (self.factors, self.domains, self.aggregates):
            inputs.extend(mapping)
            inputs.extend(mapping.values())
        return tuple(inputs)

    def elimination_order(self) -> Tuple[str, ...]:
        """Bound variables in the order solvers eliminate them.

        Aggregation is applied right-to-left over ``bound_order``; for pure
        FAQ-SS any order is valid (Theorem G.1) but we keep the listed one
        so mixed-operator queries are always evaluated correctly.
        """
        return tuple(reversed(self.bound_order))

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check schema/domain consistency.

        The domain check — every value a factor lists for ``v`` lies in
        ``Dom(v)`` — is the only part that looks at rows, and it looks
        once: one set per distinct domain tuple, and per (factor,
        variable) that factor's :meth:`~Factor.active_domain` (on a
        columnar factor a used-code mask over the dictionary, not a scan
        of decoded rows) minus that set.

        Raises:
            ValueError: on a missing factor, a factor/hyperedge schema
                mismatch, an unknown free variable, a domain violation, or
                a factor over a different semiring.
        """
        edge_names = set(self.hypergraph.edge_names)
        if set(self.factors) != edge_names:
            raise ValueError(
                f"factors {sorted(self.factors)} do not match hyperedges "
                f"{sorted(edge_names)}"
            )
        for name, factor in self.factors.items():
            if set(factor.schema) != set(self.hypergraph.edge(name)):
                raise ValueError(
                    f"factor {name!r} schema {factor.schema} does not match "
                    f"hyperedge {sorted(self.hypergraph.edge(name), key=str)}"
                )
            if factor.semiring.name != self.semiring.name:
                raise ValueError(
                    f"factor {name!r} uses semiring {factor.semiring.name!r} "
                    f"but the query uses {self.semiring.name!r}"
                )
        unknown_free = set(self.free_vars) - self.variables
        if unknown_free:
            raise ValueError(f"free variables not in H: {sorted(unknown_free, key=str)}")
        missing_domains = self.variables - set(self.domains)
        if missing_domains:
            raise ValueError(
                f"variables without domains: {sorted(missing_domains, key=str)}"
            )
        # One set per distinct domain tuple, not per (factor, variable).
        # Keyed on id(): every key is a value of ``self.domains``, which
        # holds it for the whole call, so no id can be reused under us.
        domain_sets: Dict[int, set] = {}
        for dom in self.domains.values():
            if id(dom) not in domain_sets:
                domain_sets[id(dom)] = set(dom)
        for name, factor in self.factors.items():
            for var in factor.schema:
                dom = domain_sets[id(self.domains[var])]
                extra = factor.active_domain(var) - dom
                if extra:
                    raise ValueError(
                        f"factor {name!r} has values outside Dom({var!r}): "
                        f"{sorted(extra, key=str)[:5]}"
                    )
        unknown_aggs = set(self.aggregates) - self.variables
        if unknown_aggs:
            raise ValueError(
                f"aggregates for unknown variables: {sorted(unknown_aggs, key=str)}"
            )
        free_aggs = set(self.aggregates) & set(self.free_vars)
        if free_aggs:
            raise ValueError(
                f"aggregates declared for free variables: {sorted(free_aggs, key=str)}"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = self.name or "FAQQuery"
        return (
            f"<{label} k={self.num_relations} N={self.max_factor_size} "
            f"free={self.free_vars} semiring={self.semiring.name}>"
        )


def _same_objects(a: Tuple[Any, ...], b: Tuple[Any, ...]) -> bool:
    """Element-wise identity of two flat tuples."""
    return len(a) == len(b) and all(map(operator.is_, a, b))


# ---------------------------------------------------------------------------
# Convenience constructors for the paper's special cases
# ---------------------------------------------------------------------------


def bcq(
    hypergraph: Hypergraph,
    relations: Mapping[str, Factor],
    domains: Mapping[str, Sequence[Any]],
    name: Optional[str] = None,
    backend: Optional[str] = None,
) -> FAQQuery:
    """A Boolean Conjunctive Query: ``F = ∅`` over the Boolean semiring."""
    factors = {
        n: (f if f.is_boolean() else f.with_semiring(BOOLEAN))
        for n, f in relations.items()
    }
    return FAQQuery(
        hypergraph=hypergraph,
        factors=dict(factors),
        domains=dict(domains),
        free_vars=(),
        semiring=BOOLEAN,
        name=name or "BCQ",
        backend=backend,
    )


def natural_join_query(
    hypergraph: Hypergraph,
    relations: Mapping[str, Factor],
    domains: Mapping[str, Sequence[Any]],
    name: Optional[str] = None,
    backend: Optional[str] = None,
) -> FAQQuery:
    """The natural join: ``F = V`` over the Boolean semiring (footnote 4)."""
    factors = {
        n: (f if f.is_boolean() else f.with_semiring(BOOLEAN))
        for n, f in relations.items()
    }
    return FAQQuery(
        hypergraph=hypergraph,
        factors=dict(factors),
        domains=dict(domains),
        free_vars=tuple(sorted(hypergraph.vertices, key=str)),
        semiring=BOOLEAN,
        name=name or "NaturalJoin",
        backend=backend,
    )


def marginal_query(
    hypergraph: Hypergraph,
    factors: Mapping[str, Factor],
    domains: Mapping[str, Sequence[Any]],
    free_vars: Sequence[str],
    semiring: Semiring,
    name: Optional[str] = None,
    backend: Optional[str] = None,
) -> FAQQuery:
    """An FAQ-SS marginal, e.g. a PGM factor marginal with ``F = e``."""
    return FAQQuery(
        hypergraph=hypergraph,
        factors=dict(factors),
        domains=dict(domains),
        free_vars=tuple(free_vars),
        semiring=semiring,
        name=name or "Marginal",
        backend=backend,
    )
