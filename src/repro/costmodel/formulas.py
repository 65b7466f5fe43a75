"""Symbolic cost formulas — the structural closed forms.

Model 2.1 charges one direction of one edge at most ``B`` bits per
round; what the protocol sends over a link is fully determined by the
plan skeleton, so three of the four cost metrics have *timing-free*
closed forms:

* **Scatter** (Algorithm 1 over a packing tree): every tree edge carries
  the 32-bit count header downstream plus all ``k_j`` slice tuples at
  ``b_t`` bits each — ``H + k_j * b_t`` per edge, whatever the
  pipelining does round by round.
* **⊗-convergecast** (footnote 24): every non-root tree node pushes
  exactly ``k_j`` slot values at ``b_v`` bits to its parent.
* **Final routing** (Lemma 3.1): the link ``v -> parent(v)`` carries
  every payload item originating in ``v``'s routing subtree, at
  ``b_t + b_v`` bits each (bit framing lets an item straddle rounds
  and never pads one), plus one 1-bit EOS per non-sink participant.

``rounds`` and ``max_edge_bits_per_round`` depend on *when* those bits
move; they come from the timing recurrence ρ
(:func:`repro.protocols.timing.evaluate_timing`), with closed forms
below for the kernels simple enough to admit one (two-party routing,
silent placements).  The expressions are built on
:mod:`repro.costmodel.expr` — exact integer algebra, printable, and
exportable to sympy when installed.

Symbols: ``B`` (capacity), ``b_t`` (bits per tuple), ``b_v`` (bits per
value), ``H`` (header bits), ``k{s}_{j}`` (slot count of star ``s``,
packing tree ``j``), ``P_{node}`` (final payload items originating at
``node``), and in the kernel table ``E`` (tree edges), ``k`` (slots),
``P`` (payload items), ``L`` (path hops).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .expr import Expr, Sym, add, const, floordiv, max_, mul, sym
from ..protocols.schedule import EOS_BITS, HEADER_BITS
from ..protocols.timing import CostSkeleton

B = sym("B")
b_t = sym("b_t")
b_v = sym("b_v")
H = sym("H")


def count_symbol(star_id: int, j: int) -> Sym:
    """``k{s}_{j}``: slots of star ``star_id``'s packing tree ``j``."""
    return sym(f"k{star_id}_{j}")


def payload_symbol(node: str) -> Sym:
    """``P_{node}``: final-phase payload items originating at ``node``."""
    return sym(f"P_{node}")


def symbolic_environment(skeleton: CostSkeleton) -> Dict[str, int]:
    """The concrete values of every symbol, from the skeleton."""
    env: Dict[str, int] = {
        "B": skeleton.capacity,
        "b_t": skeleton.tuple_bits,
        "b_v": skeleton.value_bits,
        "H": HEADER_BITS,
    }
    for star in skeleton.stars:
        for j, count in enumerate(star.counts):
            env[count_symbol(star.star_id, j).name] = count
    for node, count in skeleton.route.payload_counts.items():
        env[payload_symbol(node).name] = count
    return env


def symbolic_bits_per_edge(
    skeleton: CostSkeleton,
) -> Dict[Tuple[str, str], Expr]:
    """Exact per-directed-link bit totals, as symbolic expressions."""
    terms: Dict[Tuple[str, str], List[Expr]] = {}

    def accumulate(link: Tuple[str, str], term: Expr) -> None:
        terms.setdefault(link, []).append(term)

    for star in skeleton.stars:
        for j, parents in enumerate(star.trees):
            k = count_symbol(star.star_id, j)
            for child, parent in parents.items():
                if parent is None:
                    continue
                accumulate((parent, child), add(H, mul(k, b_t)))
                accumulate((child, parent), mul(k, b_v))

    route = skeleton.route
    schedule = skeleton.schedule
    for node, parent in route.parents.items():
        if parent is None:
            continue
        payload_terms: List[Expr] = [const(EOS_BITS)]
        stack = [node]
        while stack:
            cur = stack.pop()
            if cur in route.payload_counts:
                payload_terms.append(
                    mul(payload_symbol(cur), add(b_t, b_v))
                )
            stack.extend(schedule[cur].route.children)
        accumulate((node, parent), add(*payload_terms))

    return {link: add(*parts) for link, parts in sorted(terms.items())}


def structural_costs(
    skeleton: CostSkeleton,
) -> Tuple[Expr, Dict[Tuple[str, str], Expr], Dict[str, int]]:
    """``(total_bits, bits_per_edge, environment)`` for one skeleton."""
    per_edge = symbolic_bits_per_edge(skeleton)
    total = add(*per_edge.values()) if per_edge else const(0)
    return total, per_edge, symbolic_environment(skeleton)


# ---------------------------------------------------------------------------
# The kernel table — per-primitive closed forms for docs and `predict`
# ---------------------------------------------------------------------------

_E = sym("E")
_k = sym("k")
_P = sym("P")


def two_party_route_rounds() -> Expr:
    """Rounds of a single-origin distance-1 route with ``P >= 1`` items.

    The origin's queue is ``P * (b_t + b_v)`` bits; every round the link
    takes a full ``B`` of it, items straddling rounds, until the last
    round takes the remainder.  The 1-bit EOS rides in that round if the
    remainder leaves room, and takes one more round if it fills the
    link: ``ceil((P * (b_t + b_v) + 1) / B)`` either way.
    """
    return floordiv(add(mul(_P, add(b_t, b_v)), B), B)


#: The per-primitive symbolic kernels: (name, expression, description).
#: ``bits`` kernels are exact for every cell; ``rounds`` kernels are
#: exact for the stated shape and validated against the timing
#: recurrence by the test suite.
KERNEL_FORMULAS: Tuple[Tuple[str, Expr, str], ...] = (
    (
        "scatter_tree_bits",
        mul(_E, add(H, mul(_k, b_t))),
        "Phase A bits of one packing tree: every tree edge carries the "
        "count header plus all k slice tuples downstream (Algorithm 1).",
    ),
    (
        "combine_tree_bits",
        mul(_E, mul(_k, b_v)),
        "Phase C bits of one packing tree: every non-root node pushes "
        "its k slot values to its parent (footnote 24 convergecast).",
    ),
    (
        "star_tree_bits",
        mul(_E, add(H, mul(_k, add(b_t, b_v)))),
        "One packing tree's full star cost: scatter + combine.",
    ),
    (
        "route_link_bits",
        add(mul(_P, add(b_t, b_v)), const(EOS_BITS)),
        "Final-phase bits on one routing link carrying P subtree items "
        "(Lemma 3.1): items straddle rounds but are never padded, plus "
        "EOS.",
    ),
    (
        "single_placement_rounds",
        const(0),
        "Co-located placement: every phase is free local computation, "
        "zero rounds and zero bits (Model 2.1).",
    ),
    (
        "two_party_route_rounds",
        two_party_route_rounds(),
        "Single-origin distance-1 routing of P >= 1 items: the queue's "
        "P*(b_t + b_v) bits plus the 1-bit EOS at B bits a round, "
        "ceil((P*(b_t + b_v) + 1) / B).",
    ),
    (
        "busiest_link_saturation",
        max_(B, const(0)),
        "Upper envelope of max_edge_bits_per_round: no directed link "
        "ever carries more than B bits in one round (Model 2.1); the "
        "exact value comes from the timing recurrence rho.",
    ),
)


def format_kernel_table() -> str:
    """The kernel table as aligned text (for `predict --symbolic`)."""
    rows = [(name, str(expr)) for name, expr, _desc in KERNEL_FORMULAS]
    width = max(len(name) for name, _ in rows)
    lines = [f"{'kernel':<{width}}  formula", f"{'-' * width}  {'-' * 7}"]
    for name, rendered in rows:
        lines.append(f"{name:<{width}}  {rendered}")
    return "\n".join(lines)
