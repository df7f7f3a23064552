"""Group-level classification: p-nilpotency, p-closedness, supersolvability.

These are computed from group-level facts alone: the p'-elements, a Sylow
normalizer, a chief series and the subgroup lattice, never from the fusion
system, so they serve as independent ground truth for the fusion-side
theorems elsewhere in the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ValidationError
from .groups import (Group, Subgroup, _as_index_array, _greedy_generators,
                     _mask, is_prime, normalizer, p_part, sylow_subgroup)
from .lattice import all_subgroups, chief_series_below
from .limits import DEFAULT_LIMITS, Limits

__all__ = [
    "GroupClassification", "classify_group",
    "EmbeddingSearch", "has_strongly_p_embedded",
]


@dataclass(frozen=True)
class GroupClassification:
    """What a group looks like locally at the prime p."""

    order: int
    prime: int
    p_part: int
    p_nilpotent: bool
    normal_complement: Subgroup | None
    p_closed: bool
    supersolvable: bool
    coprime_condition: bool     # gcd(p - 1, |G|) == 1
    notes: tuple[str, ...] = ()


def classify_group(G: Group, p: int, *,
                   limits: Limits = DEFAULT_LIMITS) -> GroupClassification:
    """Classify G at the prime p.

    G is p-nilpotent exactly when its p'-elements form a subgroup, which is
    then the normal p-complement.  A normal p-complement K holds every
    p'-element, because G/K is a p-group.  Conversely, p'-elements that
    form a subgroup form a normal one, and G over it is a p-group, because
    each element is a p-element times a commuting p'-element.  So the
    p'-elements are counted and, when there are |G|/|G|_p of them, checked
    for closure.  G is p-closed when it normalizes a Sylow p-subgroup.
    """
    if not is_prime(p):
        raise ValidationError(f"p must be prime, got {p}")
    order = G.order
    mp = p_part(order, p)
    notes: tuple[str, ...] = ()
    if mp == 1:
        notes = (f"p={p} does not divide the group order {order}; "
                 "p-nilpotency and p-closedness hold degenerately",)
    p_prime = tuple(i for i, o in enumerate(G.element_orders) if o % p)
    complement = None
    if (len(p_prime) == order // mp
            and _greedy_generators(G, p_prime) is not None):
        complement = Subgroup._from_closed(G, p_prime)
    S = sylow_subgroup(G, p)
    return GroupClassification(
        order=order, prime=p, p_part=mp,
        p_nilpotent=complement is not None, normal_complement=complement,
        p_closed=normalizer(G, S).order == order,
        supersolvable=_supersolvable(G, limits),
        coprime_condition=math.gcd(p - 1, order) == 1, notes=notes)


def _supersolvable(G: Group, limits: Limits) -> bool:
    """Supersolvable iff every chief factor has prime order."""
    factors = chief_series_below(G, G.full_subgroup(), limits=limits)
    return all(is_prime(f.order) for f in factors)


@dataclass(frozen=True)
class EmbeddingSearch:
    """Result of the strongly p-embedded subgroup search."""

    found: bool
    witness: Subgroup | None


def has_strongly_p_embedded(A: Group, p: int, *,
                            limits: Limits = DEFAULT_LIMITS) -> EmbeddingSearch:
    """Search A for a strongly p-embedded subgroup.

    H < A is strongly p-embedded when p divides |H| and p does not divide
    |H meet H^g| for every g outside H.  The least witness (by order, then
    member indices) is returned when one exists.
    """
    if not is_prime(p):
        raise ValidationError(f"p must be prime, got {p}")
    if A.order % p:
        return EmbeddingSearch(found=False, witness=None)
    for H in all_subgroups(A, limits=limits).all:
        if H.order == A.order or H.order % p:
            continue
        in_H = _mask(A, H.indices)
        # |H^g meet H|, each g
        meets = in_H[A.conjugates(_as_index_array(H))].sum(axis=1)
        if (meets[~in_H] % p != 0).all():
            return EmbeddingSearch(found=True, witness=H)
    return EmbeddingSearch(found=False, witness=None)
