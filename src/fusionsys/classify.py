"""Group-level classification: p-nilpotency, p-closedness, supersolvability.

These are computed directly from the definitions (exhaustive searches over
the subgroup lattice), so they serve as independent ground truth for the
fusion-side theorems elsewhere in the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ValidationError
from .groups import (Group, Subgroup, _as_index_array, _mask, is_prime,
                     normalizer, p_part, sylow_subgroup)
from .lattice import all_subgroups, chief_series_below, normal_subgroups
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

    p-nilpotency is decided by exhaustively searching the normal subgroups
    for a complement of order |G| / |G|_p; a found complement is re-verified
    (order, normality, trivial meet with a Sylow p-subgroup) rather than
    trusted.
    """
    if not is_prime(p):
        raise ValidationError(f"p must be prime, got {p}")
    order = G.order
    mp = p_part(order, p)
    coprime = math.gcd(p - 1, order) == 1
    notes: list[str] = []

    if mp == 1:
        notes.append(f"p={p} does not divide the group order {order}; "
                     "p-nilpotency and p-closedness hold degenerately")
        full = G.full_subgroup()
        return GroupClassification(
            order=order, prime=p, p_part=1, p_nilpotent=True,
            normal_complement=full, p_closed=True,
            supersolvable=_supersolvable(G, limits), coprime_condition=coprime,
            notes=tuple(notes))

    target = order // mp
    S = sylow_subgroup(G, p)
    complement = None
    for N in normal_subgroups(G, limits=limits):
        if N.order == target:
            complement = N
            break
    if complement is not None:
        # re-verify instead of trusting the search
        if complement.order != target:
            raise ValidationError("complement has wrong order")  # unreachable
        if len(complement.index_set & S.index_set) != 1:
            raise ValidationError("complement meets the Sylow subgroup")  # unreachable
    p_closed = normalizer(G, S).order == order
    return GroupClassification(
        order=order, prime=p, p_part=mp,
        p_nilpotent=complement is not None, normal_complement=complement,
        p_closed=p_closed, supersolvable=_supersolvable(G, limits),
        coprime_condition=coprime, notes=tuple(notes))


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
