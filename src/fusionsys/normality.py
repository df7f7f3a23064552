"""Generalized normality predicates for subgroups of a Sylow subgroup.

All predicates take the triple (G, S, H) with H <= S <= G and S a Sylow
p-subgroup, and return the package's one verdict type,
``fusion.PredicateReport``, carrying a verified witness: a conjugator for
the positive pronormality cases, and the least offending subgroup or
conjugator for failures.

The predicate kinds:

  pronormal            for every g there is k in <H, H^g> with H^k = H^g
  weakly_normal        H^g <= N_G(H) implies H^g = H
  weakly_closed_in_S   H^g <= S implies H^g = H
  subnormalizer        every K with H <= K <= N_G(H) has N_G(K) <= N_G(H)
  s_subnormalizer      every K with H <= K <= S has N_G(K) <= N_G(H)
  c_supplemented       some subgroup T has G = HT and H meet T below core_G(H)

``equivalence_suite`` evaluates the pronormal family and the fusion-side
semi-invariance across every subgroup of S and asserts the equivalences that
hold in this Sylow setting, raising ``EngineError`` at the first one that
breaks; the classical subnormalizer condition is only *recorded* against
the S-bounded one, never asserted equal.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import EngineError, ValidationError
from .fusion import (FusionContext, PredicateReport, _closed_into,
                     closure_predicate)
from .groups import (Group, Subgroup, _as_index_array, _mask,
                     conjugate_images, core, is_prime, normalizer, p_part,
                     prime_divisors, sylow_subgroup)
from .lattice import all_subgroups
from .limits import DEFAULT_LIMITS, Limits
from .perms import Perm

__all__ = [
    "NORMALITY_KINDS", "group_predicate",
    "EquivalenceReport", "equivalence_suite", "sylow_containing",
]

NORMALITY_KINDS = (
    "pronormal", "weakly_normal", "weakly_closed_in_S",
    "subnormalizer", "s_subnormalizer", "c_supplemented",
)


def _check_triple(G: Group, S: Subgroup, H: Subgroup) -> None:
    if S.parent is not G or H.parent is not G:
        raise ValidationError("S and H must be anchored to G")
    if not H.index_set <= S.index_set:
        raise ValidationError("H must be contained in S")
    if S.order > 1:
        primes = prime_divisors(S.order)
        if len(primes) != 1:
            raise ValidationError("S must be a p-group")
        q = primes[0]
        if p_part(G.order, q) != S.order:
            raise ValidationError(
                f"S has order {S.order} but the Sylow {q}-subgroups of this "
                f"group have order {p_part(G.order, q)}")


def group_predicate(G: Group, S: Subgroup, H: Subgroup, kind: str, *,
                    limits: Limits = DEFAULT_LIMITS) -> PredicateReport:
    """Evaluate one generalized-normality predicate on H <= S <= G."""
    if kind not in NORMALITY_KINDS:
        raise ValidationError(
            f"unknown normality predicate {kind!r}; known: {NORMALITY_KINDS}")
    _check_triple(G, S, H)
    return _DISPATCH[kind](G, S, H, limits)


def _pronormal(G: Group, S: Subgroup, H: Subgroup, limits: Limits) -> PredicateReport:
    """For each distinct conjugate K = H^g, look for k in <H, K> with
    H^k = K.

    Whether such a k exists depends only on K, not on which g produced it,
    so conjugates are grouped first.  The k with H^k = K form the coset
    N_G(H)g, so the witness is the least k of that coset in <H, K>; it is
    re-verified.
    """
    conj = G.conjugates(H.indices)
    n_idx = _as_index_array(normalizer(G, H))
    witnesses: dict[Perm, Perm] = {}
    for key, g in conjugate_images(G, H).items():  # in increasing g
        if key == H.indices:
            continue
        joint = G.closure_indices(
            H.generating_indices()
            + Subgroup._from_closed(G, key).generating_indices())
        meet = set(G.mul_table[n_idx, g].tolist()).intersection(joint)
        if not meet:
            return PredicateReport(kind="pronormal", holds=False, witness={
                "conjugator": G.elements[g],
                "image": Subgroup._from_closed(G, key),
            })
        k = min(meet)
        if tuple(sorted(conj[k].tolist())) != key:
            raise EngineError("a pronormality witness does not conjugate H "
                              "onto its image")
        witnesses[G.elements[g]] = G.elements[k]
    return PredicateReport(kind="pronormal", holds=True,
                           witness={"conjugators": witnesses})


def _weakly_normal(G: Group, S: Subgroup, H: Subgroup,
                   limits: Limits) -> PredicateReport:
    N = normalizer(G, H)
    return _closed_into(G, H, _mask(G, N.indices), "weakly_normal")


def _weakly_closed_in_S(G: Group, S: Subgroup, H: Subgroup,
                        limits: Limits) -> PredicateReport:
    return _closed_into(G, H, _mask(G, S.indices), "weakly_closed_in_S")


def _subnormalizer(G: Group, S: Subgroup, H: Subgroup,
                   limits: Limits) -> PredicateReport:
    N = normalizer(G, H)
    return _normalizer_funnel(G, H, all_subgroups(N, limits=limits).all,
                              N.index_set, "subnormalizer")


def _s_subnormalizer(G: Group, S: Subgroup, H: Subgroup,
                     limits: Limits) -> PredicateReport:
    N = normalizer(G, H)
    return _normalizer_funnel(G, H, all_subgroups(S, limits=limits).all,
                              N.index_set, "s_subnormalizer")


def _normalizer_funnel(G: Group, H: Subgroup, candidates, n_set: frozenset,
                       kind: str) -> PredicateReport:
    """Every candidate K containing H must satisfy N_G(K) <= N_G(H)."""
    for K in candidates:
        if not H.index_set <= K.index_set:
            continue
        NK = normalizer(G, K)
        if not NK.index_set <= n_set:
            return PredicateReport(kind=kind, holds=False, witness={
                "overgroup": K,
                "normalizer_order": NK.order,
            })
    return PredicateReport(kind=kind, holds=True, witness=None)


def _c_supplemented(G: Group, S: Subgroup, H: Subgroup,
                    limits: Limits) -> PredicateReport:
    """Search all subgroups T (smallest first) with G = HT and H meet T
    inside core_G(H)."""
    core_set = core(G, H).index_set
    for T in all_subgroups(G, limits=limits).all:
        meet = H.index_set & T.index_set
        if H.order * T.order == G.order * len(meet) and meet <= core_set:
            return PredicateReport(kind="c_supplemented", holds=True,
                                   witness={"supplement": T})
    return PredicateReport(kind="c_supplemented", holds=False, witness=None)


_DISPATCH = {
    "pronormal": _pronormal,
    "weakly_normal": _weakly_normal,
    "weakly_closed_in_S": _weakly_closed_in_S,
    "subnormalizer": _subnormalizer,
    "s_subnormalizer": _s_subnormalizer,
    "c_supplemented": _c_supplemented,
}


def sylow_containing(G: Group, K: Subgroup, p: int) -> Subgroup:
    """Some Sylow p-subgroup of G containing the p-subgroup K.

    Found by conjugating a fixed Sylow subgroup; exists by Sylow's theorem,
    and the scan is deterministic (least conjugator first).
    """
    if not is_prime(p):
        raise ValidationError(f"p must be prime, got {p}")
    if p_part(K.order, p) != K.order:
        raise ValidationError("K is not a p-subgroup")
    P = sylow_subgroup(G, p)
    k_set = K.index_set
    conj = G.conjugates(P.indices)
    for g in range(G.order):
        image = set(conj[g].tolist())
        if k_set <= image:
            return Subgroup._from_closed(G, tuple(sorted(image)))
    raise ValidationError("no Sylow subgroup contains K")  # unreachable


# -- the equivalence suite --------------------------------------------------------


@dataclass(frozen=True)
class EquivalenceReport:
    """Predicate table over all H <= S, with the asserted equivalences.

    rows: one dict per subgroup with every predicate verdict.
    subnormalizer_agreement: fraction of subgroups where the classical
        subnormalizer condition matched the S-bounded one (recorded, not
        asserted).
    """

    group_order: int
    prime: int
    sylow_order: int
    rows: tuple[dict, ...]
    subnormalizer_agreement: float


def equivalence_suite(ctx: FusionContext) -> EquivalenceReport:
    """Evaluate the whole predicate family over every H <= S, for the
    Sylow subgroup S of the context at its prime.

    Asserts, for each subgroup: pronormal == weakly_normal ==
    weakly_closed_in_S; s_subnormalizer == semi_invariant; and
    weakly_closed_in_S implies s_subnormalizer.  The first violation raises
    EngineError naming the subgroup order and the equivalence, since it
    would mean the engine broke a theorem.
    """
    G, S, limits = ctx.G, ctx.S, ctx.limits
    rows = []
    agree = 0
    subs = ctx.lattice_S.all
    for H in subs:
        verdicts = {kind: group_predicate(G, S, H, kind, limits=limits).holds
                    for kind in NORMALITY_KINDS}
        verdicts["semi_invariant"] = closure_predicate(
            ctx, H, "semi_invariant").holds
        row = {"order": H.order, "generators": H.generators, **verdicts}
        rows.append(row)
        if not (verdicts["pronormal"] == verdicts["weakly_normal"]
                == verdicts["weakly_closed_in_S"]):
            broken = "pronormal family"
        elif verdicts["s_subnormalizer"] != verdicts["semi_invariant"]:
            broken = "s_subnormalizer vs semi_invariant"
        elif verdicts["weakly_closed_in_S"] and not verdicts["s_subnormalizer"]:
            broken = "weakly closed implies s_subnormalizer"
        else:
            broken = None
        if broken is not None:
            raise EngineError(
                f"normality equivalence broke on a subgroup of order "
                f"{H.order}: {broken}")
        if verdicts["subnormalizer"] == verdicts["s_subnormalizer"]:
            agree += 1
    return EquivalenceReport(
        group_order=G.order, prime=ctx.p, sylow_order=S.order,
        rows=tuple(rows), subnormalizer_agreement=agree / len(subs))
