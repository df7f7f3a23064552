"""The fusion system of a finite group at a prime.

A :class:`FusionContext` packages a group G, a Sylow p-subgroup S and the
conjugation data between subgroups of S.  Objects are subgroups of S;
morphisms P -> Q are the distinct pointwise maps ``x -> x^g`` with g in G and
``P^g <= Q``, each carrying the least inducing element as a witness.

Everything is computed by vectorized transporter scans over the parent
group's conjugation table, and every reported witness is the least one in
the group's lexicographic element order.  Closure predicates return a
:class:`PredicateReport`, the verdict type the normality predicates share.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classify import has_strongly_p_embedded
from .errors import (EngineError, PreconditionError, UnsupportedCaseError,
                     ValidationError)
from .groups import (Group, GroupMap, Subgroup, _as_index_array, _mask, _Memo,
                     _moved_conjugate_into, _quotient, centralizer, core,
                     is_prime, normalizer, p_part, quotient_group,
                     subgroup_product, sylow_subgroup)
from .lattice import SubgroupLattice, all_subgroups, cyclic_quotient
from .limits import DEFAULT_LIMITS, Limits

__all__ = [
    "FusionContext", "FusionClass", "AutomizerPair", "PredicateReport",
    "QuotientSystem", "fusion_class", "morphisms", "automizer",
    "fusion_predicate", "essential_subgroups", "essential_star",
    "closure_predicate", "is_fusion_normal", "fusion_p_core",
    "normalizer_system", "quotient_system", "supersolvable_chain",
    "chain_through", "sylow_controls_fusion",
    "FUSION_PREDICATES", "CLOSURE_PREDICATES",
]

FUSION_PREDICATES = ("fully_normalized", "centric", "radical", "essential")
CLOSURE_PREDICATES = ("strongly_closed", "weakly_closed", "semi_invariant")


class FusionContext(_Memo):
    """Fusion data for a Sylow p-subgroup S of G.

    Build one with :meth:`FusionContext.build`, which finds S itself, or
    with the constructor for a Sylow subgroup already in hand.  Every
    answer about the system (lattice of S, fusion classes, automizers,
    predicates, the supersolvable chain, and the group classification and
    structure flags the theorem checks read) is kept in the context's one
    memo store, ``memo(key, compute)``.  It is an idempotent value store,
    safe to fill from several threads.
    """

    def __init__(self, G: Group, S: Subgroup, p: int, *,
                 limits: Limits = DEFAULT_LIMITS):
        if not isinstance(G, Group) or not isinstance(S, Subgroup):
            raise ValidationError("FusionContext needs a Group and a Subgroup")
        if S.parent is not G:
            raise ValidationError("S is not anchored to G")
        if not is_prime(p):
            raise ValidationError(f"p must be prime, got {p}")
        if S.order != p_part(G.order, p):
            raise ValidationError(
                f"S has order {S.order}, but a Sylow {p}-subgroup of a group "
                f"of order {G.order} has order {p_part(G.order, p)}")
        super().__init__()
        self.G = G
        self.S = S
        self.p = p
        self.limits = limits
        self.S_mask = _mask(G, S.indices)

    @classmethod
    def build(cls, G: Group, p: int, *,
              limits: Limits = DEFAULT_LIMITS) -> "FusionContext":
        return cls(G, sylow_subgroup(G, p), p, limits=limits)

    @property
    def lattice_S(self) -> SubgroupLattice:
        return self.memo(("lattice_S",), lambda: all_subgroups(
            self.S, limits=self.limits))

    def check_object(self, P: Subgroup) -> None:
        if P.parent is not self.G:
            raise ValidationError("subgroup is not anchored to this context's group")
        if not P.index_set <= self.S.index_set:
            raise ValidationError(
                "subgroup is not contained in the Sylow subgroup S; fusion "
                "objects live inside S")

    def __repr__(self) -> str:
        return (f"<FusionContext |G|={self.G.order} |S|={self.S.order} "
                f"p={self.p}>")

    # -- internal scans ------------------------------------------------------

    def _maps_into(self, P: Subgroup, target_mask: np.ndarray,
                   conjugator_rows: np.ndarray | None = None):
        """Distinct conjugation maps of P into the masked target.

        Returns (keys, gs): parallel lists where ``keys[i]`` is the image
        index tuple aligned to P.indices and ``gs[i]`` the least inducing
        element index.  Conjugators default to all of G; pass a row selection
        to restrict (e.g. to S).
        """
        M = self.G.conjugates(_as_index_array(P))
        if conjugator_rows is not None:
            M = M[conjugator_rows]
        ok = target_mask[M].all(axis=1)
        rows = np.flatnonzero(ok)
        keys: list[tuple[int, ...]] = []
        gs: list[int] = []
        seen: dict[tuple[int, ...], int] = {}
        lists = M[rows].tolist()
        for pos, r in enumerate(rows.tolist()):
            key = tuple(lists[pos])
            if key not in seen:
                seen[key] = r
                keys.append(key)
                gs.append(r if conjugator_rows is None
                          else int(conjugator_rows[r]))
        return keys, gs

    def _aut_keys(self, K: Subgroup):
        """Memoized distinct automorphism assignments of K with least
        inducers."""
        return self.memo(("aut_keys", K.indices),
                         lambda: self._maps_into(K, _mask(self.G, K.indices)))

    def _normalizer_in_S(self, Q: Subgroup) -> Subgroup:
        s_idx = _as_index_array(self.S)
        q_idx = _as_index_array(Q)
        images = np.sort(self.G.conjugates(q_idx)[s_idx], axis=1)
        ok = (images == q_idx[np.newaxis, :]).all(axis=1)
        return Subgroup._from_closed(
            self.G, tuple(int(s_idx[i]) for i in np.flatnonzero(ok)))

    def _centralizer_in_S_inside(self, Q: Subgroup) -> bool:
        """Whether C_S(Q) <= Q (the centric condition for one class member)."""
        s_idx = _as_index_array(self.S)
        q_idx = _as_index_array(Q)
        fixed = (self.G.conjugates(q_idx)[s_idx]
                 == q_idx[np.newaxis, :]).all(axis=1)
        return all(int(s_idx[i]) in Q.index_set for i in np.flatnonzero(fixed))


@dataclass(frozen=True)
class FusionClass:
    """The fusion class of a subgroup: all G-conjugates that lie inside S."""

    representative: Subgroup
    members: tuple[Subgroup, ...]

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class AutomizerPair:
    """Aut(P) = N_G(P)/C_G(P) and Out(P) = N_G(P)/(P C_G(P)) as groups."""

    aut: Group
    out: Group


@dataclass(frozen=True)
class PredicateReport:
    """One predicate verdict with its witness, for the closure predicates
    here and the generalized-normality predicates of ``normality``.

    Witness fields on failure, by kind:
      strongly_closed:        element, conjugator, image (permutations)
      weakly_closed, weakly_closed_in_S, weakly_normal:
                              conjugator (permutation), image (Subgroup)
      semi_invariant:         overgroup (Subgroup), conjugator, image (Subgroup)
      pronormal:              conjugator, image (Subgroup)
      subnormalizer, s_subnormalizer: overgroup, normalizer_order
      c_supplemented:         None (nothing supplements)
    A conjugator is always the least element of G exhibiting the failure,
    scanned in lexicographic element order.  On success the witness is None,
    except for pronormal (each distinct conjugate mapped to a verified
    conjugator) and c_supplemented (the supplement found).
    """

    kind: str
    holds: bool
    witness: dict | None


@dataclass(frozen=True)
class QuotientSystem:
    """A quotient fusion context together with the projection that made it."""

    context: FusionContext
    projection: GroupMap


# -- classes and morphisms -----------------------------------------------------

def fusion_class(ctx: FusionContext, P: Subgroup) -> FusionClass:
    """All G-conjugates of P contained in S, sorted by index tuple."""
    ctx.check_object(P)

    def compute() -> FusionClass:
        M = ctx.G.conjugates(_as_index_array(P))
        rows = np.flatnonzero(ctx.S_mask[M].all(axis=1))
        imgs = sorted(set(map(tuple, np.sort(M[rows], axis=1).tolist())))
        members = tuple(Subgroup._from_closed(ctx.G, img) for img in imgs)
        # imgs is sorted, so members[0] is the least index tuple: every
        # subgroup of the class yields the same canonical representative.
        return FusionClass(representative=members[0], members=members)
    return ctx.memo(("fusion_class", P.indices), compute)


def morphisms(ctx: FusionContext, P: Subgroup, Q: Subgroup) -> tuple[GroupMap, ...]:
    """The distinct conjugation maps P -> Q, least inducing element first.

    Two group elements give the same morphism exactly when they lie in the
    same coset of C_G(P); one morphism per coset is returned, carrying the
    least element of that coset as ``inducing_element``.
    """
    ctx.check_object(P)
    ctx.check_object(Q)
    keys, gs = ctx._maps_into(P, _mask(ctx.G, Q.indices))
    els = ctx.G.elements
    out = []
    for key, g in zip(keys, gs):
        assignment = {els[i]: els[j] for i, j in zip(P.indices, key)}
        out.append(GroupMap(source=P, target=Q, assignment=assignment,
                            inducing_element=els[g]))
    return tuple(out)


def automizer(ctx: FusionContext, P: Subgroup) -> AutomizerPair:
    """Aut and Out of P in the fusion system, as explicit quotient groups."""
    ctx.check_object(P)
    return ctx.memo(("automizer", P.indices), lambda: _automizer(ctx, P))


def _automizer(ctx: FusionContext, P: Subgroup) -> AutomizerPair:
    G = ctx.G
    N = normalizer(G, P)
    C = centralizer(G, P)
    PC = subgroup_product(P, C)
    Ng = N.as_group()
    wide = ctx.limits.scaled(degree_cap=max(ctx.limits.degree_cap, N.order))
    aut, _ = _quotient(Ng, _rebase(C, N, Ng), wide)
    out, _ = _quotient(Ng, _rebase(PC, N, Ng), wide)
    return AutomizerPair(aut=aut, out=out)


def _rebase(H: Subgroup, N: Subgroup, Ng: Group) -> Subgroup:
    """H <= N as a subgroup of ``Ng = N.as_group()``, whose element i is
    N's member ``N.indices[i]``."""
    return Subgroup._from_closed(
        Ng, tuple(np.searchsorted(N.indices, H.indices).tolist()))


# -- predicates ------------------------------------------------------------------

def fusion_predicate(ctx: FusionContext, P: Subgroup, kind: str) -> bool:
    """Evaluate one of: fully_normalized, centric, radical, essential."""
    if kind not in FUSION_PREDICATES:
        raise ValidationError(
            f"unknown fusion predicate {kind!r}; known: {FUSION_PREDICATES}")
    ctx.check_object(P)
    return ctx.memo(("fusion_predicate", kind, P.indices),
                    lambda: _fusion_predicate(ctx, P, kind))


def _fusion_predicate(ctx: FusionContext, P: Subgroup, kind: str) -> bool:
    if kind == "fully_normalized":
        mine = ctx._normalizer_in_S(P).order
        return all(ctx._normalizer_in_S(Q).order <= mine
                   for Q in fusion_class(ctx, P).members)
    if kind == "centric":
        return all(ctx._centralizer_in_S_inside(Q)
                   for Q in fusion_class(ctx, P).members)
    if kind == "radical":
        out = automizer(ctx, P).out
        return core(out, sylow_subgroup(out, ctx.p)).order == 1
    # essential
    return (P.order < ctx.S.order
            and fusion_predicate(ctx, P, "centric")
            and fusion_predicate(ctx, P, "fully_normalized")
            and has_strongly_p_embedded(
                automizer(ctx, P).out, ctx.p, limits=ctx.limits).found)


def essential_subgroups(ctx: FusionContext) -> tuple[Subgroup, ...]:
    """The essential subgroups, sorted by (order, indices)."""
    return ctx.memo(("essential",), lambda: tuple(
        P for P in ctx.lattice_S.all
        if fusion_predicate(ctx, P, "essential")))


def essential_star(ctx: FusionContext) -> tuple[Subgroup, ...]:
    """Essential subgroups together with S itself (the Alperin family)."""
    fam = essential_subgroups(ctx) + (ctx.S,)
    return tuple(sorted(fam, key=lambda H: H.sort_key))


# -- closure predicates -----------------------------------------------------------

def closure_predicate(ctx: FusionContext, Q: Subgroup,
                      kind: str) -> PredicateReport:
    """Evaluate strongly_closed / weakly_closed / semi_invariant on Q <= S.

    The returned witness (on failure) is the least one: conjugators are
    scanned in lexicographic element order, overgroups in lattice order.
    """
    if kind not in CLOSURE_PREDICATES:
        raise ValidationError(
            f"unknown closure predicate {kind!r}; known: {CLOSURE_PREDICATES}")
    ctx.check_object(Q)
    return ctx.memo(("closure_predicate", kind, Q.indices),
                    lambda: _closure_predicate(ctx, Q, kind))


def _closed_into(G: Group, H: Subgroup, mask: np.ndarray,
                 kind: str) -> PredicateReport:
    """Every conjugate of H inside the boolean ``mask`` must be H itself;
    on failure the witness is the least conjugator and its image."""
    moved = _moved_conjugate_into(G, H, mask)
    if moved is None:
        return PredicateReport(kind=kind, holds=True, witness=None)
    g, img = moved
    return PredicateReport(kind=kind, holds=False, witness={
        "conjugator": G.elements[g],
        "image": Subgroup._from_closed(G, img),
    })


def _closure_predicate(ctx: FusionContext, Q: Subgroup,
                       kind: str) -> PredicateReport:
    G = ctx.G
    els = G.elements

    if kind == "strongly_closed":
        M = G.conjugates(_as_index_array(Q))
        viol = ctx.S_mask[M] & ~_mask(G, Q.indices)[M]
        bad_rows = np.flatnonzero(viol.any(axis=1))
        if bad_rows.size:
            g = int(bad_rows[0])
            col = int(np.flatnonzero(viol[g])[0])
            return PredicateReport(kind=kind, holds=False, witness={
                "element": els[Q.indices[col]],
                "conjugator": els[g],
                "image": els[int(M[g, col])],
            })
        return PredicateReport(kind=kind, holds=True, witness=None)

    if kind == "weakly_closed":
        return _closed_into(G, Q, ctx.S_mask, kind)

    # semi_invariant: Q must be sent to itself by every morphism of every
    # overgroup K with Q <= K <= S
    for K in ctx.lattice_S.over(Q):
        keys, gs = ctx._aut_keys(K)
        pairs = sorted(zip(gs, keys))
        pos = {k: c for c, k in enumerate(K.indices)}
        for g, key in pairs:
            img = tuple(sorted(key[pos[i]] for i in Q.indices))
            if img != Q.indices:
                return PredicateReport(kind=kind, holds=False, witness={
                    "overgroup": K,
                    "conjugator": els[g],
                    "image": Subgroup._from_closed(G, img),
                })
    return PredicateReport(kind=kind, holds=True, witness=None)


# -- normality in the fusion system ------------------------------------------------

def is_fusion_normal(ctx: FusionContext, Q: Subgroup) -> bool:
    """Whether Q is normal in the whole fusion system.

    Decided by the criterion: Q is normal in S, strongly closed, contained
    in every member of the Alperin family and invariant under all of its
    morphisms.  ``tests/oracles.py`` keeps the extension property from the
    definition, checked morphism by morphism, as the reference.
    """
    ctx.check_object(Q)
    return ctx.memo(("fusion_normal", Q.indices),
                    lambda: _normal_criterion(ctx, Q))


def _normal_criterion(ctx: FusionContext, Q: Subgroup) -> bool:
    if ctx._normalizer_in_S(Q).order != ctx.S.order:
        return False
    if not closure_predicate(ctx, Q, "strongly_closed").holds:
        return False
    for R in essential_star(ctx):
        if not Q.index_set <= R.index_set:
            return False
        keys, _ = ctx._aut_keys(R)
        pos = {k: c for c, k in enumerate(R.indices)}
        cols = [pos[i] for i in Q.indices]
        for key in keys:
            if frozenset(key[c] for c in cols) != Q.index_set:
                return False
    return True


def fusion_p_core(ctx: FusionContext) -> Subgroup:
    """The largest subgroup normal in the fusion system.

    Uniqueness is verified: every normal subgroup must lie inside the
    largest, or the engine refuses rather than return a wrong answer.
    """
    normal = [Q for Q in ctx.lattice_S.all if is_fusion_normal(ctx, Q)]
    best = max(normal, key=lambda H: H.sort_key)
    for Q in normal:
        if not Q.index_set <= best.index_set:
            raise EngineError("normal subgroups are not all below the largest "
                              "one; normality computation is inconsistent")
    return best


# -- derived systems ---------------------------------------------------------------

def normalizer_system(ctx: FusionContext, Q: Subgroup) -> FusionContext:
    """The normalizer system over a fully normalized Q: fusion of N_S(Q)
    inside N_G(Q)."""
    ctx.check_object(Q)
    if not fusion_predicate(ctx, Q, "fully_normalized"):
        raise PreconditionError(
            "normalizer systems need a fully normalized subgroup; pass a "
            "class representative of maximal normalizer order from "
            "fusion_class(...)")
    NG = normalizer(ctx.G, Q)
    NS = ctx._normalizer_in_S(Q)
    if p_part(NG.order, ctx.p) != NS.order:
        raise EngineError("N_S(Q) is not Sylow in N_G(Q) although Q is fully "
                          "normalized; fusion bookkeeping is wrong")
    Ng = NG.as_group()
    return FusionContext(Ng, _rebase(NS, NG, Ng), ctx.p, limits=ctx.limits)


def quotient_system(ctx: FusionContext, Q: Subgroup) -> QuotientSystem:
    """The quotient system below Q, constructed only for Q normal in G."""
    ctx.check_object(Q)
    if normalizer(ctx.G, Q).order != ctx.G.order:
        raise UnsupportedCaseError(
            "quotient systems are only constructed below a subgroup normal "
            "in the full group")
    wide = ctx.limits.scaled(
        degree_cap=max(ctx.limits.degree_cap, ctx.G.order // Q.order))
    Gq, proj = quotient_group(ctx.G, Q, limits=wide)
    s_imgs = sorted({proj.assignment[m] for m in ctx.S.members})
    S_new = Subgroup._from_closed(
        Gq, tuple(Gq.index_of(m) for m in s_imgs))
    return QuotientSystem(
        context=FusionContext(Gq, S_new, ctx.p, limits=ctx.limits),
        projection=proj)


# -- supersolvability ----------------------------------------------------------------

def _strongly_closed_family(ctx: FusionContext) -> tuple[Subgroup, ...]:
    return tuple(Q for Q in ctx.lattice_S.all
                 if closure_predicate(ctx, Q, "strongly_closed").holds)


def supersolvable_chain(ctx: FusionContext):
    """A chain 1 = S0 <= ... <= Sn = S of strongly closed subgroups with
    cyclic quotients, or None when there is none.

    Deterministic: depth-first over candidates in (order, indices) order, so
    the same chain is returned every run.  Each link of a returned chain is
    re-verified before it is handed back.
    """
    def search():
        chain = _chain_search(ctx, ctx.G.trivial_subgroup(), None)
        if chain is not None:
            _verify_chain(ctx, chain)
        return chain
    return ctx.memo(("supersolvable_chain",), search)


def chain_through(ctx: FusionContext, Q: Subgroup):
    """A supersolvable chain passing through Q, or None.

    Searches 1 -> Q and Q -> S separately; both halves must consist of
    strongly closed subgroups with cyclic quotients.
    """
    ctx.check_object(Q)
    lower = _chain_search(ctx, ctx.G.trivial_subgroup(), Q)
    if lower is None:
        return None
    upper = _chain_search(ctx, Q, None)
    if upper is None:
        return None
    chain = lower + upper[1:]
    _verify_chain(ctx, chain)
    return chain


def _chain_search(ctx: FusionContext, start: Subgroup, stop: Subgroup | None):
    """DFS from start up to stop (or S), over strongly closed subgroups only."""
    top = stop if stop is not None else ctx.S
    family = [Q for Q in _strongly_closed_family(ctx)
              if start.index_set <= Q.index_set
              and Q.index_set <= top.index_set]
    if not any(Q.order == start.order for Q in family):
        return None  # start itself is not strongly closed
    dead: set[tuple[int, ...]] = set()

    def walk(current: Subgroup):
        if current.order == top.order:
            return (current,)
        if current.indices in dead:
            return None
        for Q in family:
            if (current.order < Q.order
                    and current.index_set < Q.index_set
                    and cyclic_quotient(Q, current)):
                rest = walk(Q)
                if rest is not None:
                    return (current,) + rest
        dead.add(current.indices)
        return None

    return walk(start)


def _verify_chain(ctx: FusionContext, chain) -> None:
    for below, above in zip(chain, chain[1:]):
        if not below.index_set < above.index_set:
            raise EngineError("chain is not ascending")
        if not closure_predicate(ctx, above, "strongly_closed").holds:
            raise EngineError("chain link is not strongly closed")
        if not cyclic_quotient(above, below):
            raise EngineError("chain quotient is not cyclic")


# -- the p-nilpotency bridge -----------------------------------------------------------

def sylow_controls_fusion(ctx: FusionContext) -> bool:
    """Whether every morphism of the system is induced by an element of S.

    Compared object by object: for each P <= S the set of distinct
    assignments P -> S induced by G must equal the set induced by S alone.
    """
    s_rows = _as_index_array(ctx.S)
    for P in ctx.lattice_S.all:
        keys_G, _ = ctx._maps_into(P, ctx.S_mask)
        keys_S, _ = ctx._maps_into(P, ctx.S_mask, conjugator_rows=s_rows)
        if set(keys_G) != set(keys_S):
            return False
    return True
