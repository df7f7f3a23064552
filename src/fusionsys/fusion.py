"""The fusion system of a finite group at a prime.

A :class:`FusionContext` packages a group G, a Sylow p-subgroup S and the
conjugation data between subgroups of S.  Objects are subgroups of S;
morphisms P -> Q are the distinct pointwise maps ``x -> x^g`` with g in G and
``P^g <= Q``, each carrying the least inducing element as a witness.

Everything is computed by vectorized transporter scans over the parent
group's conjugation table, and every reported witness is the least one in
the group's lexicographic element order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classify import has_strongly_p_embedded
from .errors import (EngineError, PreconditionError, UnsupportedCaseError,
                     ValidationError)
from .groups import (Group, GroupMap, Subgroup, _moved_conjugate_into,
                     centralizer, core, is_prime, normalizer, p_part,
                     quotient_group, subgroup_product, sylow_subgroup)
from .lattice import SubgroupLattice, all_subgroups, cyclic_quotient
from .limits import DEFAULT_LIMITS, Limits

__all__ = [
    "FusionContext", "FusionClass", "AutomizerPair", "ClosureReport",
    "QuotientSystem", "fusion_class", "morphisms", "automizer",
    "fusion_predicate", "essential_subgroups", "essential_star",
    "closure_predicate", "is_fusion_normal", "fusion_p_core",
    "normalizer_system", "quotient_system", "supersolvable_chain",
    "chain_through", "sylow_controls_fusion",
    "FUSION_PREDICATES", "CLOSURE_PREDICATES",
]

FUSION_PREDICATES = ("fully_normalized", "centric", "radical", "essential")
CLOSURE_PREDICATES = ("strongly_closed", "weakly_closed", "semi_invariant")


class FusionContext:
    """Fusion data for a Sylow p-subgroup S of G.

    Build one with :meth:`FusionContext.build` (which finds S itself) or
    :meth:`FusionContext.over` for a Sylow subgroup already in hand.  All
    caches are idempotent value stores, safe to fill from several threads.
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
        self.G = G
        self.S = S
        self.p = p
        self.limits = limits
        self.S_mask = np.zeros(G.order, dtype=bool)
        self.S_mask[list(S.indices)] = True
        self._lattice: SubgroupLattice | None = None
        self._aut_keys_cache: dict = {}
        self._class_cache: dict = {}
        self._pred_cache: dict = {}
        self._closure_cache: dict = {}
        self._normal_cache: dict = {}
        self._automizer_cache: dict = {}
        self._essential: tuple | None = None
        self._chain: tuple | None | str = "unset"

    @classmethod
    def build(cls, G: Group, p: int, *,
              limits: Limits = DEFAULT_LIMITS) -> "FusionContext":
        return cls(G, sylow_subgroup(G, p), p, limits=limits)

    @classmethod
    def over(cls, G: Group, S: Subgroup, p: int, *,
             limits: Limits = DEFAULT_LIMITS) -> "FusionContext":
        return cls(G, S, p, limits=limits)

    @property
    def lattice_S(self) -> SubgroupLattice:
        if self._lattice is None:
            self._lattice = all_subgroups(self.S, limits=self.limits)
        return self._lattice

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

    def _idx(self, P: Subgroup) -> np.ndarray:
        return np.fromiter(P.indices, dtype=np.int64, count=P.order)

    def _mask_of(self, P: Subgroup) -> np.ndarray:
        m = np.zeros(self.G.order, dtype=bool)
        m[list(P.indices)] = True
        return m

    def _maps_into(self, P: Subgroup, target_mask: np.ndarray,
                   conjugator_rows: np.ndarray | None = None):
        """Distinct conjugation maps of P into the masked target.

        Returns (keys, gs): parallel lists where ``keys[i]`` is the image
        index tuple aligned to P.indices and ``gs[i]`` the least inducing
        element index.  Conjugators default to all of G; pass a row selection
        to restrict (e.g. to S).
        """
        M = self.G.conjugates(self._idx(P))
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
        """Cached distinct automorphism assignments of K with least inducers."""
        got = self._aut_keys_cache.get(K.indices)
        if got is None:
            got = self._maps_into(K, self._mask_of(K))
            self._aut_keys_cache[K.indices] = got
        return got

    def _normalizer_in_S(self, Q: Subgroup) -> Subgroup:
        s_idx = self._idx(self.S)
        q_idx = self._idx(Q)
        images = np.sort(self.G.conjugates(q_idx)[s_idx], axis=1)
        ok = (images == q_idx[np.newaxis, :]).all(axis=1)
        return Subgroup._from_closed(
            self.G, tuple(int(s_idx[i]) for i in np.flatnonzero(ok)))

    def _centralizer_in_S_inside(self, Q: Subgroup) -> bool:
        """Whether C_S(Q) <= Q (the centric condition for one class member)."""
        s_idx = self._idx(self.S)
        q_idx = self._idx(Q)
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
class ClosureReport:
    """Outcome of a closure predicate, with the least counterwitness if any.

    Witness fields by kind:
      strongly_closed: element, conjugator, image (permutations)
      weakly_closed:   conjugator (permutation), image (Subgroup)
      semi_invariant:  overgroup (Subgroup), conjugator, image (Subgroup)
    The conjugator is always the least element of G exhibiting the failure,
    scanned in lexicographic element order.
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
    got = ctx._class_cache.get(P.indices)
    if got is not None:
        return got
    M = ctx.G.conjugates(ctx._idx(P))
    rows = np.flatnonzero(ctx.S_mask[M].all(axis=1))
    imgs = np.unique(np.sort(M[rows], axis=1), axis=0)
    members = tuple(Subgroup._from_closed(ctx.G, tuple(int(v) for v in row))
                    for row in imgs)
    # np.unique sorts rows, so members[0] is the least index tuple: every
    # subgroup of the class yields the same canonical representative.
    out = FusionClass(representative=members[0], members=members)
    ctx._class_cache[P.indices] = out
    return out


def morphisms(ctx: FusionContext, P: Subgroup, Q: Subgroup) -> tuple[GroupMap, ...]:
    """The distinct conjugation maps P -> Q, least inducing element first.

    Two group elements give the same morphism exactly when they lie in the
    same coset of C_G(P); one morphism per coset is returned, carrying the
    least element of that coset as ``inducing_element``.
    """
    ctx.check_object(P)
    ctx.check_object(Q)
    keys, gs = ctx._maps_into(P, ctx._mask_of(Q))
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
    got = ctx._automizer_cache.get(P.indices)
    if got is not None:
        return got
    G = ctx.G
    N = normalizer(G, P)
    C = centralizer(G, P)
    PC = subgroup_product(P, C)
    Ng = N.as_group()

    def rebase(H: Subgroup) -> Subgroup:
        return Subgroup._from_closed(
            Ng, tuple(sorted(Ng.index_of(m) for m in H.members)))

    wide = ctx.limits.scaled(degree_cap=max(ctx.limits.degree_cap, N.order))
    aut, _ = quotient_group(Ng, rebase(C), limits=wide)
    out, _ = quotient_group(Ng, rebase(PC), limits=wide)
    pair = AutomizerPair(aut=aut, out=out)
    ctx._automizer_cache[P.indices] = pair
    return pair


# -- predicates ------------------------------------------------------------------

def fusion_predicate(ctx: FusionContext, P: Subgroup, kind: str) -> bool:
    """Evaluate one of: fully_normalized, centric, radical, essential."""
    if kind not in FUSION_PREDICATES:
        raise ValidationError(
            f"unknown fusion predicate {kind!r}; known: {FUSION_PREDICATES}")
    ctx.check_object(P)
    cache_key = (kind, P.indices)
    got = ctx._pred_cache.get(cache_key)
    if got is not None:
        return got

    if kind == "fully_normalized":
        mine = ctx._normalizer_in_S(P).order
        value = all(ctx._normalizer_in_S(Q).order <= mine
                    for Q in fusion_class(ctx, P).members)
    elif kind == "centric":
        value = all(ctx._centralizer_in_S_inside(Q)
                    for Q in fusion_class(ctx, P).members)
    elif kind == "radical":
        out = automizer(ctx, P).out
        op = core(out, sylow_subgroup(out, ctx.p))
        value = op.order == 1
    else:  # essential
        value = (P.order < ctx.S.order
                 and fusion_predicate(ctx, P, "centric")
                 and fusion_predicate(ctx, P, "fully_normalized")
                 and has_strongly_p_embedded(
                     automizer(ctx, P).out, ctx.p, limits=ctx.limits).found)
    ctx._pred_cache[cache_key] = value
    return value


def essential_subgroups(ctx: FusionContext) -> tuple[Subgroup, ...]:
    """The essential subgroups, sorted by (order, indices)."""
    if ctx._essential is None:
        ctx._essential = tuple(
            P for P in ctx.lattice_S.all
            if fusion_predicate(ctx, P, "essential"))
    return ctx._essential


def essential_star(ctx: FusionContext) -> tuple[Subgroup, ...]:
    """Essential subgroups together with S itself (the Alperin family)."""
    fam = essential_subgroups(ctx) + (ctx.S,)
    return tuple(sorted(fam, key=lambda H: H.sort_key))


# -- closure predicates -----------------------------------------------------------

def closure_predicate(ctx: FusionContext, Q: Subgroup, kind: str) -> ClosureReport:
    """Evaluate strongly_closed / weakly_closed / semi_invariant on Q <= S.

    The returned witness (on failure) is the least one: conjugators are
    scanned in lexicographic element order, overgroups in lattice order.
    """
    if kind not in CLOSURE_PREDICATES:
        raise ValidationError(
            f"unknown closure predicate {kind!r}; known: {CLOSURE_PREDICATES}")
    ctx.check_object(Q)
    cache_key = (kind, Q.indices)
    got = ctx._closure_cache.get(cache_key)
    if got is not None:
        return got
    value = _closure_uncached(ctx, Q, kind)
    ctx._closure_cache[cache_key] = value
    return value


def _closure_uncached(ctx: FusionContext, Q: Subgroup, kind: str) -> ClosureReport:
    G = ctx.G
    els = G.elements

    if kind == "strongly_closed":
        M = G.conjugates(ctx._idx(Q))
        viol = ctx.S_mask[M] & ~ctx._mask_of(Q)[M]
        bad_rows = np.flatnonzero(viol.any(axis=1))
        if bad_rows.size:
            g = int(bad_rows[0])
            col = int(np.flatnonzero(viol[g])[0])
            return ClosureReport(kind=kind, holds=False, witness={
                "element": els[Q.indices[col]],
                "conjugator": els[g],
                "image": els[int(M[g, col])],
            })
        return ClosureReport(kind=kind, holds=True, witness=None)

    if kind == "weakly_closed":
        moved = _moved_conjugate_into(G, Q, ctx.S_mask)
        if moved is not None:
            g, img = moved
            return ClosureReport(kind=kind, holds=False, witness={
                "conjugator": els[g],
                "image": Subgroup._from_closed(G, img),
            })
        return ClosureReport(kind=kind, holds=True, witness=None)

    # semi_invariant: Q must be sent to itself by every morphism of every
    # overgroup K with Q <= K <= S
    for K in ctx.lattice_S.over(Q):
        keys, gs = ctx._aut_keys(K)
        pairs = sorted(zip(gs, keys))
        pos = {k: c for c, k in enumerate(K.indices)}
        for g, key in pairs:
            img = tuple(sorted(key[pos[i]] for i in Q.indices))
            if img != Q.indices:
                return ClosureReport(kind=kind, holds=False, witness={
                    "overgroup": K,
                    "conjugator": els[g],
                    "image": Subgroup._from_closed(G, img),
                })
    return ClosureReport(kind=kind, holds=True, witness=None)


# -- normality in the fusion system ------------------------------------------------

def is_fusion_normal(ctx: FusionContext, Q: Subgroup,
                     method: str = "criterion") -> bool:
    """Whether Q is normal in the whole fusion system.

    method="criterion": Q is normal in S, strongly closed, contained in every
    member of the Alperin family and invariant under all of its morphisms.

    method="oracle": the extension property from the definition, checked
    morphism by morphism — every map P -> S induced by some g must also be
    induced by an h (same coset of C_G(P)) that normalizes Q.  Both methods
    agree on every context; the oracle exists to keep the criterion honest.
    """
    if method not in ("criterion", "oracle"):
        raise ValidationError(f"unknown method {method!r}")
    ctx.check_object(Q)
    cache_key = (method, Q.indices)
    got = ctx._normal_cache.get(cache_key)
    if got is not None:
        return got
    value = (_normal_criterion(ctx, Q) if method == "criterion"
             else _normal_oracle(ctx, Q))
    ctx._normal_cache[cache_key] = value
    return value


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


def _normal_oracle(ctx: FusionContext, Q: Subgroup) -> bool:
    G = ctx.G
    if ctx._normalizer_in_S(Q).order != ctx.S.order:
        return False
    q_idx = ctx._idx(Q)
    norm_Q = (np.sort(G.conjugates(q_idx), axis=1)
              == q_idx[np.newaxis, :]).all(axis=1)
    mul = G.mul_rows
    for P in ctx.lattice_S.all:
        M = G.conjugates(ctx._idx(P))
        rows = np.flatnonzero(ctx.S_mask[M].all(axis=1))
        lists = M[rows].tolist()
        buckets: dict[tuple[int, ...], list[int]] = {}
        for pos, r in enumerate(rows.tolist()):
            buckets.setdefault(tuple(lists[pos]), []).append(r)
        pq = set()
        for a in P.indices:
            row = mul[a]
            pq.update(row[b] for b in Q.indices)
        pq_conj = G.conjugates(sorted(pq))
        for key, members in buckets.items():
            found = None
            for h in members:
                if norm_Q[h]:
                    found = h
                    break
            if found is None:
                return False
            # sanity: the extension really lands inside (image of P) * Q
            img_pq = set(pq_conj[found].tolist())
            target = set()
            for a in key:
                row = mul[a]
                target.update(row[b] for b in Q.indices)
            if not img_pq <= target:
                raise EngineError("extension landed outside the target "
                                  "product; conjugation bookkeeping is wrong")
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
    S_new = Subgroup._from_closed(
        Ng, tuple(sorted(Ng.index_of(m) for m in NS.members)))
    return FusionContext(Ng, S_new, ctx.p, limits=ctx.limits)


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
    if ctx._chain != "unset":
        return ctx._chain
    chain = _chain_search(ctx, ctx.G.trivial_subgroup(), None)
    if chain is not None:
        _verify_chain(ctx, chain)
    ctx._chain = chain
    return chain


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
    s_rows = np.fromiter(ctx.S.indices, dtype=np.int64, count=ctx.S.order)
    for P in ctx.lattice_S.all:
        keys_G, _ = ctx._maps_into(P, ctx.S_mask)
        keys_S, _ = ctx._maps_into(P, ctx.S_mask, conjugator_rows=s_rows)
        if set(keys_G) != set(keys_S):
            return False
    return True
