"""Subgroup lattices, normal/maximal subgroups, chief factors, hypercenter.

The lattice walk is bottom-up: all cyclic subgroups first, then pairwise
joins to a fixed point.  Every subgroup of a finite group is a join of cyclic
subgroups, so the fixed point is the full lattice.  Results are sorted by
(order, index tuple) and cached on the anchor group, keyed by the member set
walked.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CapacityError, ValidationError
from .groups import Group, Subgroup
from .limits import DEFAULT_LIMITS, Limits

__all__ = [
    "SubgroupLattice", "all_subgroups", "normal_subgroups",
    "maximal_subgroups", "cyclic_quotient", "ChiefFactor",
    "chief_series_below", "HypercenterCheck", "lies_in_U_hypercenter",
]


@dataclass(frozen=True)
class SubgroupLattice:
    """All subgroups of one (sub)group, sorted by (order, indices)."""

    anchor: Group
    within: tuple[int, ...]          # indices of the walked member set
    all: tuple[Subgroup, ...]

    def of_order(self, n: int) -> tuple[Subgroup, ...]:
        return tuple(H for H in self.all if H.order == n)

    def over(self, H: Subgroup) -> tuple[Subgroup, ...]:
        """Members containing H."""
        return tuple(K for K in self.all if H.index_set <= K.index_set)

    def __len__(self) -> int:
        return len(self.all)


def _anchor_and_members(H) -> tuple[Group, tuple[int, ...]]:
    if isinstance(H, Group):
        return H, tuple(range(H.order))
    if isinstance(H, Subgroup):
        return H.parent, H.indices
    raise ValidationError(f"expected a Group or Subgroup, got {type(H).__name__}")


def all_subgroups(H, *, limits: Limits = DEFAULT_LIMITS) -> SubgroupLattice:
    """Every subgroup of H (a Group or Subgroup), as subgroups of the anchor.

    Raises CapacityError when more than ``limits.subgroup_cap`` subgroups
    would be emitted.
    """
    anchor, members = _anchor_and_members(H)
    cached = anchor._lattice_cache.get(members)
    if cached is None:
        cached = _walk_lattice(anchor, members, limits)
        anchor._lattice_cache[members] = cached
    if len(cached.all) > limits.subgroup_cap:
        raise CapacityError(
            f"lattice holds {len(cached.all)} subgroups, over the cap of "
            f"{limits.subgroup_cap}", cap_name="subgroup_cap",
            cap_value=limits.subgroup_cap, reached=len(cached.all))
    return cached


def _walk_lattice(anchor: Group, members: tuple[int, ...],
                  limits: Limits) -> SubgroupLattice:
    mul = anchor.mul_rows
    total = len(members)
    cap = limits.subgroup_cap

    # seed: distinct cyclic subgroups, each remembering one generator
    subs: dict[tuple[int, ...], tuple[int, ...]] = {(0,): ()}
    order_list: list[tuple[int, ...]] = [(0,)]
    for x in members:
        if x == 0:
            continue
        row_x = mul[x]
        powers = [0]
        y = x
        while y != 0:
            powers.append(y)
            y = row_x[y]
        key = tuple(sorted(powers))
        if key not in subs:
            subs[key] = (x,)
            order_list.append(key)

    # pairwise joins to a fixed point
    full_key = members
    sets = {k: frozenset(k) for k in order_list}
    i = 0
    while i < len(order_list):
        a = order_list[i]
        sa = sets[a]
        for j in range(i):
            b = order_list[j]
            sb = sets[b]
            if sa <= sb or sb <= sa:
                continue
            bound = len(a) * len(b) // len(sa & sb)
            if 2 * bound > total:
                join = full_key  # a proper divisor of |H| can't exceed |H|/2
            else:
                join = tuple(anchor.closure_indices(subs[a] + subs[b]))
            if join not in subs:
                if len(subs) >= cap:
                    raise CapacityError(
                        f"subgroup walk exceeded the cap of {cap}",
                        cap_name="subgroup_cap", cap_value=cap,
                        reached=len(subs) + 1)
                gens = subs[a] + subs[b]
                if len(gens) > 4:
                    gens = Subgroup._from_closed(anchor, join).generating_indices()
                subs[join] = gens
                sets[join] = frozenset(join)
                order_list.append(join)
        i += 1

    out = sorted(subs, key=lambda k: (len(k), k))
    return SubgroupLattice(
        anchor=anchor, within=members,
        all=tuple(Subgroup._from_closed(anchor, k) for k in out))


def _is_normal(G: Group, H: Subgroup) -> bool:
    conj = G.conj_table
    hset = H.index_set
    for g in G.generators:
        row = conj[G.index_of(g)]
        if any(int(row[i]) not in hset for i in H.indices):
            return False
    return True


def normal_subgroups(G: Group, *, limits: Limits = DEFAULT_LIMITS) -> tuple[Subgroup, ...]:
    """Normal subgroups of G, sorted by (order, indices)."""
    if not isinstance(G, Group):
        raise ValidationError("normal_subgroups expects a Group")
    return tuple(H for H in all_subgroups(G, limits=limits).all if _is_normal(G, H))


def maximal_subgroups(H, *, limits: Limits = DEFAULT_LIMITS) -> tuple[Subgroup, ...]:
    """Maximal proper subgroups of H, sorted by (order, indices)."""
    lat = all_subgroups(H, limits=limits).all
    top = lat[-1]
    proper = [K for K in lat if K.order < top.order]
    out = []
    for K in proper:
        if not any(K.order < L.order < top.order and K.index_set <= L.index_set
                   for L in proper):
            out.append(K)
    return tuple(out)


@dataclass(frozen=True)
class ChiefFactor:
    """One factor M/L of a chief series, with its order and cyclicity."""

    below: Subgroup
    above: Subgroup
    order: int
    cyclic: bool


def chief_series_below(G: Group, N: Subgroup, *,
                       limits: Limits = DEFAULT_LIMITS) -> tuple[ChiefFactor, ...]:
    """A chief series of G running from 1 up to N (which must be normal).

    Each step is a minimal G-normal subgroup over the previous one, chosen
    lexicographically least, so the series is deterministic.
    """
    if N.parent is not G:
        raise ValidationError("N is not anchored to G")
    normals = normal_subgroups(G, limits=limits)
    if N not in normals:
        raise ValidationError("chief_series_below requires N normal in G")
    factors: list[ChiefFactor] = []
    current = G.trivial_subgroup()
    while current.order < N.order:
        candidates = [M for M in normals
                      if current.index_set < M.index_set
                      and M.index_set <= N.index_set]
        minimal = [M for M in candidates
                   if not any(current.index_set < K.index_set < M.index_set
                              for K in candidates)]
        step = min(minimal, key=lambda M: M.sort_key)
        factors.append(ChiefFactor(
            below=current, above=step,
            order=step.order // current.order,
            cyclic=cyclic_quotient(step, current)))
        current = step
    return tuple(factors)


def cyclic_quotient(M: Subgroup, L: Subgroup) -> bool:
    """Whether M/L is cyclic: some coset Lm generates the quotient, i.e.
    some single element m extends L to all of M.  Assumes L normal in M."""
    if M.order == L.order:
        return True
    anchor = M.parent
    lgens = L.generating_indices()
    for m in M.indices:
        if m in L.index_set:
            continue
        if len(anchor.closure_indices(lgens + (m,))) == M.order:
            return True
    return False


@dataclass(frozen=True)
class HypercenterCheck:
    """Outcome of the supersolvable-hypercenter membership test."""

    holds: bool
    factors: tuple[ChiefFactor, ...]


def lies_in_U_hypercenter(G: Group, N: Subgroup, *,
                          limits: Limits = DEFAULT_LIMITS) -> HypercenterCheck:
    """Whether every G-chief factor below N is cyclic.

    Only normal N is accepted; the factor list is returned as evidence either
    way.
    """
    factors = chief_series_below(G, N, limits=limits)
    return HypercenterCheck(holds=all(f.cyclic for f in factors), factors=factors)
