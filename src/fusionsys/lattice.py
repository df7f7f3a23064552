"""Subgroup lattices, normal/maximal subgroups, chief factors, hypercenter.

The lattice walk is the cyclic extension method (Neubüser 1960; Holt, Eick
and O'Brien, *Handbook of Computational Group Theory*, 2005, ch. 3), run up
to conjugacy.  Every subgroup is a join of cyclic subgroups of prime-power
order, so the walk joins one representative of each conjugacy class found
with those cyclic subgroups only, and adds every new join together with its
whole orbit under conjugation by the walked group, read off the
conjugation-table rows of that group's generators.  Results are sorted by
(order, index tuple) and memoized on the anchor group, keyed by the member
set walked.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ValidationError
from .groups import Group, Subgroup, prime_divisors
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
    would be emitted.  A walk that passes the cap is remembered with that
    cap: the walk is deterministic, so a later call with a cap no larger
    raises the same error without walking, and a larger cap walks again.
    """
    anchor, members = _anchor_and_members(H)
    cap = limits.subgroup_cap
    key = ("lattice", members)
    lattice = anchor.memo(key, lambda: _walk_within(H, anchor, members, cap))
    if isinstance(lattice, int) and cap > lattice:
        # a walk under a smaller cap passed it: this cap walks again
        lattice = anchor._memo[key] = _walk_within(H, anchor, members, cap)
    if isinstance(lattice, int):
        raise _walk_overflow(cap)
    if len(lattice.all) > cap:
        raise CapacityError(
            f"lattice holds {len(lattice.all)} subgroups, over the cap of "
            f"{cap}", cap_name="subgroup_cap", cap_value=cap,
            reached=len(lattice.all))
    return lattice


def _walk_within(H, anchor: Group, members: tuple[int, ...], cap: int):
    """The lattice of H, or ``cap`` when the walk passes it."""
    try:
        return _walk_lattice(anchor, members, H.generating_indices(), cap)
    except CapacityError:
        return cap


def _walk_overflow(cap: int) -> CapacityError:
    # the walk stops as it would add subgroup cap + 1
    return CapacityError(f"subgroup walk exceeded the cap of {cap}",
                         cap_name="subgroup_cap", cap_value=cap,
                         reached=cap + 1)


def _walk_lattice(anchor: Group, members: tuple[int, ...],
                  gens: tuple[int, ...], cap: int) -> SubgroupLattice:
    """The subgroups of H = <gens>, whose members are ``members``, by cyclic
    extension up to conjugacy in H (Neubüser 1960; Holt, Eick and O'Brien,
    *Handbook of Computational Group Theory*, 2005, ch. 3).

    A queue holds one representative R per conjugacy class found, starting
    from the trivial group.  Each R is joined with the cyclic subgroups <x>
    of H of prime-power order, x not in R.  A join that is not found yet is
    added together with its whole H-orbit, and it joins the queue as that
    class's representative.  Orbits are breadth-first walks over the
    conjugation rows of ``gens``, so a walk inside a subgroup conjugates by
    that subgroup's members only.  A join whose product set |R||<x>|/|R meet
    <x>| exceeds |H|/2 is H itself, and is not computed.  Each cyclic
    subgroup, like each join, is a ``closure_indices`` call, so the walk
    fetches one multiplication row per cyclic subgroup, not per member.

    Completeness: a subgroup K is generated by cyclic subgroups C_1, ...,
    C_k of prime-power order, since every cyclic group is generated by its
    Sylow subgroups.  By induction on k, K' = <C_1, ..., C_(k-1)> = R^g for a
    representative R and some g in H.  Then K = <R, C_k^(g^-1)>^g, and
    <R, C_k^(g^-1)> is conjugate under R to a join that was tried, because
    <R, C^r> = <R, C>^r for r in R: one cyclic subgroup per R-orbit is
    joined.  The found set only ever grows by whole orbits, so K, which lies
    in the orbit of that join, is found.

    Raises CapacityError as soon as more than ``cap`` subgroups are found,
    also in the middle of an orbit.
    """
    conj = _ConjRows(anchor.conjugates(members), members)
    orders = anchor.element_orders
    total = len(members)

    # distinct cyclic subgroups of prime-power order, each closed once from
    # its least generator x; cyclic_of[y] numbers the cyclic subgroup y
    # generates.  <x> has one subgroup of each order, so its generators
    # are its members of order |<x>|
    cyclics: list[tuple[tuple[int, ...], int]] = []
    cyclic_of: dict[int, int] = {}
    for x in members:
        if x in cyclic_of or len(prime_divisors(orders[x])) != 1:
            continue
        key = anchor.closure_indices((x,))
        for y in key:
            if orders[y] == len(key):
                cyclic_of[y] = len(cyclics)
        cyclics.append((key, x))

    rows = [conj[g] for g in sorted(set(gens) - {0})]
    found: set[tuple[int, ...]] = set()
    _add_orbit(found, (0,), rows, cap)
    queue: list[tuple[tuple[int, ...], tuple[int, ...]]] = [((0,), ())]
    for rep, rep_gens in queue:  # the queue grows while it is walked
        rset = frozenset(rep)
        r = len(rep)
        rep_rows = [conj[g] for g in rep_gens]
        tried: set[int] = set()
        for c, (ckey, x) in enumerate(cyclics):
            if c in tried or x in rset:
                continue
            _mark_orbit(tried, x, rep_rows, cyclic_of)
            meet = len(rset.intersection(ckey))
            if meet == r:
                join = ckey  # R <= <x>
            elif 2 * r * len(ckey) > total * meet:
                join = members  # no proper subgroup exceeds |H|/2
            else:
                join = anchor.closure_indices(rep_gens + (x,))
            if join not in found:
                _add_orbit(found, join, rows, cap)
                queue.append((join, rep_gens + (x,)))

    out = sorted(found, key=lambda k: (len(k), k))
    return SubgroupLattice(
        anchor=anchor, within=members,
        all=tuple(Subgroup._from_closed(anchor, k) for k in out))


class _ConjRows(dict):
    """``rows[g][i]`` is the index of ``elements[g]^-1 * elements[i] *
    elements[g]`` for each walked member i, read from ``columns``, the
    conjugation columns of the members.  Each row is a dict over the members
    only, built on first use; a full-length list per row would cost a large
    anchor more than a small walk inside it."""

    __slots__ = ("_columns", "_members")

    def __init__(self, columns: np.ndarray, members: tuple[int, ...]):
        super().__init__()
        self._columns = columns
        self._members = members

    def __missing__(self, g: int) -> dict[int, int]:
        row = self[g] = dict(zip(self._members, self._columns[g].tolist()))
        return row


def _mark_orbit(tried: set, x: int, rows: list[dict[int, int]],
                cyclic_of: dict[int, int]) -> None:
    """Mark the cyclic subgroups conjugate to <x> under ``rows`` as tried."""
    tried.add(cyclic_of[x])
    frontier = [x]
    while frontier:
        nxt = []
        for y in frontier:
            for row in rows:
                z = row[y]
                c = cyclic_of[z]
                if c not in tried:
                    tried.add(c)
                    nxt.append(z)
        frontier = nxt


def _add_orbit(found: set, key: tuple[int, ...], rows: list[dict[int, int]],
               cap: int) -> None:
    """Add ``key`` and its images under the conjugation ``rows`` to
    ``found``, breadth first; raise as soon as ``found`` would pass ``cap``."""

    def add(K: tuple[int, ...]) -> None:
        if len(found) >= cap:
            raise _walk_overflow(cap)
        found.add(K)

    add(key)
    frontier = [key]
    while frontier:
        nxt = []
        for K in frontier:
            for row in rows:
                img = tuple(sorted([row[i] for i in K]))
                if img not in found:
                    add(img)
                    nxt.append(img)
        frontier = nxt


def _is_normal(rows: list[list[int]], H: Subgroup) -> bool:
    """Whether the conjugation ``rows`` of G's generators keep H inside."""
    hset = H.index_set
    return all(row[i] in hset for row in rows for i in H.indices)


def normal_subgroups(G: Group, *, limits: Limits = DEFAULT_LIMITS) -> tuple[Subgroup, ...]:
    """Normal subgroups of G, sorted by (order, indices), memoized on G."""
    if not isinstance(G, Group):
        raise ValidationError("normal_subgroups expects a Group")
    # first, so that a cap below the lattice's size raises on a memo hit too
    lattice = all_subgroups(G, limits=limits).all

    def scan() -> tuple[Subgroup, ...]:
        mul, inv = G.mul_table, G.inv_vector
        # the conjugation row of g, x -> g^-1 (x g), in O(n)
        rows = [mul[inv[g], mul[:, g]].tolist()
                for g in G.generating_indices()]
        return tuple(H for H in lattice if _is_normal(rows, H))
    return G.memo(("normal_subgroups",), scan)


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
