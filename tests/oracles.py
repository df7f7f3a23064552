"""Brute-force reference implementations used to confirm engine outputs.

Everything here works on raw permutation tuples with no help from the
package's Group/Subgroup machinery, so an agreement between an oracle and
the engine is evidence, not circularity.  These are deliberately slow and
only meant for desk-scale groups.  The exceptions are ``mul_table_oracle``,
``conj_table_oracle``, ``walk_lattice_oracle``, ``fusion_normal_oracle``,
``quotient_group_oracle``, ``normal_complement_oracle`` and
``pronormal_oracle``: they are the engine's earlier, slower constructions,
kept to check the faster ones that replaced them.
"""

from itertools import combinations

import numpy as np

from fusionsys.errors import CapacityError, EngineError, ValidationError
from fusionsys.fusion import PredicateReport
from fusionsys.groups import (Group, GroupMap, Subgroup, conjugate_images,
                              p_part, sylow_subgroup)
from fusionsys.lattice import SubgroupLattice, normal_subgroups
from fusionsys.perms import compose, conjugate, cycle_string, identity, inverse


def naive_closure(degree, gens):
    """Set of permutations generated by ``gens``, by plain BFS."""
    gens = list(gens)
    seen = {identity(degree)}
    frontier = [identity(degree)]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = compose(x, g)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def mul_table_oracle(elements):
    """``M[i, j]``, the index of ``elements[i] * elements[j]``, one product
    at a time by dictionary lookup; the reference for ``Group.mul_table``."""
    n = len(elements)
    P = np.array(elements, dtype=np.int64)
    table = np.empty((n, n), dtype=np.int64)
    lookup = {p: i for i, p in enumerate(elements)}
    for i in range(n):
        rows = P[:, P[i]].tolist()  # rows[j] = elements[i] * elements[j]
        table[i] = [lookup[tuple(r)] for r in rows]
    return table


def conj_table_oracle(mul, inv):
    """``C[g, i]``, the index of ``elements[g]^-1 * elements[i] *
    elements[g]``, one row per element g from the tables ``mul`` and
    ``inv``; the reference for ``Group.conjugates``."""
    n = len(inv)
    table = np.empty((n, n), dtype=np.int64)
    for g in range(n):
        table[g] = mul[mul[inv[g]], g]
    return table


def is_subgroup_set(members):
    """Closure test on an explicit set of permutations."""
    members = set(members)
    for a in members:
        for b in members:
            if compose(a, b) not in members:
                return False
    return bool(members)


def subgroups_by_subsets(G):
    """Every subgroup of G, found by testing all identity-containing subsets.

    Exponential; only for |G| <= 16 or so.  Returns a set of frozensets.
    """
    elements = list(G.elements)
    e = elements[0]
    rest = [x for x in elements if x != e]
    found = set()
    for r in range(len(rest) + 1):
        for combo in combinations(rest, r):
            cand = frozenset((e,) + combo)
            if G.order % len(cand) == 0 and is_subgroup_set(cand):
                found.add(cand)
    return found


def subgroups_by_pairs(G):
    """Every subgroup generated by at most two elements, as frozensets.

    For groups all of whose subgroups are 2-generated (checked where used),
    this enumerates the entire lattice independently of the engine's walk.
    """
    found = {frozenset(naive_closure(G.degree, ()))}
    elements = list(G.elements)
    for i, x in enumerate(elements):
        for y in elements[i:]:
            found.add(frozenset(naive_closure(G.degree, (x, y))))
    return found


def naive_normalizer(G, members):
    members = set(members)
    return {g for g in G.elements
            if {conjugate(x, g) for x in members} == members}


def naive_centralizer(G, members):
    return {g for g in G.elements
            if all(conjugate(x, g) == x for x in members)}


def naive_core(G, members):
    """Largest subset of ``members`` closed under conjugation by all of G."""
    core = {x for x in members
            if all(conjugate(x, g) in members for g in G.elements)}
    assert is_subgroup_set(core)
    return core


def naive_morphism_count(G, P_members, S_members):
    """Number of distinct conjugation maps P -> S: |T_G(P, S)| / |C_G(P)|."""
    transporter = [g for g in G.elements
                   if all(conjugate(x, g) in S_members for x in P_members)]
    centralizer = naive_centralizer(G, P_members)
    if not transporter:
        return 0
    assert len(transporter) % len(centralizer) == 0
    return len(transporter) // len(centralizer)


def naive_strongly_closed(G, S_members, Q_members):
    for x in Q_members:
        for g in G.elements:
            y = conjugate(x, g)
            if y in S_members and y not in Q_members:
                return False
    return True


def naive_weakly_closed(G, S_members, Q_members):
    Q = set(Q_members)
    for g in G.elements:
        img = {conjugate(x, g) for x in Q}
        if img <= set(S_members) and img != Q:
            return False
    return True


def naive_cyclic_quotient(M_members, L_members):
    """Is M/L cyclic?  True iff some coset of L generates M over L."""
    M, L = set(M_members), set(L_members)
    if M == L:
        return True
    for m in M - L:
        span = set(L)
        frontier = set(L)
        while frontier:
            nxt = set()
            for x in frontier:
                y = compose(x, m)
                if y not in span:
                    span.add(y)
                    nxt.add(y)
            frontier = nxt
        if span == M:
            return True
    return False


def naive_chain_exists(G, S_members, subgroup_sets):
    """Does a chain 1 = S0 < ... < Sn = S of strongly closed subgroups with
    cyclic quotients exist?  DFS over an explicit subgroup collection.
    """
    closed = [fs for fs in subgroup_sets
              if naive_strongly_closed(G, S_members, fs)]
    S = frozenset(S_members)

    def extend(current):
        if current == S:
            return True
        for nxt in closed:
            if len(nxt) > len(current) and current < nxt:
                if naive_cyclic_quotient(nxt, current) and extend(nxt):
                    return True
        return False

    e = identity(G.degree)
    return extend(frozenset([e]))


def naive_fusion_aut_group(G, P_members):
    """Aut_F(P) as a set of assignment tuples, plus the inner subset.

    Each automorphism is recorded as the tuple of images of the sorted
    member list, so composition can be done positionally without any
    engine code.
    """
    P = sorted(P_members)
    pos = {x: i for i, x in enumerate(P)}
    auts = set()
    for g in G.elements:
        img = [conjugate(x, g) for x in P]
        if set(img) == set(P_members):
            auts.add(tuple(pos[y] for y in img))
    inner = set()
    for h in P:
        img = [conjugate(x, h) for x in P]
        inner.add(tuple(pos[y] for y in img))
    return auts, inner


def naive_has_strongly_p_embedded(aut_tuples, p):
    """Strongly p-embedded subgroup search on a permutation-tuple group.

    ``aut_tuples`` is a group of index tuples under positional composition.
    Subgroups are enumerated by subset closure (the groups this is used on
    have order at most 24).
    """
    def comp(a, b):
        return tuple(b[i] for i in a)

    elements = sorted(aut_tuples)
    n = len(elements)
    if n % p:
        return False
    ident = tuple(range(len(elements[0])))
    subgroups = []
    # closure of every subset of a small generating pool: pairs suffice here
    for i in range(n):
        for j in range(i, n):
            span = {ident}
            frontier = [ident]
            while frontier:
                nxt = []
                for x in frontier:
                    for g in (elements[i], elements[j]):
                        y = comp(x, g)
                        if y not in span:
                            span.add(y)
                            nxt.append(y)
                frontier = nxt
            subgroups.append(frozenset(span))
    for H in set(subgroups):
        if len(H) == n or len(H) % p:
            continue
        good = True
        for x in elements:
            if x in H:
                continue
            xinv = next(y for y in elements if comp(x, y) == ident)
            Hx = {comp(comp(xinv, h), x) for h in H}
            if len(H & Hx) % p == 0:
                good = False
                break
        if good:
            return True
    return False


def walk_lattice_oracle(anchor, members, limits):
    """Every subgroup of the member set ``members`` of ``anchor``, by joining
    every pair of subgroups found to a fixed point; the reference for
    ``lattice._walk_lattice``.  Same result type and cap behaviour."""
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


def fusion_normal_oracle(ctx, Q):
    """Whether Q is normal in the fusion system of ``ctx``, by the extension
    property from the definition, checked morphism by morphism: every map
    P -> S induced by some g must also be induced by an h (same coset of
    C_G(P)) that normalizes Q.  The reference for ``is_fusion_normal``."""
    G = ctx.G
    q_idx = np.array(Q.indices)
    norm_Q = (np.sort(G.conjugates(q_idx), axis=1)
              == q_idx[np.newaxis, :]).all(axis=1)
    if not norm_Q[list(ctx.S.indices)].all():  # N_S(Q) = S
        return False
    mul = G.mul_rows
    for P in ctx.lattice_S.all:
        M = G.conjugates(P.indices)
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


def quotient_group_oracle(G, N, limits):
    """``G/N`` on right cosets with its projection, one element at a time
    through ``mul_rows`` and tuples; the reference for
    ``groups.quotient_group``."""
    n_idx = np.array(N.indices)
    conj = G.conjugates(n_idx)
    for g in G.generators:
        img = np.sort(conj[G.index_of(g)])
        if not (img == n_idx).all():
            raise ValidationError(
                f"subgroup is not normal: conjugation by {cycle_string(g)} "
                f"moves it")
    index = G.order // N.order
    if index > limits.degree_cap:
        raise CapacityError(
            f"quotient degree {index} exceeds the cap of {limits.degree_cap}",
            cap_name="degree_cap", cap_value=limits.degree_cap, reached=index)
    mul = G.mul_rows
    coset_of = [-1] * G.order
    reps = []
    for i in range(G.order):
        if coset_of[i] == -1:
            c = len(reps)
            reps.append(i)
            for n in N.indices:
                coset_of[mul[n][i]] = c
    # the permutation each x in G induces on the coset space
    images = {}
    for xi, x in enumerate(G.elements):
        images[x] = tuple(coset_of[mul[r][xi]] for r in reps)
    quot_elements = tuple(sorted(set(images.values())))
    gen_imgs = []
    for g in G.generators:
        img = images[g]
        if img not in gen_imgs and img != identity(index):
            gen_imgs.append(img)
    Q = Group(index, tuple(gen_imgs), quot_elements)
    proj = GroupMap(source=G, target=Q, assignment=images)
    if tuple(sorted(proj.kernel_members())) != N.members:
        raise ValidationError("projection kernel does not match N")
    return Q, proj


def normal_complement_oracle(G, p, limits):
    """The normal p-complement of G, or None, by scanning the normal
    subgroups for one of order |G| / |G|_p and re-verifying it (order, and
    a trivial meet with a Sylow p-subgroup); the reference for the
    p-nilpotency of ``classify_group``."""
    target = G.order // p_part(G.order, p)
    S = sylow_subgroup(G, p)
    complement = None
    for N in normal_subgroups(G, limits=limits):
        if N.order == target:
            complement = N
            break
    if complement is not None:
        if complement.order != target:
            raise ValidationError("complement has wrong order")
        if len(complement.index_set & S.index_set) != 1:
            raise ValidationError("complement meets the Sylow subgroup")
    return complement


def pronormal_oracle(G, H):
    """Whether H is pronormal in G, with the engine's witnesses: for each
    distinct conjugate K = H^g (least g), the least k of <H, K> with
    H^k = K, found by testing every k of <H, K> in turn; the reference for
    ``normality._pronormal``."""
    conj = G.conjugates(H.indices)
    witnesses = {}
    for key, g in conjugate_images(G, H).items():
        if key == H.indices:
            continue
        joint = G.closure_indices(
            H.generating_indices()
            + Subgroup._from_closed(G, key).generating_indices())
        found = None
        for k in joint:
            if tuple(sorted(conj[k].tolist())) == key:
                found = k
                break
        if found is None:
            return PredicateReport(kind="pronormal", holds=False, witness={
                "conjugator": G.elements[g],
                "image": Subgroup._from_closed(G, key),
            })
        witnesses[G.elements[g]] = G.elements[found]
    return PredicateReport(kind="pronormal", holds=True,
                           witness={"conjugators": witnesses})


def set_product(A_members, B_members):
    """The set product AB of two sets of permutations."""
    return {compose(a, b) for a in A_members for b in B_members}


def cyclic_prime_power_subgroups(G):
    """The distinct nontrivial cyclic subgroups of G of prime-power order,
    as frozensets of permutations, each from the powers of its generator."""
    found = set()
    for x in G.elements:
        powers = frozenset(naive_closure(G.degree, (x,)))
        n = len(powers)
        least_prime = next((q for q in range(2, n + 1) if n % q == 0), None)
        if least_prime and p_part(n, least_prime) == n:
            found.add(powers)
    return found
