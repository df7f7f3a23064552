import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from fusionsys import (CORPUS, DEFAULT_LIMITS, CapacityError, Limits,
                       Subgroup, ValidationError, all_subgroups, alternating,
                       builtin_group, chief_series_below, classify_group,
                       cyclic,
                       cyclic_quotient, dicyclic, dihedral, direct_product,
                       elementary_abelian, frobenius21, heisenberg,
                       lies_in_U_hypercenter, maximal_subgroups,
                       normal_subgroups, normalizer, prime_divisors, psl2,
                       quotient_group, structure_flags, sylow_subgroup,
                       symmetric)
from fusionsys import lattice as lattice_mod
from fusionsys.perms import from_cycles
from fusionsys.verify import REGISTRY_ORDER, run_suite


def members_set(lattice):
    return {frozenset(H.members) for H in lattice.all}


@pytest.mark.parametrize("build,count", [
    (lambda: dihedral(8), 10),
    (lambda: dicyclic(8), 6),
    (lambda: cyclic(12), 6),
    (lambda: elementary_abelian(2, 2), 5),
])
def test_counts_match_subset_oracle(build, count):
    G = build()
    lattice = all_subgroups(G)
    assert members_set(lattice) == oracles.subgroups_by_subsets(G)
    assert len(lattice) == count


@pytest.mark.parametrize("build,count", [
    (lambda: symmetric(4), 30),
    (lambda: alternating(4), 10),
    (lambda: heisenberg(3), 19),
    (lambda: direct_product(symmetric(3), cyclic(3)), 14),
])
def test_counts_match_pair_oracle(build, count):
    # every subgroup of these groups is generated by at most two elements,
    # which the agreement of the two enumerations itself confirms
    G = build()
    lattice = all_subgroups(G)
    assert members_set(lattice) == oracles.subgroups_by_pairs(G)
    assert len(lattice) == count


def test_psl27_lattice_count():
    # value confirmed once against the pair oracle (all subgroups of this
    # group are 2-generated), then frozen; the oracle run takes minutes
    assert len(all_subgroups(psl2(7))) == 179


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 23), st.integers(0, 23))
def test_lattice_complete_for_generated_pairs(i, j):
    G = symmetric(4)
    lattice = all_subgroups(G)
    H = Subgroup(G, G.closure_indices([i, j]))
    assert any(H == K for K in lattice.all)


def test_of_order_and_over():
    G = symmetric(4)
    lattice = all_subgroups(G)
    assert len(lattice.of_order(2)) == 9
    assert len(lattice.of_order(4)) == 7
    v = next(H for H in lattice.of_order(4)
             if structure_flags(H).elementary_abelian
             and len(normal_subgroups(G)) and H in normal_subgroups(G))
    over = lattice.over(v)
    assert sorted(H.order for H in over) == [4, 8, 8, 8, 12, 24]


def test_normal_subgroups():
    G = symmetric(4)
    assert sorted(N.order for N in normal_subgroups(G)) == [1, 4, 12, 24]
    A = alternating(4)
    assert sorted(N.order for N in normal_subgroups(A)) == [1, 4, 12]


def test_normal_subgroups_are_memoized_on_the_group(monkeypatch):
    # classify_group reads them for the chief series, at every prime
    tested = []
    is_normal = lattice_mod._is_normal
    monkeypatch.setattr(lattice_mod, "_is_normal",
                        lambda rows, H: tested.append(H) or is_normal(rows, H))
    G = symmetric(4)
    for p in (2, 3):
        classify_group(G, p)
    assert len(tested) == len(all_subgroups(G)) == 30
    assert normal_subgroups(G) is normal_subgroups(G)
    assert len(tested) == 30
    # a memo hit still checks the lattice against a smaller cap
    tight = DEFAULT_LIMITS.scaled(subgroup_cap=29)
    with pytest.raises(CapacityError) as err:
        normal_subgroups(G, limits=tight)
    assert (err.value.cap_name, err.value.reached) == ("subgroup_cap", 30)
    with pytest.raises(CapacityError):
        classify_group(G, 2, limits=tight)


def test_normal_subgroups_read_generator_rows_only(monkeypatch):
    # a full walk has built the conjugates of every member already; the
    # normality scan reads only the generators' rows, built from mul_table
    G = symmetric(5)
    lattice = all_subgroups(G).all
    sizes = []
    conjugates = G.conjugates
    monkeypatch.setattr(G, "conjugates",
                        lambda idx: sizes.append(len(idx)) or conjugates(idx))
    got = normal_subgroups(G)
    assert G.order not in sizes
    assert got == tuple(H for H in lattice
                        if normalizer(G, H).order == G.order)
    assert [N.order for N in got] == [1, 60, 120]


@pytest.mark.parametrize("build,count", [
    (lambda: symmetric(6), 241), (lambda: alternating(5), 31),
    (lambda: direct_product(dihedral(8), cyclic(2)), 13),
], ids=["S6", "A5", "D8xC2"])
def test_full_walk_fetches_one_row_per_cyclic_subgroup(build, count):
    # each cyclic subgroup of prime-power order is closed once, and every
    # join is a closure of such generators: mul_rows holds one row per
    # cyclic subgroup, not one per member (S6: 241 rows, not 719)
    G = build()
    all_subgroups(G)
    assert len(oracles.cyclic_prime_power_subgroups(G)) == count
    assert len(G.mul_rows) == count


def test_maximal_subgroups():
    G = symmetric(4)
    ms = maximal_subgroups(G)
    assert sorted(H.order for H in ms) == [6, 6, 6, 6, 8, 8, 8, 12]
    S = all_subgroups(G).of_order(8)[0]
    inside = maximal_subgroups(S)
    assert sorted(H.order for H in inside) == [4, 4, 4]


def test_subgroup_cap():
    with pytest.raises(CapacityError) as err:
        all_subgroups(symmetric(4),
                      limits=Limits(order_cap=5000, degree_cap=64,
                                    subgroup_cap=5))
    assert err.value.cap_name == "subgroup_cap"
    assert err.value.reached == 6


def test_subgroup_cap_stops_a_large_walk():
    # S6 has 1455 subgroups; the walk stops once it has found 1001
    with pytest.raises(CapacityError) as err:
        all_subgroups(symmetric(6), limits=DEFAULT_LIMITS.scaled(
            subgroup_cap=1000))
    assert err.value.reached == 1001


def _count_walks(monkeypatch) -> list:
    walks = []
    walk = lattice_mod._walk_lattice

    def counted(*args):
        walks.append(args[1])
        return walk(*args)
    monkeypatch.setattr(lattice_mod, "_walk_lattice", counted)
    return walks


def test_a_capped_walk_fails_once(monkeypatch):
    # E16 has 67 subgroups: every theorem reads the lattice of S = G and
    # hits the cap, but the walk itself runs once
    walks = _count_walks(monkeypatch)
    tight = DEFAULT_LIMITS.scaled(subgroup_cap=50)
    suite = run_suite([("E16", elementary_abelian(2, 4))], limits=tight)
    assert suite.entry_errors == tuple(
        {"group": "E16", "prime": 2, "theorem": tid,
         "error": "subgroup walk exceeded the cap of 50"}
        for tid in REGISTRY_ORDER)
    assert len(walks) == 1


def test_capped_walk_record_covers_smaller_caps(monkeypatch):
    def at(cap):
        return DEFAULT_LIMITS.scaled(subgroup_cap=cap)

    with pytest.raises(CapacityError) as fresh:
        all_subgroups(symmetric(4), limits=at(5))
    walks = _count_walks(monkeypatch)
    G = symmetric(4)  # 30 subgroups
    with pytest.raises(CapacityError):
        all_subgroups(G, limits=at(10))
    with pytest.raises(CapacityError) as again:
        all_subgroups(G, limits=at(5))
    assert len(walks) == 1
    assert str(again.value) == str(fresh.value)
    assert ((again.value.cap_name, again.value.cap_value,
             again.value.reached) == ("subgroup_cap", 5, 6)
            == (fresh.value.cap_name, fresh.value.cap_value,
                fresh.value.reached))
    # a larger cap walks again, and its lattice is kept
    assert len(all_subgroups(G, limits=at(30))) == 30
    assert all_subgroups(G) is all_subgroups(G, limits=at(30))
    assert len(walks) == 2


def _oracle_indices(anchor, members):
    lattice = oracles.walk_lattice_oracle(anchor, members, DEFAULT_LIMITS)
    return [H.indices for H in lattice.all]


def _walk_indices(H):
    return [K.indices for K in all_subgroups(H).all]


@pytest.mark.parametrize("spec", [entry.spec for entry in CORPUS] + [
    "symmetric(5)",
    "direct_product(alternating(5), cyclic(2))",
    "direct_product(alternating(4), alternating(4))",
    "direct_product(symmetric(4), symmetric(3))",
])
def test_walk_matches_pairwise_oracle(spec):
    G = builtin_group(spec)
    assert _walk_indices(G) == _oracle_indices(G, tuple(range(G.order)))
    for p in prime_divisors(G.order):
        S = sylow_subgroup(G, p)
        assert _walk_indices(S) == _oracle_indices(G, S.indices)


@pytest.fixture(scope="module")
def s6():
    return symmetric(6)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 719), st.integers(0, 719))
def test_walk_matches_oracle_on_subgroups_of_s6(s6, i, j):
    # walked inside S6 (conjugating by H only) and as a group of its own
    H = Subgroup(s6, s6.closure_indices([i, j]))
    assume(H.order <= 168)
    assert _walk_indices(H) == _oracle_indices(s6, H.indices)
    Hg = H.as_group()
    assert _walk_indices(Hg) == _oracle_indices(Hg, tuple(range(Hg.order)))


def test_chief_series_s4():
    G = symmetric(4)
    series = chief_series_below(G, G.full_subgroup())
    orders = [f.above.order // f.below.order for f in series]
    assert orders == [4, 3, 2]
    assert [f.cyclic for f in series] == [False, True, True]


def test_chief_series_validates_normality():
    G = symmetric(4)
    c4 = Subgroup(G, G.closure_indices(
        [G.index_of(from_cycles(4, [[0, 1, 2, 3]]))]))
    with pytest.raises(ValidationError):
        chief_series_below(G, c4)


def all_chief_factor_multisets(G, N):
    """Every chief series below N, by DFS; used for the invariance check."""
    normals = [M for M in normal_subgroups(G) if set(M.members) <= set(N.members)]

    def minimal_steps(current):
        bigger = [M for M in normals
                  if M.order > current.order
                  and set(current.members) <= set(M.members)]
        out = []
        for M in bigger:
            if not any(set(K.members) < set(M.members)
                       and K.order > current.order
                       and set(current.members) <= set(K.members)
                       for K in bigger):
                out.append(M)
        return out

    results = set()

    def walk(current, factors):
        if current.order == N.order:
            results.add(tuple(sorted(factors)))
            return
        for M in minimal_steps(current):
            walk(M, factors + [M.order // current.order])

    walk(G.trivial_subgroup(), [])
    return results


@pytest.mark.parametrize("build", [
    lambda: symmetric(4),
    lambda: dicyclic(12),
    lambda: direct_product(symmetric(3), cyclic(3)),
    lambda: heisenberg(3),
])
def test_chief_factor_orders_invariant(build):
    # the multiset of chief factor orders does not depend on the series
    G = build()
    multisets = all_chief_factor_multisets(G, G.full_subgroup())
    assert len(multisets) == 1
    series = chief_series_below(G, G.full_subgroup())
    got = tuple(sorted(f.above.order // f.below.order for f in series))
    assert got in multisets


def test_cyclic_quotient_matches_quotient_group():
    G = symmetric(4)
    lattice = all_subgroups(G)
    for M in lattice.all:
        Mg = M.as_group()
        for L in normal_subgroups(Mg):
            L_in_G = Subgroup(G, tuple(sorted(
                G.index_of(Mg.elements[i]) for i in L.indices)))
            got = cyclic_quotient(M, L_in_G)
            Q, _ = quotient_group(Mg, L)
            assert got == structure_flags(Q).cyclic
            assert got == oracles.naive_cyclic_quotient(
                set(M.members), set(L_in_G.members))


def test_hypercenter_known_values():
    S4 = symmetric(4)
    v4 = next(N for N in normal_subgroups(S4) if N.order == 4)
    # the Klein chief factor has order 4, which is not prime
    assert not lies_in_U_hypercenter(S4, v4).holds

    S3 = symmetric(3)
    a3 = next(N for N in normal_subgroups(S3) if N.order == 3)
    # inversion is a power automorphism on C3
    assert lies_in_U_hypercenter(S3, a3).holds

    F = frobenius21()
    c7 = next(N for N in normal_subgroups(F) if N.order == 7)
    # x -> x^2 is a power automorphism on C7
    assert lies_in_U_hypercenter(F, c7).holds

    D8 = dihedral(8)
    z = next(N for N in normal_subgroups(D8) if N.order == 2)
    assert lies_in_U_hypercenter(D8, z).holds


def test_hypercenter_monotone_under_contained_normals():
    for G in (symmetric(4), dicyclic(12), heisenberg(3)):
        normals = normal_subgroups(G)
        for N in normals:
            if not lies_in_U_hypercenter(G, N).holds:
                continue
            for M in normals:
                if set(M.members) <= set(N.members):
                    assert lies_in_U_hypercenter(G, M).holds
