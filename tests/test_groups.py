import mmap
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from fusionsys import (CORPUS, DEFAULT_LIMITS, CapacityError, EngineError,
                       Group, Limits, Subgroup, ValidationError, all_subgroups,
                       alternating, builtin_group, cyclic, heisenberg,
                       centralizer, conjugate_subgroup, core, generate_group,
                       normal_subgroups, normalizer, prime_divisors,
                       quotient_group, structure_flags,
                       subgroup_label, subgroup_product, sylow_subgroup,
                       symmetric)
from fusionsys.perms import (compose, from_cycles, identity, inverse,
                             perm_order)


def S4():
    return symmetric(4)


def test_generate_group_s4():
    G = S4()
    assert G.order == 24
    assert G.degree == 4
    assert G.elements[0] == identity(4)
    assert set(G.elements) == oracles.naive_closure(4, G.generators)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.permutations(range(5)).map(tuple), min_size=1, max_size=3))
def test_closure_matches_oracle(gens):
    G = generate_group(5, gens)
    assert set(G.elements) == oracles.naive_closure(5, gens)


def test_generate_group_validation():
    assert generate_group(4, []).order == 1
    with pytest.raises(ValidationError):
        generate_group(4, [(0, 0, 1, 2)])
    with pytest.raises(ValidationError):
        generate_group(4, [(0, 1, 2)])  # wrong degree


def test_order_cap():
    # the walk stops at the first element past the cap, whatever a level of
    # it would have found
    with pytest.raises(CapacityError) as small:
        generate_group(4, [(1, 0, 2, 3), (1, 2, 3, 0)],
                       limits=Limits(order_cap=10, degree_cap=64,
                                     subgroup_cap=100))
    assert (small.value.cap_name, small.value.cap_value,
            small.value.reached) == ("order_cap", 10, 11)
    with pytest.raises(CapacityError) as large:
        symmetric(8)  # order 40320 under the default cap of 5000
    assert (large.value.cap_name, large.value.cap_value,
            large.value.reached) == ("order_cap", 5000, 5001)


def test_degree_cap():
    with pytest.raises(CapacityError):
        generate_group(70, [identity(70)])


def test_tables_consistent():
    G = S4()
    mul = G.mul_table
    inv = G.inv_vector
    conj = G.conj_table
    els = G.elements
    for i in (0, 3, 11, 23):
        for j in (0, 5, 17):
            assert els[mul[i, j]] == compose(els[i], els[j])
        assert mul[i, inv[i]] == 0
        for g in (1, 9):
            lhs = els[conj[g, i]]
            rhs = compose(compose(els[inv[g]], els[i]), els[g])
            assert lhs == rhs


# groups of degree 300, above what a byte holds: _automizer widens
# degree_cap to |N| for its quotients, so points can pass 255
_DEGREE_300 = Limits(degree_cap=300)


def _cycle_300():
    return generate_group(300, [from_cycles(300, [list(range(300))])],
                          limits=_DEGREE_300)


def _s3_times_c4_on_300_points():
    # S3 on the three highest points, C4 on the four lowest
    gens = [from_cycles(300, [[297, 298]]),
            from_cycles(300, [[297, 298, 299]]),
            from_cycles(300, [[0, 1, 2, 3]])]
    return generate_group(300, gens, limits=_DEGREE_300)


def _table_cases():
    cases = [(entry.name, lambda spec=entry.spec: builtin_group(spec))
             for entry in CORPUS]
    cases.append(("A7", lambda: alternating(7)))
    cases.append(("Heis3", lambda: heisenberg(3)))  # degree 27
    cases.append(("C300", _cycle_300))
    cases.append(("S3xC4 on 300", _s3_times_c4_on_300_points))
    cases.append(("1 on 4 points", lambda: generate_group(4, [])))
    cases.append(("C1", lambda: cyclic(1)))

    def s4_mod_v4():
        G = S4()
        v = Subgroup(G, G.closure_indices([
            G.index_of(from_cycles(4, [[0, 1], [2, 3]])),
            G.index_of(from_cycles(4, [[0, 2], [1, 3]]))]))
        return quotient_group(G, v)[0]

    def sylow_of_s4():
        return sylow_subgroup(S4(), 2).as_group()

    def trivial_of_s4():
        return S4().trivial_subgroup().as_group()  # generator: the identity

    cases += [("S4/V4", s4_mod_v4), ("Syl2(S4)", sylow_of_s4),
              ("1<S4", trivial_of_s4)]
    return cases


@pytest.mark.parametrize("build", [b for _, b in _table_cases()],
                         ids=[name for name, _ in _table_cases()])
def test_tables_match_oracle(build):
    G = build()
    M = oracles.mul_table_oracle(G.elements)
    assert np.array_equal(G.mul_table, M)
    inv = np.array([G.index_of(inverse(x)) for x in G.elements])
    assert np.array_equal(G.inv_vector, inv)
    conj = oracles.conj_table_oracle(M, inv)
    n = G.order
    # a negative index names the same member as in numpy indexing
    assert np.array_equal(G.conjugates([-1, n - 1]), conj[:, [-1, n - 1]])
    # unsorted requests with repeats and columns already built grow the
    # block; the last one completes it and the table is read in element order
    built: list[int] = []
    for part in np.array_split(np.random.default_rng(n).permutation(n), 3):
        req = np.concatenate([part, built[:2], part[:1]]).astype(np.int64)
        assert np.array_equal(G.conjugates(req), conj[:, req])
        built.extend(part.tolist())
        assert np.array_equal(G.conjugates(built), conj[:, built])
    assert G._conj is not None
    assert np.array_equal(G.conj_table, conj)
    for i in (0, n // 2, n - 1):
        assert G.mul_rows[i] == M[i].tolist()


def _construction_cases():
    return _table_cases() + [("S6", lambda: symmetric(6))]


@pytest.mark.parametrize("build", [b for _, b in _construction_cases()],
                         ids=[name for name, _ in _construction_cases()])
def test_construction_matches_oracles(build):
    G = build()
    assert G.elements == tuple(sorted(oracles.naive_closure(G.degree,
                                                            G.generators)))
    assert G.element_orders == tuple(perm_order(x) for x in G.elements)
    inv = [G.index_of(inverse(x)) for x in G.elements]
    assert G.inv_vector.tolist() == inv


def test_large_tables_have_their_own_mapping():
    # a table of at least 4 MiB must not sit on the malloc heap, where a
    # freed table stays resident; smaller ones are plain numpy arrays
    G = alternating(7)  # a 2520 x 2520 int16 table is 12 MB
    assert isinstance(G.mul_table.base, mmap.mmap)
    assert G.mul_table.flags.writeable
    G.conj_table
    assert isinstance(G._conj.base, mmap.mmap)
    S = symmetric(6)  # 1 MB
    S.conj_table
    assert S.mul_table.base is None
    assert S._conj.base is None


def test_conjugates_threads_share_one_group():
    # four threads grow, complete and read the conjugation columns of one
    # Group at once; every result must still match the oracle
    G = alternating(6)  # order 360: the block grows from 16 columns
    M = oracles.mul_table_oracle(G.elements)
    inv = np.array([G.index_of(inverse(x)) for x in G.elements])
    conj = oracles.conj_table_oracle(M, inv)
    n = G.order
    requests = [[rng.permutation(n)[:k] for k in (3, 10, 30, 90, n)]
                for rng in map(np.random.default_rng, range(4))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(20):
            fresh = Group(G.degree, G.generators, G.elements)
            results: list[tuple] = []

            def work(reqs, group=fresh, out=results):
                for req in reqs:
                    out.append((req, group.conjugates(req)))

            threads = [threading.Thread(target=work, args=(reqs,))
                       for reqs in requests]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert len(results) == 4 * 5
            for req, got in results:
                assert np.array_equal(got, conj[:, req])
    finally:
        sys.setswitchinterval(interval)


def test_tables_reject_generators_that_do_not_generate():
    S = S4()
    t = from_cycles(4, [[0, 1]])
    with pytest.raises(EngineError):
        Group(4, (t,), S.elements).mul_table  # <(01)> is not S4
    with pytest.raises(EngineError):
        Group(4, (), S.elements).mul_table
    c3 = generate_group(4, [from_cycles(4, [[0, 1, 2]])])
    with pytest.raises(EngineError):
        Group(4, (t,), c3.elements).mul_table  # (01) is not an element


def test_subgroup_constructor_validates():
    G = S4()
    t = G.index_of(from_cycles(4, [[0, 1]]))
    with pytest.raises(ValidationError):
        Subgroup(G, (0, t, 5000))
    # not closed: {e, (01), (12)} misses (012)
    u = G.index_of(from_cycles(4, [[1, 2]]))
    with pytest.raises(ValidationError):
        Subgroup(G, (0, t, u))


def test_subgroup_cross_parent_compare():
    A = S4()
    B = symmetric(3)
    HA = A.trivial_subgroup()
    HB = B.trivial_subgroup()
    with pytest.raises(ValidationError):
        HA == HB


def test_normalizer_centralizer_core_match_oracle():
    G = S4()
    H = Subgroup(G, G.closure_indices(
        [G.index_of(from_cycles(4, [[0, 1, 2, 3]]))]))
    assert {G.elements[i] for i in normalizer(G, H).indices} == \
        oracles.naive_normalizer(G, H.members)
    assert {G.elements[i] for i in centralizer(G, H).indices} == \
        oracles.naive_centralizer(G, H.members)
    assert {G.elements[i] for i in core(G, H).indices} == \
        oracles.naive_core(G, H.members)


def test_normalizer_is_memoized_on_the_group():
    G = S4()
    H = Subgroup(G, G.closure_indices(
        [G.index_of(from_cycles(4, [[0, 1]]))]))
    scans = []
    conjugates = G.conjugates
    G.conjugates = lambda idx: scans.append(idx) or conjugates(idx)
    N = normalizer(G, H)
    assert normalizer(G, H) is N
    assert len(scans) == 1
    assert N.order == 4


def test_core_of_klein_in_s4():
    G = S4()
    # the non-normal Klein four-group <(01),(23)> has trivial core
    k = Subgroup(G, G.closure_indices([
        G.index_of(from_cycles(4, [[0, 1]])),
        G.index_of(from_cycles(4, [[2, 3]]))]))
    assert core(G, k).order == 1
    # the double-transposition Klein group is normal, so equals its own core
    v = Subgroup(G, G.closure_indices([
        G.index_of(from_cycles(4, [[0, 1], [2, 3]])),
        G.index_of(from_cycles(4, [[0, 2], [1, 3]]))]))
    assert core(G, v) == v


def test_sylow_subgroup_orders():
    G = S4()
    assert sylow_subgroup(G, 2).order == 8
    assert sylow_subgroup(G, 3).order == 3
    assert sylow_subgroup(G, 5).order == 1


def test_sylow_subgroups_are_conjugate():
    G = S4()
    base = sylow_subgroup(G, 2)
    sylows = all_subgroups(G).of_order(8)
    assert len(sylows) == 3 and base in sylows
    for other in sylows:
        assert any(conjugate_subgroup(base, g) == other for g in G.elements)


def test_sylow_prime_validation():
    with pytest.raises(ValidationError):
        sylow_subgroup(S4(), 4)
    with pytest.raises(ValidationError):
        sylow_subgroup(S4(), 1)


def test_quotient_group_is_homomorphism():
    G = S4()
    v = Subgroup(G, G.closure_indices([
        G.index_of(from_cycles(4, [[0, 1], [2, 3]])),
        G.index_of(from_cycles(4, [[0, 2], [1, 3]]))]))
    Q, proj = quotient_group(G, v)
    assert Q.order == 6
    assert proj.is_homomorphism()
    assert set(proj.kernel_members()) == set(v.members)


def test_quotient_group_rejects_non_normal():
    G = S4()
    c4 = Subgroup(G, G.closure_indices(
        [G.index_of(from_cycles(4, [[0, 1, 2, 3]]))]))
    with pytest.raises(ValidationError):
        quotient_group(G, c4)


def test_subgroup_product():
    G = S4()
    v = Subgroup(G, G.closure_indices([
        G.index_of(from_cycles(4, [[0, 1], [2, 3]])),
        G.index_of(from_cycles(4, [[0, 2], [1, 3]]))]))
    s3 = Subgroup(G, G.closure_indices([
        G.index_of(from_cycles(4, [[0, 1]])),
        G.index_of(from_cycles(4, [[0, 1, 2]]))]))
    assert subgroup_product(v, s3).order == 24
    # two C4s whose set product is not a subgroup
    a = Subgroup(G, G.closure_indices(
        [G.index_of(from_cycles(4, [[0, 1, 2, 3]]))]))
    b = Subgroup(G, G.closure_indices(
        [G.index_of(from_cycles(4, [[0, 2, 1, 3]]))]))
    with pytest.raises(ValidationError):
        subgroup_product(a, b)


def test_structure_flags_and_labels():
    G = S4()
    flags = structure_flags(G)
    assert not flags.abelian and not flags.cyclic
    S = sylow_subgroup(G, 2)
    assert subgroup_label(S) == "D8"
    assert subgroup_label(G.trivial_subgroup()) == "1"
    c4 = Subgroup(G, G.closure_indices(
        [G.index_of(from_cycles(4, [[0, 1, 2, 3]]))]))
    f4 = structure_flags(c4)
    assert f4.cyclic and f4.abelian and f4.exponent == 4
    assert subgroup_label(c4) == "C4"
    assert f4.is_p_group(2) and not f4.is_p_group(3)


def _c8_extension(multiplier):
    """C8 extended by x -> multiplier*x, acting on Z/8 (order 16)."""
    return generate_group(8, [tuple((x + 1) % 8 for x in range(8)),
                              tuple(multiplier * x % 8 for x in range(8))])


def test_dihedral_label_counts_involutions():
    dihedral16 = _c8_extension(7)
    semidihedral16 = _c8_extension(3)
    modular16 = _c8_extension(5)
    assert structure_flags(dihedral16).involutions == 9
    assert structure_flags(semidihedral16).involutions == 5
    assert structure_flags(modular16).involutions == 3
    assert subgroup_label(dihedral16) == "D16"
    assert subgroup_label(semidihedral16) == "G16"
    assert subgroup_label(modular16) == "G16"
    assert subgroup_label(symmetric(3)) == "D6"


def test_lagrange_for_every_generated_subgroup():
    G = S4()
    for i in range(0, 24, 5):
        for j in range(0, 24, 7):
            H = Subgroup(G, G.closure_indices([i, j]))
            assert G.order % H.order == 0


def test_prime_divisors():
    assert prime_divisors(1) == []
    assert prime_divisors(2) == [2]
    assert prime_divisors(2520) == [2, 3, 5, 7]
    assert prime_divisors(2 * 101 ** 2) == [2, 101]


def _assert_quotients_agree(G, N, limits):
    Q, proj = quotient_group(G, N, limits=limits)
    Q_ref, proj_ref = oracles.quotient_group_oracle(G, N, limits)
    assert Q.degree == Q_ref.degree
    assert Q.elements == Q_ref.elements
    assert Q.generators == Q_ref.generators
    assert list(proj.assignment.items()) == list(proj_ref.assignment.items())
    return Q


@pytest.mark.parametrize("entry", CORPUS, ids=[e.name for e in CORPUS])
def test_quotients_match_oracle(entry):
    G = builtin_group(entry.spec)
    wide = DEFAULT_LIMITS.scaled(degree_cap=G.order)
    for N in normal_subgroups(G):
        _assert_quotients_agree(G, N, wide)


@pytest.mark.parametrize("order", [1, 2, 3])
def test_quotients_of_c300_match_oracle(order):
    G = _cycle_300()
    shift = tuple((x + 300 // order) % 300 for x in range(300))
    N = Subgroup(G, G.closure_indices([G.index_of(shift)]))
    assert N.order == order
    Q = _assert_quotients_agree(G, N, _DEGREE_300)
    # more than 256 points do not fit a byte
    assert Q.points.dtype.itemsize == (2 if Q.degree > 256 else 1)


@pytest.mark.parametrize("entry", CORPUS, ids=[e.name for e in CORPUS])
def test_normalizer_as_group_keeps_parent_order(entry):
    G = builtin_group(entry.spec)
    for p in prime_divisors(G.order):
        N = normalizer(G, sylow_subgroup(G, p))
        Ng = N.as_group()
        assert Ng.order == N.order
        for i in range(N.order):
            assert Ng.elements[i] == G.elements[N.indices[i]]


def _assert_not_member(G, perm):
    with pytest.raises(ValidationError):
        G.index_of(perm)
    assert perm not in G
    assert not G.full_subgroup().contains_perm(perm)
    with pytest.raises(ValidationError):
        Subgroup(G, [perm])


def test_membership_rejects_what_is_not_an_element():
    G = S4()  # points are one byte each
    assert G.points.dtype.itemsize == 1
    for perm in [(0, 1, 2), (0, 1, 2, 3, 4), (-1, 1, 2, 3), (1, 0, 2, -4),
                 (0, 0, 1, 2), (256 + 1, 0, 2, 3), (1, 256 + 0, 2, 3)]:
        _assert_not_member(G, perm)
    A4 = alternating(4)
    transposition = from_cycles(4, [[0, 1]])
    _assert_not_member(A4, transposition)
    assert transposition in G
    assert not sylow_subgroup(G, 3).contains_perm(from_cycles(4, [[0, 1, 3]]))
    C = _cycle_300()  # points are two bytes each
    assert C.points.dtype.itemsize == 2
    shift = tuple((x + 1) % 300 for x in range(300))
    assert shift in C
    _assert_not_member(C, (shift[0] + 65536,) + shift[1:])
    _assert_not_member(C, shift[:-1])
    _assert_not_member(C, (shift[1], shift[0]) + shift[2:])
