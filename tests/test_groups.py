import mmap
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from fusionsys import (CORPUS, CapacityError, EngineError, Group, Limits,
                       Subgroup, ValidationError, alternating, builtin_group,
                       heisenberg, centralizer, conjugate_subgroup, core,
                       generate_group, normalizer, prime_divisors,
                       quotient_group, structure_flags, subgroup_label,
                       subgroup_product, sylow_subgroup, symmetric)
from fusionsys.perms import compose, from_cycles, identity, inverse


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
    with pytest.raises(CapacityError):
        generate_group(4, [(1, 0, 2, 3), (1, 2, 3, 0)],
                       limits=Limits(order_cap=10, degree_cap=64,
                                     subgroup_cap=100))


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


def _table_cases():
    cases = [(entry.name, lambda spec=entry.spec: builtin_group(spec))
             for entry in CORPUS]
    cases.append(("A7", lambda: alternating(7)))
    cases.append(("Heis3", lambda: heisenberg(3)))  # degree 27

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


def test_sylow_restarts_give_conjugates():
    G = S4()
    base = sylow_subgroup(G, 2)
    for offset in (1, 2, 3):
        other = sylow_subgroup(G, 2, _offset=offset)
        assert other.order == 8
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


def test_sylow_exhaustive_fallback_warns_never_fires_on_corpus():
    # the climbing construction should succeed without the fallback warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for p in (2, 3):
            sylow_subgroup(S4(), p)


def test_prime_divisors():
    assert prime_divisors(1) == []
    assert prime_divisors(2) == [2]
    assert prime_divisors(2520) == [2, 3, 5, 7]
    assert prime_divisors(2 * 101 ** 2) == [2, 101]
