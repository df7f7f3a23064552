import pytest

import oracles
from fusionsys import (EngineError, FusionContext, PreconditionError,
                       Subgroup, UnsupportedCaseError, ValidationError,
                       alternating, automizer, chain_through,
                       classify_group, closure_predicate, cyclic, dicyclic,
                       dihedral, direct_product, essential_star,
                       essential_subgroups, frobenius21, fusion_class,
                       fusion_p_core, fusion_predicate, heisenberg,
                       is_fusion_normal, morphisms, normalizer_system,
                       psl2, quotient_system, subgroup_label,
                       supersolvable_chain, sylow_controls_fusion, symmetric)
from fusionsys.perms import conjugate, from_cycles


@pytest.fixture(scope="module")
def s4_ctx():
    return FusionContext.build(symmetric(4), 2)


@pytest.fixture(scope="module")
def psl_ctx():
    return FusionContext.build(psl2(7), 2)


def sub(ctx, *cycle_lists):
    G = ctx.G
    idx = [G.index_of(from_cycles(G.degree, c)) for c in cycle_lists]
    return Subgroup(G, G.closure_indices(idx))


def test_context_validation():
    G = symmetric(4)
    with pytest.raises(ValidationError):
        FusionContext.build(G, 6)
    S3 = FusionContext.build(symmetric(3), 3)
    with pytest.raises(ValidationError):
        S3.check_object(FusionContext.build(G, 2).S)


def test_fusion_class_of_double_transposition(s4_ctx):
    # all three double-transposition subgroups lie in S and are fused
    z = sub(s4_ctx, [[0, 1], [2, 3]])
    cls = fusion_class(s4_ctx, z)
    assert len(cls.members) == 3
    assert cls.representative in cls.members
    # every member yields the same canonical representative
    for member in cls.members:
        assert fusion_class(s4_ctx, member).representative == \
            cls.representative


def test_fusion_class_counts(s4_ctx):
    reps = {fusion_class(s4_ctx, H).representative.indices
            for H in s4_ctx.lattice_S.all}
    assert len(reps) == 7


def test_morphism_count_matches_transporter_law(s4_ctx):
    ctx = s4_ctx
    G = ctx.G
    for P in ctx.lattice_S.all:
        for Q in (ctx.S, ctx.lattice_S.of_order(4)[0]):
            got = len(morphisms(ctx, P, Q))
            want = oracles.naive_morphism_count(
                G, set(P.members), set(Q.members))
            assert got == want, (P.indices, Q.indices)


def test_morphism_objects_are_conjugations(s4_ctx):
    ctx = s4_ctx
    z = sub(ctx, [[2, 3]])
    for m in morphisms(ctx, z, ctx.S):
        g = m.inducing_element
        for x in z.members:
            assert m.apply(x) == conjugate(x, g)
        assert m.is_homomorphism()


def test_automizer_at_klein(s4_ctx):
    v4 = sub(s4_ctx, [[0, 1], [2, 3]], [[0, 2], [1, 3]])
    pair = automizer(s4_ctx, v4)
    assert pair.aut.order == 6
    assert pair.out.order == 6    # V4 is abelian, inner part is trivial
    z = sub(s4_ctx, [[0, 1], [2, 3]])
    assert automizer(s4_ctx, z).aut.order == 1


def test_fusion_predicates_s4(s4_ctx):
    ctx = s4_ctx
    v4 = sub(ctx, [[0, 1], [2, 3]], [[0, 2], [1, 3]])
    e_prime = sub(ctx, [[0, 1]], [[2, 3]])
    c4 = sub(ctx, [[0, 2, 1, 3]])
    z = sub(ctx, [[0, 1], [2, 3]])
    assert fusion_predicate(ctx, v4, "centric")
    assert fusion_predicate(ctx, e_prime, "centric")
    assert fusion_predicate(ctx, c4, "centric")
    assert not fusion_predicate(ctx, z, "centric")
    assert fusion_predicate(ctx, v4, "radical")
    assert not fusion_predicate(ctx, e_prime, "radical")
    assert fusion_predicate(ctx, v4, "essential")
    assert not fusion_predicate(ctx, e_prime, "essential")
    assert not fusion_predicate(ctx, ctx.S, "essential")  # S is never proper
    assert fusion_predicate(ctx, ctx.S, "fully_normalized")
    with pytest.raises(ValidationError):
        fusion_predicate(ctx, v4, "nosuch")


def test_essential_star_s4(s4_ctx):
    stars = essential_star(s4_ctx)
    assert [subgroup_label(H) for H in stars] == ["V4", "D8"]
    assert [H.order for H in essential_subgroups(s4_ctx)] == [4]


def test_essential_star_psl27(psl_ctx):
    stars = essential_star(psl_ctx)
    assert [H.order for H in stars] == [4, 4, 8]
    assert len(essential_subgroups(psl_ctx)) == 2


def test_essential_implies_centric_normalized_radical(corpus_contexts):
    for name, p, ctx in corpus_contexts:
        for H in ctx.lattice_S.all:
            if fusion_predicate(ctx, H, "essential"):
                assert fusion_predicate(ctx, H, "centric")
                assert fusion_predicate(ctx, H, "fully_normalized")
                assert fusion_predicate(ctx, H, "radical")


def test_essential_oracle_cross_check(s4_ctx, psl_ctx):
    # rebuild Out_F(P) from raw conjugation assignments and re-run the
    # strongly-p-embedded search without engine machinery
    for ctx in (s4_ctx, psl_ctx):
        for H in ctx.lattice_S.all:
            if not (fusion_predicate(ctx, H, "centric")
                    and fusion_predicate(ctx, H, "fully_normalized")
                    and H.order < ctx.S.order):
                continue
            auts, inner = oracles.naive_fusion_aut_group(
                ctx.G, set(H.members))
            outer_size = len(auts) // len(inner)
            want = fusion_predicate(ctx, H, "essential")
            if outer_size % 2:
                assert not want
                continue
            # quotient by inner: cosets of the inner subset
            def comp(a, b):
                return tuple(b[i] for i in a)
            cosets = {}
            for a in sorted(auts):
                key = frozenset(comp(h, a) for h in inner)
                cosets.setdefault(key, len(cosets))
            table = {}
            keys = list(cosets)
            perm_group = set()
            for a in sorted(auts):
                row = []
                for k in keys:
                    rep = sorted(k)[0]
                    row.append(cosets[frozenset(
                        comp(h, comp(rep, a)) for h in inner)])
                perm_group.add(tuple(row))
            got = oracles.naive_has_strongly_p_embedded(perm_group, 2)
            assert got == want, H.indices


def test_closure_predicates_s4(s4_ctx):
    ctx = s4_ctx
    got = {}
    for H in ctx.lattice_S.all:
        key = (H.order, H.indices)
        got[key] = {k: closure_predicate(ctx, H, k).holds
                    for k in ("strongly_closed", "weakly_closed",
                              "semi_invariant")}
    strongly = sorted(o for (o, _), v in got.items() if v["strongly_closed"])
    weakly = sorted(o for (o, _), v in got.items() if v["weakly_closed"])
    semi = sorted(o for (o, _), v in got.items() if v["semi_invariant"])
    assert strongly == [1, 4, 8]
    assert weakly == [1, 4, 4, 4, 8]
    assert semi == weakly


def test_closure_matches_naive_oracle(s4_ctx, psl_ctx):
    for ctx in (s4_ctx, psl_ctx):
        S_members = set(ctx.S.members)
        for H in ctx.lattice_S.all:
            assert closure_predicate(ctx, H, "strongly_closed").holds == \
                oracles.naive_strongly_closed(ctx.G, S_members,
                                              set(H.members))
            assert closure_predicate(ctx, H, "weakly_closed").holds == \
                oracles.naive_weakly_closed(ctx.G, S_members,
                                            set(H.members))


def test_strongly_closed_witness_is_valid(s4_ctx):
    ctx = s4_ctx
    z = sub(ctx, [[2, 3]])
    rep = closure_predicate(ctx, z, "strongly_closed")
    assert not rep.holds
    w = rep.witness
    assert w["element"] in z.members
    img = conjugate(w["element"], w["conjugator"])
    assert img in ctx.S.members and img not in z.members
    assert img == w["image"]


def test_weakly_closed_witness_is_valid(s4_ctx):
    ctx = s4_ctx
    z = sub(ctx, [[0, 1], [2, 3]])
    rep = closure_predicate(ctx, z, "weakly_closed")
    assert not rep.holds
    w = rep.witness
    imgs = {conjugate(x, w["conjugator"]) for x in z.members}
    assert imgs == set(w["image"].members)
    assert imgs <= set(ctx.S.members) and imgs != set(z.members)


def test_semi_invariant_witness_is_valid(s4_ctx):
    ctx = s4_ctx
    z = sub(ctx, [[0, 1], [2, 3]])   # the center of S; fused inside V4
    rep = closure_predicate(ctx, z, "semi_invariant")
    assert not rep.holds
    w = rep.witness
    K = w["overgroup"]
    assert set(z.members) <= set(K.members) <= set(ctx.S.members)
    imgs = {conjugate(x, w["conjugator"]) for x in z.members}
    assert imgs == set(w["image"].members) and imgs != set(z.members)
    # the witnessing map is an automorphism of K
    assert {conjugate(x, w["conjugator"]) for x in K.members} == \
        set(K.members)


def test_fusion_normal_criterion_vs_oracle(corpus_contexts):
    for name, p, ctx in corpus_contexts:
        for H in ctx.lattice_S.all:
            a = is_fusion_normal(ctx, H)
            b = oracles.fusion_normal_oracle(ctx, H)
            assert a == b, (name, p, H.indices)


def test_fusion_p_core_values(s4_ctx, psl_ctx):
    assert subgroup_label(fusion_p_core(s4_ctx)) == "V4"
    assert fusion_p_core(s4_ctx).order == 4
    assert fusion_p_core(psl_ctx).order == 1
    a4 = FusionContext.build(alternating(4), 2)
    assert fusion_p_core(a4) == a4.S
    f21 = FusionContext.build(frobenius21(), 3)
    assert fusion_p_core(f21) == f21.S
    heis = FusionContext.build(heisenberg(3), 3)
    assert fusion_p_core(heis) == heis.S


def test_normalizer_system(s4_ctx):
    v4 = sub(s4_ctx, [[0, 1], [2, 3]], [[0, 2], [1, 3]])
    N = normalizer_system(s4_ctx, v4)
    assert N.G.order == 24       # V4 is normal in S4
    assert N.S.order == 8
    c4 = sub(s4_ctx, [[0, 2, 1, 3]])
    N2 = normalizer_system(s4_ctx, c4)
    assert N2.G.order == 8       # N_G(C4) is the Sylow subgroup itself


def test_normalizer_system_requires_fully_normalized(s4_ctx):
    # a fused copy of the center with a smaller S-normalizer
    z_bad = sub(s4_ctx, [[0, 2], [1, 3]])
    assert not fusion_predicate(s4_ctx, z_bad, "fully_normalized")
    with pytest.raises(PreconditionError):
        normalizer_system(s4_ctx, z_bad)


def test_quotient_system(s4_ctx):
    v4 = sub(s4_ctx, [[0, 1], [2, 3]], [[0, 2], [1, 3]])
    qs = quotient_system(s4_ctx, v4)
    assert qs.context.G.order == 6
    assert qs.context.S.order == 2
    assert qs.projection.is_homomorphism()
    assert set(qs.projection.kernel_members()) == set(v4.members)


def test_quotient_system_requires_normal_in_g(s4_ctx):
    c4 = sub(s4_ctx, [[0, 2, 1, 3]])
    with pytest.raises(UnsupportedCaseError):
        quotient_system(s4_ctx, c4)
    # normal in the fusion system is not enough: the Sylow subgroup of the
    # dicyclic group of order 12 is fusion-normal but not normal in G
    d = FusionContext.build(dicyclic(12), 2)
    assert is_fusion_normal(d, d.S)
    with pytest.raises(UnsupportedCaseError):
        quotient_system(d, d.S)


@pytest.mark.parametrize("build,p,expect", [
    (lambda: symmetric(4), 2, None),
    (lambda: alternating(4), 2, None),
    (lambda: psl2(7), 2, None),
    (lambda: dihedral(8), 2, [1, 2, 4, 8]),
    (lambda: dihedral(16), 2, [1, 2, 4, 8, 16]),
    (lambda: dicyclic(8), 2, [1, 2, 4, 8]),
    (lambda: heisenberg(3), 3, [1, 3, 9, 27]),
    (lambda: frobenius21(), 3, [1, 3]),
    (lambda: symmetric(4), 3, [1, 3]),
    (lambda: dicyclic(12), 2, [1, 2, 4]),
])
def test_supersolvable_chain_known_values(build, p, expect):
    ctx = FusionContext.build(build(), p)
    chain = supersolvable_chain(ctx)
    if expect is None:
        assert chain is None
    else:
        assert chain is not None
        assert [H.order for H in chain] == expect


def test_chain_is_verified_against_naive_oracle(corpus_contexts):
    for name, p, ctx in corpus_contexts:
        if ctx.G.order > 30:
            continue
        subgroup_sets = {frozenset(H.members) for H in ctx.lattice_S.all}
        want = oracles.naive_chain_exists(ctx.G, set(ctx.S.members),
                                          subgroup_sets)
        assert (supersolvable_chain(ctx) is not None) == want, (name, p)


def test_chain_links_are_strongly_closed_with_cyclic_quotients(
        corpus_contexts):
    for name, p, ctx in corpus_contexts:
        chain = supersolvable_chain(ctx)
        if chain is None:
            continue
        assert chain[0].order == 1
        assert chain[-1] == ctx.S
        for A, B in zip(chain, chain[1:]):
            assert set(A.members) < set(B.members)
            assert closure_predicate(ctx, A, "strongly_closed").holds
            assert oracles.naive_cyclic_quotient(set(B.members),
                                                 set(A.members))


def test_chain_through(s4_ctx):
    heis = FusionContext.build(heisenberg(3), 3)
    z = next(H for H in heis.lattice_S.of_order(3)
             if closure_predicate(heis, H, "strongly_closed").holds)
    chain = chain_through(heis, z)
    assert chain is not None
    assert any(H == z for H in chain)
    # in a non-supersolvable system nothing has a chain
    v4 = sub(s4_ctx, [[0, 1], [2, 3]], [[0, 2], [1, 3]])
    assert chain_through(s4_ctx, v4) is None


def test_sylow_controls_fusion_matches_p_nilpotency(corpus_contexts):
    for name, p, ctx in corpus_contexts:
        want = classify_group(ctx.G, p).p_nilpotent
        assert sylow_controls_fusion(ctx) == want, (name, p)


def test_fusion_p_core_unique_largest(corpus_contexts):
    for name, p, ctx in corpus_contexts:
        core = fusion_p_core(ctx)
        for H in ctx.lattice_S.all:
            if is_fusion_normal(ctx, H):
                assert set(H.members) <= set(core.members)


def test_fusion_queries_build_few_table_rows():
    # mul_rows and conjugates build the rows of a member on first use;
    # fusion work on S touches only mul rows of S and of closure generators
    # and conjugates of members of S, never a whole n*n table
    G = alternating(7)
    for p in (2, 3, 5, 7):
        ctx = FusionContext.build(G, p)
        ctx.lattice_S
        essential_star(ctx)
        supersolvable_chain(ctx)
    assert len(G.mul_rows) <= 0.02 * G.order
    assert G._conj_count <= 0.02 * G.order
    assert len(G._conj_block) <= 0.04 * G.order
