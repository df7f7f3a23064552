import pytest

import oracles
from fusionsys import (EngineError, FusionContext, Subgroup, ValidationError,
                       closure_predicate, dicyclic, direct_product, cyclic,
                       equivalence_suite, group_predicate, psl2,
                       sylow_containing, sylow_subgroup, symmetric)
from fusionsys.groups import conjugate_subgroup
from fusionsys.perms import compose, conjugate, from_cycles, identity


def make(G, *cycle_lists):
    idx = [G.index_of(from_cycles(G.degree, c)) for c in cycle_lists]
    return Subgroup(G, G.closure_indices(idx))


@pytest.fixture(scope="module")
def s4():
    G = symmetric(4)
    return G, sylow_subgroup(G, 2)


def test_s4_pronormal_family_table(s4):
    G, S = s4
    z = make(G, [[0, 1], [2, 3]])          # central in S but fused
    t = make(G, [[2, 3]])                  # transposition
    v4 = make(G, [[0, 1], [2, 3]], [[0, 2], [1, 3]])
    c4 = make(G, [[0, 2, 1, 3]])
    for kind in ("pronormal", "weakly_normal", "weakly_closed_in_S",
                 "s_subnormalizer"):
        assert not group_predicate(G, S, z, kind).holds
        assert not group_predicate(G, S, t, kind).holds
        assert group_predicate(G, S, v4, kind).holds
        assert group_predicate(G, S, c4, kind).holds


def test_pronormal_witness_fields(s4):
    G, S = s4
    v4 = make(G, [[0, 1], [2, 3]], [[0, 2], [1, 3]])
    rep = group_predicate(G, S, v4, "pronormal")
    assert rep.holds
    for g, k in rep.witness["conjugators"].items():
        img = {conjugate(x, g) for x in v4.members}
        assert {conjugate(x, k) for x in v4.members} == img
    t = make(G, [[2, 3]])
    rep = group_predicate(G, S, t, "pronormal")
    assert not rep.holds
    g = rep.witness["conjugator"]
    K = rep.witness["image"]
    assert {conjugate(x, g) for x in t.members} == set(K.members)
    # no element of <H, K> conjugates H to K
    joint = Subgroup(G, G.closure_indices(
        tuple(sorted(set(t.indices) | set(K.indices)))))
    assert all(conjugate_subgroup(t, k) != K for k in joint.members)


def test_subnormalizer_witness_fields(s4):
    G, S = s4
    z = make(G, [[0, 1], [2, 3]])
    rep = group_predicate(G, S, z, "s_subnormalizer")
    assert not rep.holds
    K = rep.witness["overgroup"]
    assert set(z.members) <= set(K.members) <= set(S.members)
    assert rep.witness["normalizer_order"] == 24  # N_G(V4) = S4


def test_c_supplemented_values(s4):
    G, S = s4
    # a transposition subgroup is supplemented by the alternating group
    t = make(G, [[2, 3]])
    rep = group_predicate(G, S, t, "c_supplemented")
    assert rep.holds
    T = rep.witness["supplement"]
    assert t.order * T.order == 24 * 1
    # a double transposition is not: the only proper supplement meets it
    z = make(G, [[0, 1], [2, 3]])
    assert not group_predicate(G, S, z, "c_supplemented").holds


def test_c_supplemented_diagonal_in_s3xc3():
    G = direct_product(symmetric(3), cyclic(3))
    S = sylow_subgroup(G, 3)
    for H in (make(G, [[0, 1, 2]]),           # first factor
              make(G, [[3, 4, 5]]),           # second factor
              make(G, [[0, 1, 2], [3, 4, 5]]),  # diagonal
              S):
        assert group_predicate(G, S, H, "c_supplemented").holds, H.indices


def test_check_triple_validation(s4):
    G, S = s4
    a4 = make(G, [[0, 1, 2]], [[0, 1], [2, 3]])
    with pytest.raises(ValidationError):
        group_predicate(G, S, a4, "pronormal")       # not inside S
    s3 = make(G, [[0, 1]], [[0, 1, 2]])
    t = make(G, [[0, 1]])
    with pytest.raises(ValidationError):
        group_predicate(G, s3, t, "pronormal")       # S3 is not a p-group
    with pytest.raises(ValidationError):
        group_predicate(G, t, t, "pronormal")        # C2 is not a full Sylow
    with pytest.raises(ValidationError):
        group_predicate(G, S, S, "nosuch")


def test_sylow_containing(s4):
    G, S = s4
    c4 = make(G, [[0, 1, 2, 3]])
    T = sylow_containing(G, c4, 2)
    assert T.order == 8
    assert set(c4.members) <= set(T.members)
    assert sylow_containing(G, c4, 2) == T    # deterministic
    with pytest.raises(ValidationError):
        sylow_containing(G, make(G, [[0, 1, 2]]), 2)


@pytest.mark.parametrize("build,p", [
    (lambda: symmetric(4), 2),
    (lambda: symmetric(4), 3),
    (lambda: dicyclic(12), 2),
    (lambda: dicyclic(12), 3),
    (lambda: direct_product(symmetric(3), cyclic(3)), 3),
    (lambda: psl2(7), 2),
    (lambda: psl2(7), 7),
])
def test_equivalence_suite_runs_clean(build, p):
    # the suite itself asserts: pronormal = weakly normal = weakly closed
    # in S; s-subnormalizer = semi-invariance; weakly closed implies the
    # s-subnormalizer condition.  Any violation raises EngineError.
    rep = equivalence_suite(FusionContext.build(build(), p))
    assert len(rep.rows) >= 1
    assert 0.0 <= rep.subnormalizer_agreement <= 1.0
    assert rep.prime == p


def test_equivalence_suite_row_shape(s4):
    G, S = s4
    rep = equivalence_suite(FusionContext(G, S, 2))
    assert len(rep.rows) == 10
    row = rep.rows[0]
    for key in ("order", "generators", "pronormal", "weakly_normal",
                "weakly_closed_in_S", "subnormalizer", "s_subnormalizer",
                "c_supplemented", "semi_invariant"):
        assert key in row
    # classical subnormalizer agreement on this context is total; the two
    # predicates are recorded side by side, never asserted equal
    assert rep.subnormalizer_agreement == 1.0


def test_weakly_closed_implies_s_subnormalizer_spot(s4):
    G, S = s4
    ctx = FusionContext.build(G, 2)
    for H in ctx.lattice_S.all:
        if closure_predicate(ctx, H, "weakly_closed").holds:
            assert group_predicate(G, S, H, "s_subnormalizer").holds


def test_pronormal_matches_the_search_of_the_whole_join(corpus_contexts):
    # the witness is read off the coset N_G(H)g; the oracle tries every k
    # of <H, H^g> in turn
    extra = [("S5", symmetric(5)),
             ("S4xS3", direct_product(symmetric(4), symmetric(3)))]
    contexts = list(corpus_contexts) + [
        (name, p, FusionContext.build(G, p))
        for name, G in extra for p in (2, 3)]
    for name, p, ctx in contexts:
        for H in ctx.lattice_S.all:
            got = group_predicate(ctx.G, ctx.S, H, "pronormal")
            want = oracles.pronormal_oracle(ctx.G, H)
            assert (got.holds, got.witness) == (want.holds, want.witness), (
                name, p, H.indices)
