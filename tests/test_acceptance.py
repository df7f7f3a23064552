"""End-to-end acceptance checks.

Each test prints one ``ACCEPTANCE criterion NN: PASS`` line (forcing it past
pytest's capture) after asserting the facts that make the line true.  The
criteria are numbered 01-11 and run in order; timing bounds are asserted
where a criterion carries one.
"""

import math
import time

import pytest

import oracles
from fusionsys import (FusionContext, Subgroup, all_subgroups, alternating,
                       centralizer, chain_through, classify_group,
                       closure_predicate, dihedral, essential_star,
                       frobenius21, fusion_p_core, group_predicate,
                       has_strongly_p_embedded, is_fusion_normal, load_corpus,
                       normalizer, p_part, psl2, run_suite,
                       supersolvable_chain, sylow_controls_fusion,
                       sylow_subgroup, symmetric)
from fusionsys.perms import from_cycles
from fusionsys.verify import REGISTRY_ORDER


def make(G, *cycle_lists):
    idx = [G.index_of(from_cycles(G.degree, c)) for c in cycle_lists]
    return Subgroup(G, G.closure_indices(idx))


def _primes(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def announce(capsys, number, detail, seconds=None):
    tail = f" [{seconds:.2f}s]" if seconds is not None else ""
    with capsys.disabled():
        print(f"\nACCEPTANCE criterion {number:02d}: PASS — {detail}{tail}")


def test_criterion_01_s4_normalizer_landmarks(capsys):
    start = time.perf_counter()
    G = symmetric(4)
    S = sylow_subgroup(G, 2)
    c4 = make(G, [[0, 2, 1, 3]])
    n_c4 = normalizer(G, c4)
    assert n_c4.order == 8
    assert n_c4.index_set == S.index_set      # the Sylow subgroup containing it
    klein = make(G, [[0, 1]], [[2, 3]])
    assert klein.index_set <= S.index_set
    assert normalizer(G, klein).order == 8
    t = make(G, [[2, 3]])
    assert not group_predicate(G, S, t, "s_subnormalizer").holds
    # the central involution of S fails as well, and necessarily so: V4 sits
    # over it with N_G(V4) = G of order 24, while N_G(z) has order 8
    z = make(G, [[0, 1], [2, 3]])
    assert centralizer(G, z).index_set == S.index_set     # z generates Z(S)
    rep = group_predicate(G, S, z, "s_subnormalizer")
    assert not rep.holds
    assert rep.witness["normalizer_order"] == 24
    assert rep.witness["overgroup"].order == 4
    seconds = time.perf_counter() - start
    assert seconds < 1.0
    announce(capsys, 1,
             "S4 at p=2: |N(C4)| = 8 (= its Sylow overgroup), |N(Klein)| = 8, "
             "and the transposition fails the s-subnormalizer condition; the "
             "central involution fails it too — |N(V4)| = 24 > |N(z)| = 8 "
             "makes a pass impossible, pinned by a strict xfail", seconds)


@pytest.mark.xfail(strict=True,
                   reason="V4 contains the central involution of S and "
                          "N_G(V4) = S4 has order 24, which cannot lie inside "
                          "N_G(z) of order 8; the condition provably fails")
def test_criterion_01_central_involution_clause():
    G = symmetric(4)
    S = sylow_subgroup(G, 2)
    z = make(G, [[0, 1], [2, 3]])
    assert group_predicate(G, S, z, "s_subnormalizer").holds


def test_criterion_02_psl27_s_subnormalizer_boundary(capsys):
    start = time.perf_counter()
    G = psl2(7)
    S = sylow_subgroup(G, 2)
    assert S.order == 8
    subs = all_subgroups(S).all
    involution_generated = [H for H in subs if H.order == 2]
    index_two = [H for H in subs if H.order == 4]
    assert len(involution_generated) == 5     # dihedral: five involutions
    assert len(index_two) == 3
    for H in involution_generated:
        assert not group_predicate(G, S, H, "s_subnormalizer").holds
    for H in index_two:
        assert group_predicate(G, S, H, "s_subnormalizer").holds
    seconds = time.perf_counter() - start
    assert seconds < 30.0
    announce(capsys, 2,
             "PSL(2,7) at p=2: all 5 involution-generated subgroups of the "
             "dihedral Sylow fail and all 3 index-2 subgroups pass the "
             "s-subnormalizer condition", seconds)


def test_criterion_03_weakly_closed_implies_semi_invariant(capsys):
    start = time.perf_counter()
    hits = 0
    contexts = 0
    for name, G in load_corpus():
        for p in _primes(G.order):
            ctx = FusionContext.build(G, p)
            contexts += 1
            for H in all_subgroups(ctx.S).all:
                if closure_predicate(ctx, H, "weakly_closed").holds:
                    assert closure_predicate(ctx, H, "semi_invariant").holds, \
                        (name, p, H.order)
                    hits += 1
    seconds = time.perf_counter() - start
    assert seconds < 180.0
    assert hits > 0
    announce(capsys, 3,
             f"weakly closed implies semi-invariant across {contexts} "
             f"(group, prime) contexts, {hits} weakly closed subgroups, "
             "zero violations", seconds)


def test_criterion_04_semi_invariant_matches_s_subnormalizer(
        corpus_contexts, capsys):
    triples = 0
    for name, p, ctx in corpus_contexts:
        G, S = ctx.G, ctx.S
        for H in all_subgroups(S).all:
            semi = closure_predicate(ctx, H, "semi_invariant").holds
            quelle = group_predicate(G, S, H, "s_subnormalizer").holds
            assert semi == quelle, (name, p, H.order)
            triples += 1
    announce(capsys, 4,
             f"semi-invariant and the s-subnormalizer condition agree on all "
             f"{triples} (G, p, H) triples in the corpus")


def test_criterion_05_pronormal_weakly_normal_weakly_closed(
        corpus_contexts, capsys):
    triples = 0
    for name, p, ctx in corpus_contexts:
        G, S = ctx.G, ctx.S
        for H in all_subgroups(S).all:
            a = group_predicate(G, S, H, "pronormal").holds
            b = group_predicate(G, S, H, "weakly_normal").holds
            c = group_predicate(G, S, H, "weakly_closed_in_S").holds
            assert a == b == c, (name, p, H.order)
            triples += 1
    announce(capsys, 5,
             f"pronormal, weakly normal, and weakly closed coincide on all "
             f"{triples} (G, p, H) triples, zero violations")


def test_criterion_06_supersolvable_closure_laws(corpus_contexts, capsys):
    contexts = 0
    chain_checks = 0
    for name, p, ctx in corpus_contexts:
        if supersolvable_chain(ctx) is None:
            continue
        contexts += 1
        for H in all_subgroups(ctx.S).all:
            if closure_predicate(ctx, H, "semi_invariant").holds:
                assert closure_predicate(ctx, H, "strongly_closed").holds, \
                    (name, p, H.order)
            if closure_predicate(ctx, H, "strongly_closed").holds:
                chain = chain_through(ctx, H)
                assert chain is not None, (name, p, H.order)
                assert any(L.index_set == H.index_set for L in chain)
                assert chain[0].order == 1
                assert chain[-1].index_set == ctx.S.index_set
                chain_checks += 1
    assert contexts > 0
    announce(capsys, 6,
             f"on all {contexts} supersolvable corpus contexts: "
             "semi-invariant implies strongly closed, and every strongly "
             f"closed subgroup threads a chain ({chain_checks} chains built)")


def test_criterion_07_supersolvability_theorems(corpus, capsys):
    core_ids = REGISTRY_ORDER[:7]
    assert core_ids == ("TheoremB", "TheoremC", "TheoremD1",
                        "Cor1-s-subnormalizer", "Cor2-s-subnormalizer",
                        "Cor3-s-subnormalizer", "Cor-c-supplemented")
    suite = run_suite(corpus, core_ids)
    assert suite.totals["COUNTEREXAMPLE"] == 0
    assert suite.totals["error"] == 0
    passes = {(o.theorem_id, o.group_name, o.prime)
              for o in suite.outcomes if o.verdict == "pass"}
    assert ("TheoremB", "Dic12", 2) in passes
    assert any(g == "F21" and p == 3 for _, g, p in passes)
    # an entry whose Sylow subgroup is abelian
    assert ("TheoremB", "C12", 2) in passes
    assert len(passes) >= 3
    announce(capsys, 7,
             f"supersolvability registry: {suite.totals['pass']} non-vacuous "
             f"passes (Dic12@2, F21@3, abelian-Sylow C12@2 among them), "
             f"{suite.totals['vacuous']} vacuous, zero counterexamples")


def test_criterion_08_p_nilpotency_and_fusion_control(
        corpus, corpus_contexts, capsys):
    sec5 = tuple(tid for tid in REGISTRY_ORDER if tid.startswith("Sec5-"))
    assert len(sec5) == 5
    suite = run_suite(corpus, sec5)
    assert suite.totals["COUNTEREXAMPLE"] == 0
    by_name = dict(corpus)
    confirmed = 0
    for o in suite.outcomes:
        if o.verdict != "pass":
            continue
        G = by_name[o.group_name]
        cls = classify_group(G, o.prime)
        assert cls.p_nilpotent
        comp = cls.normal_complement
        # re-verify the witness directly instead of trusting the flag
        assert normalizer(G, comp).order == G.order
        assert comp.order == G.order // p_part(G.order, o.prime)
        assert math.gcd(comp.order, o.prime) == 1
        confirmed += 1
    assert confirmed > 0
    # morphism-set equality with the Sylow's own fusion system holds exactly
    # on the p-nilpotent contexts
    control = {}
    for name, p, ctx in corpus_contexts:
        eq = sylow_controls_fusion(ctx)
        assert eq == classify_group(ctx.G, p).p_nilpotent, (name, p)
        control[(name, p)] = eq
    assert control[("S4", 2)] is False
    assert control[("A4", 2)] is False
    assert control[("PSL(2,7)", 2)] is False
    announce(capsys, 8,
             f"all {confirmed} non-vacuous p-nilpotency passes re-confirmed "
             "by direct normal-complement verification; fusion equals "
             "Sylow-internal fusion exactly on the p-nilpotent contexts "
             "(and fails for S4, A4, PSL(2,7) at p=2)")


def test_criterion_09_fusion_normality_criterion_vs_oracle(
        corpus_contexts, capsys):
    compared = 0
    for name, p, ctx in corpus_contexts:
        if ctx.G.order > 200:
            continue
        for Q in all_subgroups(ctx.S).all:
            lhs = is_fusion_normal(ctx, Q)
            rhs = oracles.fusion_normal_oracle(ctx, Q)
            assert lhs == rhs, (name, p, Q.order)
            compared += 1
    announce(capsys, 9,
             f"fusion-normality criterion and morphism-by-morphism oracle "
             f"agree on all {compared} subgroups over contexts with "
             "|G| <= 200")


def test_criterion_10_known_structure_regressions(capsys):
    G = symmetric(4)
    ctx = FusionContext.build(G, 2)
    v4 = make(G, [[0, 1], [2, 3]], [[0, 2], [1, 3]])
    stars = essential_star(ctx)
    assert [H.order for H in stars] == [4, 8]
    assert stars[0].index_set == v4.index_set
    assert stars[1].index_set == ctx.S.index_set
    assert fusion_p_core(ctx).index_set == v4.index_set
    assert supersolvable_chain(ctx) is None
    ctx_a4 = FusionContext.build(alternating(4), 2)
    assert supersolvable_chain(ctx_a4) is None
    chain_d8 = supersolvable_chain(FusionContext.build(dihedral(8), 2))
    assert chain_d8 is not None
    assert [H.order for H in chain_d8] == [1, 2, 4, 8]
    chain_f21 = supersolvable_chain(FusionContext.build(frobenius21(), 3))
    assert chain_f21 is not None
    assert [H.order for H in chain_f21] == [1, 3]
    announce(capsys, 10,
             "regressions hold: essential-star of S4 at p=2 is {V4, S}, its "
             "fusion 2-core is V4, no chain exists for S4 or A4 at p=2, and "
             "chains exist for D8 at p=2 and F21 at p=3")


def test_criterion_11_p_closed_blocks_embedding(corpus, capsys):
    closed = 0
    total = 0
    for name, G in corpus:
        for p in _primes(G.order):
            total += 1
            if classify_group(G, p).p_closed:
                closed += 1
                assert not has_strongly_p_embedded(G, p).found, (name, p)
    assert closed > 0
    announce(capsys, 11,
             f"no p-closed corpus group has a strongly p-embedded subgroup "
             f"({closed} p-closed contexts of {total} checked)")
