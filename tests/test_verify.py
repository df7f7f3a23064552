import random
import sys

import pytest

from fusionsys import (CORPUS, CapacityError, FusionContext, Limits,
                       ValidationError, alternating, builtin_group,
                       check_theorem, cyclic, dicyclic, generate_group,
                       heisenberg, psl2, run_suite, scan_hypothesis, symmetric,
                       branch_fidelity_report, suite_payload)
from fusionsys.perms import compose, conjugate
from fusionsys.verify import (CASE_SHAPES, REGISTRY, REGISTRY_ORDER,
                              HypothesisTemplate)


def test_registry_shape():
    assert len(REGISTRY) == 16
    assert tuple(REGISTRY) == REGISTRY_ORDER
    assert "Thm3.1-family/c_supplemented" not in REGISTRY
    for tid, entry in REGISTRY.items():
        assert entry.theorem_id == tid
        assert entry.conclusion in ("supersolvable", "p_nilpotent")
        if entry.parent_id is not None:
            parent = REGISTRY[entry.parent_id]
            assert parent.conclusion == "supersolvable"
            assert entry.conclusion == "p_nilpotent"
            assert entry.template.kind == parent.template.kind
            assert entry.template.coprime and not parent.template.coprime
    # every p-nilpotency entry names its supersolvability twin
    sec5 = [tid for tid, e in REGISTRY.items()
            if e.conclusion == "p_nilpotent"]
    assert len(sec5) == 5
    assert all(REGISTRY[tid].parent_id for tid in sec5)


def test_case_shapes_vocabulary():
    assert len(CASE_SHAPES) == 12
    patterns = {t.pattern for t in CASE_SHAPES.values()}
    assert patterns == {"exists_D_strict", "exists_D_weak", "order_p_only"}
    for t in CASE_SHAPES.values():
        assert set(t.predicate_orders) <= {"D", "pD"}
        if t.branch is not None:
            assert t.branch.clause in ("cyclic4", "cyclic_2D")


def test_scan_hypothesis_witness_orders():
    ctx = FusionContext.build(cyclic(8), 2)
    scan = scan_hypothesis(ctx, REGISTRY["TheoremB"].template)
    assert scan.holds
    assert scan.witness_orders == (2, 4)


def test_scan_hypothesis_odd_only_note():
    ctx = FusionContext.build(cyclic(8), 2)
    scan = scan_hypothesis(ctx, REGISTRY["TheoremC"].template)
    assert not scan.holds
    assert any("odd" in n for n in scan.notes)


def test_scan_hypothesis_coprime_note():
    # gcd(3 - 1, 24) = 2, so the p-nilpotency form does not apply to S4 at 3
    ctx = FusionContext.build(symmetric(4), 3)
    scan = scan_hypothesis(ctx, REGISTRY["Sec5-s_subnormalizer"].template)
    assert not scan.holds
    assert any("gcd" in n for n in scan.notes)


def test_check_theorem_verdicts():
    heis = heisenberg(3)
    out = check_theorem("TheoremD1", heis, 3, group_name="Heis3")
    assert out.verdict == "pass"
    assert out.witness_orders == (9,)
    assert out.conclusion_holds
    out2 = check_theorem("TheoremB", heis, 3, group_name="Heis3")
    assert out2.verdict == "vacuous"
    assert out2.conclusion_holds            # conclusion still evaluated
    out3 = check_theorem("TheoremB", symmetric(4), 2)
    assert out3.verdict == "vacuous"
    assert not out3.conclusion_holds


def test_check_theorem_prime_not_dividing():
    out = check_theorem("TheoremB", symmetric(4), 5)
    assert out.verdict == "vacuous"
    assert out.notes == ("p=5 does not divide |G|=24",)
    assert out.conclusion_holds             # the trivial system is fine


def test_check_theorem_unknown_id():
    with pytest.raises(ValidationError):
        check_theorem("NoSuchTheorem", symmetric(4), 2)


def test_zero_counterexamples_across_corpus(corpus):
    suite = run_suite(corpus)
    assert suite.totals["COUNTEREXAMPLE"] == 0
    assert suite.totals["error"] == 0
    assert suite.totals["pass"] >= 3
    # the registry exercises every entry somewhere: each theorem id appears
    ids = {o.theorem_id for o in suite.outcomes}
    assert ids == set(REGISTRY_ORDER)


def test_required_nonvacuous_passes(corpus):
    suite = run_suite(corpus)
    passes = {(o.theorem_id, o.group_name, o.prime)
              for o in suite.outcomes if o.verdict == "pass"}
    assert ("TheoremB", "Dic12", 2) in passes
    assert ("Cor-c-supplemented", "F21", 3) in passes
    # an entry whose Sylow subgroup is abelian
    assert ("TheoremB", "C12", 2) in passes


def test_sec5_rows_cohere_with_parents(corpus):
    suite = run_suite(corpus)
    by_key = {(o.theorem_id, o.group_name, o.prime): o
              for o in suite.outcomes}
    for o in suite.outcomes:
        entry = REGISTRY[o.theorem_id]
        if entry.parent_id is None or o.verdict != "pass":
            continue
        parent = by_key[(entry.parent_id, o.group_name, o.prime)]
        # the hypothesis is the parent hypothesis plus the gcd condition,
        # so a passing §5 row forces a passing parent row
        assert parent.verdict == "pass", (o.theorem_id, o.group_name)


def test_run_suite_deterministic_across_threads(corpus):
    small = [e for e in corpus if e[1].order <= 27]
    a = run_suite(small, threads=1)
    b = run_suite(small, threads=4)
    key = [(o.theorem_id, o.group_name, o.prime, o.verdict,
            o.witness_orders) for o in a.outcomes]
    assert key == [(o.theorem_id, o.group_name, o.prime, o.verdict,
                    o.witness_orders) for o in b.outcomes]


def test_run_suite_threads_share_one_group():
    # four threads fill the lazy tables and caches of one Group object at
    # once; every fill is idempotent, so the payload matches one thread's
    def entries():
        G = symmetric(4)
        return [(f"S4/{k}", G) for k in range(4)]
    one = suite_payload(run_suite(entries(), threads=1))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        four = suite_payload(run_suite(entries(), threads=4))
    finally:
        sys.setswitchinterval(interval)
    assert four == one


def test_run_suite_quarantines_capacity(corpus):
    tight = Limits(order_cap=5000, degree_cap=64, subgroup_cap=4)
    suite = run_suite([("S4", symmetric(4))], ["TheoremB"], limits=tight)
    assert suite.entry_errors
    assert suite.totals["error"] >= 1
    assert all("subgroup" in e["error"] for e in suite.entry_errors)


def test_check_theorem_propagates_capacity():
    tight = Limits(order_cap=5000, degree_cap=64, subgroup_cap=4)
    with pytest.raises(CapacityError):
        check_theorem("TheoremB", symmetric(4), 2, limits=tight)


def test_run_suite_unknown_theorem(corpus):
    with pytest.raises(ValidationError):
        run_suite(corpus[:1], ["Bogus"])


def test_conclusion_always_evaluated_on_vacuous(corpus):
    suite = run_suite(corpus)
    for o in suite.outcomes:
        assert isinstance(o.conclusion_holds, bool)


def test_branch_fidelity_report_is_observational():
    rows = branch_fidelity_report([("Q8", dicyclic(8)), ("S4", symmetric(4))])
    assert rows
    for row in rows:
        assert set(row) == {"theorem", "flag", "group", "prime",
                            "strict_holds", "weakened_holds", "differs"}
        assert row["differs"] == (row["strict_holds"] != row["weakened_holds"])
        # a weakened hypothesis can only hold more often
        if row["strict_holds"]:
            assert row["weakened_holds"]


def _verdicts(G):
    """The per-row verdicts of the suite on G, without witnesses."""
    return [(o.theorem_id, o.prime, o.hypothesis_holds, o.conclusion_holds,
             o.verdict) for o in run_suite([("G", G)]).outcomes]


def _presented_again(G, seed):
    """G on points relabelled by a fixed-seed permutation, with its
    generators shuffled and one redundant generator added."""
    rng = random.Random(seed)
    relabel = list(range(G.degree))
    rng.shuffle(relabel)
    gens = [conjugate(g, tuple(relabel)) for g in G.generators]
    gens.append(compose(gens[0], gens[-1]))
    rng.shuffle(gens)
    return generate_group(G.degree, gens)


@pytest.mark.parametrize("spec", [e.spec for e in CORPUS],
                         ids=[e.name for e in CORPUS])
def test_verdicts_do_not_depend_on_the_presentation(spec):
    G = builtin_group(spec)
    H = _presented_again(G, seed=len(spec))
    assert H.order == G.order and H.generators != G.generators
    assert _verdicts(H) == _verdicts(G)


def test_isomorphic_simple_groups_of_order_60_agree():
    a5 = _verdicts(alternating(5))
    assert _verdicts(psl2(4)) == a5
    assert _verdicts(psl2(5)) == a5
