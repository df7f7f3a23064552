"""Machine checking of the supersolvability and p-nilpotency theorems.

Each registered theorem is a hypothesis template plus a conclusion.  A
template speaks about subgroup orders relative to a witness order |D|:

  order pattern   exists_D_strict   some |D| with p <= |D| < |S|, |D| a power of p
                  exists_D_weak     some |D| with 1 <= |D| < |S|
                  order_p_only      the fixed order |D| = p
                  maximal_subgroups the maximal subgroups of S

  clauses         abelian_orders    which of |D|, p|D| must be entirely abelian
                  predicate_orders  which of |D|, p|D| must satisfy the predicate
                  branch            an extra clause under a guard (e.g. "if S is
                                    a non-abelian 2-group and |D| = 2, cyclic
                                    subgroups of order 4 must also satisfy it")

Verdicts are honest three-way: ``pass`` (hypothesis and conclusion hold),
``vacuous`` (hypothesis fails; the conclusion is still evaluated and
recorded), and ``COUNTEREXAMPLE`` (hypothesis holds, conclusion fails --
which would falsify the mathematics and should never appear).
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

from .classify import classify_group
from .errors import CapacityError, ValidationError
from .fusion import (FusionContext, closure_predicate, supersolvable_chain)
from .groups import (Group, StructureFlags, Subgroup, prime_divisors,
                     structure_flags)
from .lattice import maximal_subgroups
from .limits import DEFAULT_LIMITS, Limits
from .normality import group_predicate

__all__ = [
    "BranchRule", "HypothesisTemplate", "TheoremEntry", "REGISTRY",
    "CASE_SHAPES", "HypothesisScan", "scan_hypothesis",
    "VerificationOutcome", "check_theorem", "SuiteReport", "run_suite",
    "branch_fidelity_report",
]


# -- templates -------------------------------------------------------------------

@dataclass(frozen=True)
class BranchRule:
    """An extra predicate clause that activates under a guard.

    clause: which subgroups the extra requirement hits
        ("cyclic4" = cyclic of order 4, "cyclic_2D" = cyclic of order 2|D|).
    guard: a named condition on (p, |D|, shape of S), see _GUARDS.
    """

    clause: str
    guard: str


@dataclass(frozen=True)
class HypothesisTemplate:
    pattern: str                       # exists_D_strict | exists_D_weak |
                                       # order_p_only | maximal_subgroups
    kind: str                          # predicate evaluated on the targets
    predicate_orders: tuple[str, ...]  # subset of ("D", "pD")
    abelian_orders: tuple[str, ...]    # subset of ("D", "pD")
    branch: BranchRule | None = None
    odd_only: bool = False
    two_abelian_maximals: bool = False  # extra clause of the maximal pattern
    coprime: bool = False               # require gcd(p - 1, |G|) = 1


_GUARDS = {
    "nonabelian_and_D2":
        lambda p, d, S: (not S.abelian) and d == 2,
    "nonabelian_gt4_and_D2":
        lambda p, d, S: (not S.abelian) and S.order > 4 and d == 2,
    "nonabelian_2group":
        lambda p, d, S: p == 2 and not S.abelian,
    "p2":
        lambda p, d, S: p == 2,
    "D2_p2":
        lambda p, d, S: p == 2 and d == 2,
    "noncyclic_2group":
        lambda p, d, S: p == 2 and not S.cyclic,
    "nonabelian_2group_index_gt2":
        lambda p, d, S: p == 2 and (not S.abelian) and S.order // d > 2,
}

# The closed vocabulary of hypothesis case shapes.  Shapes 1-9 and the primed
# variants 1p-3p; the registry below draws every branch rule from this table,
# and nothing outside it is ever evaluated.
CASE_SHAPES: dict[str, HypothesisTemplate] = {
    "1": HypothesisTemplate("exists_D_strict", "", ("D",), (),
                            BranchRule("cyclic4", "nonabelian_and_D2")),
    "2": HypothesisTemplate("exists_D_strict", "", ("D",), (),
                            BranchRule("cyclic4", "nonabelian_gt4_and_D2")),
    "3": HypothesisTemplate("exists_D_strict", "", ("D",), (),
                            BranchRule("cyclic4", "nonabelian_2group")),
    "4": HypothesisTemplate("exists_D_strict", "", ("D",), (),
                            BranchRule("cyclic4", "p2")),
    "5": HypothesisTemplate("exists_D_weak", "", ("D", "pD"), (), None,
                            odd_only=True),
    "6": HypothesisTemplate("exists_D_weak", "", ("D",), (), None,
                            odd_only=True),
    "7": HypothesisTemplate("exists_D_weak", "", ("D", "pD"), (),
                            BranchRule("cyclic4", "D2_p2")),
    "8": HypothesisTemplate("exists_D_strict", "", ("D",), (),
                            BranchRule("cyclic_2D",
                                       "nonabelian_2group_index_gt2")),
    "9": HypothesisTemplate("exists_D_strict", "", ("D", "pD"), (), None),
    "1p": HypothesisTemplate("order_p_only", "", ("D",), (),
                             BranchRule("cyclic4", "nonabelian_2group")),
    "2p": HypothesisTemplate("order_p_only", "", ("D",), (),
                             BranchRule("cyclic4", "p2")),
    "3p": HypothesisTemplate("order_p_only", "", ("D",), (),
                             BranchRule("cyclic4", "noncyclic_2group")),
}


def _shape(case: str, kind: str, *, abelian_orders=(), odd_only=None,
           coprime=False) -> HypothesisTemplate:
    base = CASE_SHAPES[case]
    return replace(base, kind=kind, abelian_orders=tuple(abelian_orders),
                   odd_only=base.odd_only if odd_only is None else odd_only,
                   coprime=coprime)


@dataclass(frozen=True)
class TheoremEntry:
    theorem_id: str
    description: str
    template: HypothesisTemplate
    conclusion: str                # "supersolvable" | "p_nilpotent"
    parent_id: str | None = None   # the supersolvability twin, for p-nilpotency rows


_MAXIMAL_SEMI = HypothesisTemplate(
    pattern="maximal_subgroups", kind="semi_invariant",
    predicate_orders=("D",), abelian_orders=(), odd_only=True,
    two_abelian_maximals=True)

REGISTRY: dict[str, TheoremEntry] = {}


def _register(entry: TheoremEntry) -> None:
    REGISTRY[entry.theorem_id] = entry


_register(TheoremEntry(
    "TheoremB",
    "some 1 < |D| < |S| with all subgroups of order |D| semi-invariant and "
    "all of orders |D| and p|D| abelian (cyclic-4 clause when S is a "
    "non-abelian 2-group and |D| = 2) forces a supersolvable fusion system",
    _shape("1", "semi_invariant", abelian_orders=("D", "pD")),
    "supersolvable"))
_register(TheoremEntry(
    "TheoremC",
    "p odd, every maximal subgroup of S semi-invariant, and more than one "
    "abelian maximal subgroup unless S is cyclic, forces a supersolvable "
    "fusion system",
    _MAXIMAL_SEMI, "supersolvable"))
_register(TheoremEntry(
    "TheoremD1",
    "p odd and some 1 < |D| < |S| with all subgroups of order |D| abelian "
    "and semi-invariant forces a supersolvable fusion system",
    _shape("1", "semi_invariant", abelian_orders=("D",), odd_only=True),
    "supersolvable"))
_register(TheoremEntry(
    "Cor1-s-subnormalizer",
    "the TheoremB hypothesis with the S-subnormalizer condition in place of "
    "semi-invariance",
    _shape("1", "s_subnormalizer", abelian_orders=("D", "pD")),
    "supersolvable"))
_register(TheoremEntry(
    "Cor2-s-subnormalizer",
    "the TheoremC hypothesis with the S-subnormalizer condition in place of "
    "semi-invariance",
    replace(_MAXIMAL_SEMI, kind="s_subnormalizer"), "supersolvable"))
_register(TheoremEntry(
    "Cor3-s-subnormalizer",
    "the TheoremD1 hypothesis with the S-subnormalizer condition in place of "
    "semi-invariance",
    _shape("1", "s_subnormalizer", abelian_orders=("D",), odd_only=True),
    "supersolvable"))
_register(TheoremEntry(
    "Cor-c-supplemented",
    "p odd and some 1 <= |D| < |S| with all subgroups of orders |D| and "
    "p|D| abelian and c-supplemented forces a supersolvable fusion system",
    _shape("5", "c_supplemented", abelian_orders=("D", "pD")),
    "supersolvable"))
for _kind in ("pronormal", "weakly_normal", "weakly_closed_in_S",
              "s_subnormalizer"):
    _register(TheoremEntry(
        f"Thm3.1-family/{_kind}",
        f"the TheoremB order shape with the {_kind} condition on subgroups "
        "of order |D|",
        _shape("1", _kind, abelian_orders=("D", "pD")), "supersolvable"))
for _kind, _parent in (
        ("pronormal", "Thm3.1-family/pronormal"),
        ("weakly_normal", "Thm3.1-family/weakly_normal"),
        ("weakly_closed_in_S", "Thm3.1-family/weakly_closed_in_S"),
        ("s_subnormalizer", "Cor1-s-subnormalizer")):
    _register(TheoremEntry(
        f"Sec5-{_kind}",
        f"the {_parent} hypothesis plus gcd(p-1, |G|) = 1 forces "
        "p-nilpotency",
        _shape("1", _kind, abelian_orders=("D", "pD"), coprime=True),
        "p_nilpotent", parent_id=_parent))
_register(TheoremEntry(
    "Sec5-c-supplemented",
    "the Cor-c-supplemented hypothesis plus gcd(p-1, |G|) = 1 forces "
    "p-nilpotency",
    _shape("5", "c_supplemented", abelian_orders=("D", "pD"), coprime=True),
    "p_nilpotent", parent_id="Cor-c-supplemented"))

REGISTRY_ORDER = tuple(REGISTRY)


# -- evaluation: memo keys on the FusionContext of one (G, p) ---------------------

def _flags(ctx: FusionContext, H: Subgroup) -> StructureFlags:
    return ctx.memo(("structure_flags", H.indices),
                    lambda: structure_flags(H))


def _holds(ctx: FusionContext, kind: str, H: Subgroup) -> bool:
    """Whether H satisfies the hypothesis predicate ``kind``."""
    def evaluate() -> bool:
        if kind == "semi_invariant":
            return closure_predicate(ctx, H, kind).holds
        return group_predicate(ctx.G, ctx.S, H, kind,
                               limits=ctx.limits).holds
    return ctx.memo(("hypothesis_predicate", kind, H.indices), evaluate)


@dataclass(frozen=True)
class HypothesisScan:
    holds: bool
    witness_orders: tuple[int, ...]
    notes: tuple[str, ...] = ()


def scan_hypothesis(ctx: FusionContext, template: HypothesisTemplate
                    ) -> HypothesisScan:
    """Evaluate a hypothesis template against the fusion system of one
    (G, p)."""
    p = ctx.p
    S = ctx.S
    S_flags = _flags(ctx, S)
    notes: list[str] = []
    if template.odd_only and p == 2:
        return HypothesisScan(False, (), ("stated for odd primes only",))
    if template.coprime and math.gcd(p - 1, ctx.G.order) != 1:
        return HypothesisScan(
            False, (), (f"gcd(p-1, |G|) = "
                        f"{math.gcd(p - 1, ctx.G.order)} != 1",))

    if template.pattern == "maximal_subgroups":
        if S.order == 1:
            return HypothesisScan(False, (), ("S is trivial",))
        targets = ctx.memo(("maximal_subgroups",), lambda: maximal_subgroups(
            S, limits=ctx.limits))
        ok = all(_holds(ctx, template.kind, M) for M in targets)
        if ok and template.two_abelian_maximals and not S_flags.cyclic:
            abelian = sum(1 for M in targets if _flags(ctx, M).abelian)
            if abelian < 2:
                ok = False
                notes.append(f"S is not cyclic and only {abelian} maximal "
                             "subgroup(s) are abelian")
        return HypothesisScan(ok, (S.order // p,) if ok else (),
                              tuple(notes))

    if template.pattern == "order_p_only":
        candidates = [p] if p <= S.order else []
    elif template.pattern == "exists_D_strict":
        candidates = []
        d = p
        while d * p <= S.order:
            candidates.append(d)
            d *= p
    elif template.pattern == "exists_D_weak":
        candidates = [1]
        d = p
        while d * p <= S.order:
            candidates.append(d)
            d *= p
    else:
        raise ValidationError(f"unknown order pattern {template.pattern!r}")

    passing = [d for d in candidates if _order_clause(ctx, template, d)]
    if not passing and not candidates:
        notes.append("no eligible witness order |D| for this Sylow subgroup")
    return HypothesisScan(bool(passing), tuple(passing), tuple(notes))


def _order_clause(ctx: FusionContext, template: HypothesisTemplate,
                  d: int) -> bool:
    """All clauses of the template at one fixed witness order |D| = d."""
    p = ctx.p
    lattice = ctx.lattice_S
    groups_d = lattice.of_order(d)
    groups_pd = lattice.of_order(p * d)
    if "D" in template.abelian_orders:
        if not all(_flags(ctx, H).abelian for H in groups_d):
            return False
    if "pD" in template.abelian_orders:
        if not all(_flags(ctx, H).abelian for H in groups_pd):
            return False
    if "D" in template.predicate_orders:
        if not all(_holds(ctx, template.kind, H) for H in groups_d):
            return False
    if "pD" in template.predicate_orders:
        if not all(_holds(ctx, template.kind, H) for H in groups_pd):
            return False
    br = template.branch
    if br is not None and _GUARDS[br.guard](p, d, _flags(ctx, ctx.S)):
        size = 4 if br.clause == "cyclic4" else 2 * d
        for H in lattice.of_order(size):
            if _flags(ctx, H).cyclic and not _holds(ctx, template.kind, H):
                return False
    return True


# -- single theorem check ------------------------------------------------------------

@dataclass(frozen=True)
class VerificationOutcome:
    theorem_id: str
    group_name: str
    group_order: int
    prime: int
    hypothesis_holds: bool
    witness_orders: tuple[int, ...]
    notes: tuple[str, ...]
    conclusion: str
    conclusion_holds: bool
    verdict: str                  # pass | vacuous | COUNTEREXAMPLE | error
    error: str | None = None
    seconds: float = 0.0


def check_theorem(theorem_id: str, G: Group, p: int, *, group_name: str = "",
                  limits: Limits = DEFAULT_LIMITS) -> VerificationOutcome:
    """Check one registered theorem on one group at one prime.

    The hypothesis is scanned, the conclusion is always evaluated, and the
    verdict is pass / vacuous / COUNTEREXAMPLE.  Capacity errors propagate;
    run_suite is the layer that quarantines them.
    """
    if theorem_id not in REGISTRY:
        raise ValidationError(
            f"unknown theorem id {theorem_id!r}; known: "
            + ", ".join(REGISTRY_ORDER))
    return _check(theorem_id, FusionContext.build(G, p, limits=limits),
                  group_name)


def _check(theorem_id: str, ctx: FusionContext,
           group_name: str) -> VerificationOutcome:
    """One registered theorem on the fusion system ``ctx``."""
    start = time.perf_counter()
    entry = REGISTRY[theorem_id]
    G, p = ctx.G, ctx.p
    if G.order % p:
        scan = HypothesisScan(False, (),
                              (f"p={p} does not divide |G|={G.order}",))
    else:
        scan = scan_hypothesis(ctx, entry.template)
    concl = _conclusion_holds(ctx, entry.conclusion)
    if scan.holds and concl:
        verdict = "pass"
    elif not scan.holds:
        verdict = "vacuous"
    else:
        verdict = "COUNTEREXAMPLE"
    return VerificationOutcome(
        theorem_id=theorem_id,
        group_name=group_name or f"group of order {G.order}",
        group_order=G.order, prime=p,
        hypothesis_holds=scan.holds, witness_orders=scan.witness_orders,
        notes=scan.notes,
        conclusion=entry.conclusion, conclusion_holds=concl,
        verdict=verdict, seconds=time.perf_counter() - start)


def _conclusion_holds(ctx: FusionContext, conclusion: str) -> bool:
    if conclusion == "supersolvable":
        return supersolvable_chain(ctx) is not None
    if conclusion == "p_nilpotent":
        return ctx.memo(("classification",), lambda: classify_group(
            ctx.G, ctx.p, limits=ctx.limits)).p_nilpotent
    raise ValidationError(f"unknown conclusion {conclusion!r}")


# -- the suite ------------------------------------------------------------------------

@dataclass(frozen=True)
class SuiteReport:
    outcomes: tuple[VerificationOutcome, ...]
    totals: dict
    entry_errors: tuple[dict, ...]
    seconds: float


def run_suite(entries, theorem_ids=None, *, primes=None,
              limits: Limits = DEFAULT_LIMITS, threads: int = 1) -> SuiteReport:
    """Run theorems over (name, Group) pairs, at every prime dividing each
    order, or at each of ``primes`` when given (a prime that does not divide
    an order gives vacuous rows that say so).

    Outcomes are ordered by entry, then prime, then registry order,
    regardless of thread count.  Capacity failures are quarantined into
    ``entry_errors`` instead of aborting the suite.
    """
    ids = list(REGISTRY_ORDER) if theorem_ids in (None, "all") else list(theorem_ids)
    for tid in ids:
        if tid not in REGISTRY:
            raise ValidationError(f"unknown theorem id {tid!r}")
    entries = list(entries)
    start = time.perf_counter()

    def eval_entry(item):
        name, G = item
        outcomes: list[VerificationOutcome] = []
        errors: list[dict] = []
        for p in prime_divisors(G.order) if primes is None else primes:
            try:
                ctx = FusionContext.build(G, p, limits=limits)
            except CapacityError as exc:
                errors.append({"group": name, "prime": p, "theorem": "*",
                               "error": str(exc)})
                continue
            for tid in ids:
                try:
                    outcomes.append(_check(tid, ctx, name))
                except CapacityError as exc:
                    errors.append({"group": name, "prime": p, "theorem": tid,
                                   "error": str(exc)})
        return outcomes, errors

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(eval_entry, entries))
    else:
        results = [eval_entry(item) for item in entries]

    outcomes: list[VerificationOutcome] = []
    entry_errors: list[dict] = []
    for outs, errs in results:
        outcomes.extend(outs)
        entry_errors.extend(errs)
    totals = {"pass": 0, "vacuous": 0, "COUNTEREXAMPLE": 0, "error": 0}
    for o in outcomes:
        totals[o.verdict] += 1
    totals["error"] += len(entry_errors)
    return SuiteReport(outcomes=tuple(outcomes), totals=totals,
                       entry_errors=tuple(entry_errors),
                       seconds=time.perf_counter() - start)


# -- branch fidelity -------------------------------------------------------------------

def branch_fidelity_report(entries, *, limits: Limits = DEFAULT_LIMITS
                           ) -> tuple[dict, ...]:
    """Flip each registered branch flag off and report how hypotheses move.

    Purely observational: rows show, per (theorem, group, prime), whether the
    strict and the weakened hypothesis hold.  Nothing is asserted — the rows
    exist so a reader can see which corpus cases exercise each branch clause.
    """
    rows: list[dict] = []
    flips: list[tuple[str, str, HypothesisTemplate]] = []
    for tid in REGISTRY_ORDER:
        entry = REGISTRY[tid]
        t = entry.template
        if t.branch is not None:
            flips.append((tid, f"branch:{t.branch.clause}@{t.branch.guard}",
                          replace(t, branch=None)))
        if t.two_abelian_maximals:
            flips.append((tid, "two_abelian_maximals",
                          replace(t, two_abelian_maximals=False)))
    for name, G in entries:
        for p in prime_divisors(G.order):
            ctx = FusionContext.build(G, p, limits=limits)
            for tid, flag, weakened in flips:
                strict = scan_hypothesis(ctx, REGISTRY[tid].template)
                weak = scan_hypothesis(ctx, weakened)
                rows.append({
                    "theorem": tid, "flag": flag, "group": name, "prime": p,
                    "strict_holds": strict.holds,
                    "weakened_holds": weak.holds,
                    "differs": strict.holds != weak.holds,
                })
    return tuple(rows)
