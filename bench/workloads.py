"""The benchmark's workloads: named cases, the operation each runs, and the
digest that each operation's output is reduced to.

Every operation builds its groups fresh from a catalog spec, because every
``fusionsys`` command pays for table and lattice construction.  Library
functions are looked up on their modules at call time (``verify.run_suite``,
not a name bound at import), so the traced run sees the wrapped versions.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Callable

from fusionsys import catalog, classify, corpus, fusion, report, verify
from fusionsys.groups import Subgroup


@dataclass(frozen=True)
class Case:
    name: str
    run: Callable[[], str]      # performs the operation, returns its digest


@dataclass(frozen=True)
class Workload:
    name: str
    cases: tuple[Case, ...]
    # Nearest-rank percentile reported as latency_tail_s.  It is the highest
    # of 50/75/90/95/99 that keeps ten samples beyond it after
    # ``min_passes`` whole passes, and it is fixed so that a faster program,
    # which fits more passes into a run, still reports the same percentile.
    tail_percentile: int
    min_passes: int


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class OperationFailed(Exception):
    """The operation returned, but its result breaks the contract."""


# -- suite: `fusionsys check` traffic -----------------------------------------

SUITE_EXTRA = (
    "symmetric(5)",
    "direct_product(alternating(5), cyclic(2))",
    "direct_product(alternating(4), alternating(4))",
    "direct_product(symmetric(4), symmetric(3))",
)


def _suite_case(name: str, spec: str) -> Case:
    def run() -> str:
        G = catalog.builtin_group(spec)
        suite = verify.run_suite([(name, G)], threads=1)
        if suite.totals.get("COUNTEREXAMPLE"):
            raise OperationFailed(f"{name}: COUNTEREXAMPLE verdicts")
        if suite.entry_errors:
            raise OperationFailed(f"{name}: entry errors {suite.entry_errors}")
        return _sha(report.canonical_json(report.suite_payload(suite)))
    return Case(name, run)


# -- analyze: `fusionsys analyze` traffic -------------------------------------

ANALYZE_CASES = (
    ("D8xD8@2", "direct_product(dihedral(8), dihedral(8))", 2),
    ("E32@2", "elementary_abelian(2, 5)", 2),
    ("D16xE4@2", "direct_product(dihedral(16), elementary_abelian(2, 2))", 2),
    ("Q8xD8@2", "direct_product(dicyclic(8), dihedral(8))", 2),
    ("E81@3", "elementary_abelian(3, 4)", 3),
    ("Heis3xC3@3", "direct_product(heisenberg(3), cyclic(3))", 3),
    ("E4xA4@2", "direct_product(elementary_abelian(2, 2), alternating(4))", 2),
    ("S4xC2@2", "direct_product(symmetric(4), cyclic(2))", 2),
)


def _analyze_case(name: str, spec: str, p: int) -> Case:
    def run() -> str:
        G = catalog.builtin_group(spec)
        ctx = fusion.FusionContext.build(G, p)
        classification = classify.classify_group(G, p)
        payload = report.analysis_payload(ctx, spec, classification)
        # the payload alone: make_report's envelope adds a timestamp
        return _sha(report.canonical_json(payload))
    return Case(name, run)


# -- fusion-large: fusion-only queries on large groups ------------------------

LARGE_CASES = (
    ("A6", "psl2(9)"),
    ("PSL(2,8)", "psl2(8)"),
    ("S6", "symmetric(6)"),
    ("A7", "alternating(7)"),
)


def _canon(value):
    """A JSON-ready dump of query results, independent of object identity."""
    if isinstance(value, Subgroup):
        return {"order": value.order, "indices": list(value.indices)}
    if isinstance(value, dict):
        return {str(k): _canon(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    return value


def _prime_divisors(n: int) -> list[int]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _large_case(name: str, spec: str) -> Case:
    def run() -> str:
        G = catalog.builtin_group(spec)
        dump = []
        for p in _prime_divisors(G.order):
            ctx = fusion.FusionContext.build(G, p)
            lattice = ctx.lattice_S.all
            closure = [[kind, fusion.closure_predicate(ctx, Q, kind)]
                       for Q in lattice for kind in fusion.CLOSURE_PREDICATES]
            dump.append({
                "prime": p,
                "lattice_S": list(lattice),
                "essential_star": fusion.essential_star(ctx),
                "fusion_p_core": fusion.fusion_p_core(ctx),
                "closure": [[kind, rep.holds, rep.witness]
                            for kind, rep in closure],
                "fusion_normal": [fusion.is_fusion_normal(ctx, Q)
                                  for Q in lattice],
                "supersolvable_chain": fusion.supersolvable_chain(ctx),
                "sylow_controls_fusion": fusion.sylow_controls_fusion(ctx),
            })
        return _sha(json.dumps(_canon(dump), sort_keys=True))
    return Case(name, run)


# Why each workload was chosen is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "suite": Workload(
        "suite",
        tuple(_suite_case(e.name, e.spec) for e in corpus.CORPUS)
        + tuple(_suite_case(spec, spec) for spec in SUITE_EXTRA),
        tail_percentile=90, min_passes=5),
    "analyze": Workload(
        "analyze",
        tuple(_analyze_case(*c) for c in ANALYZE_CASES),
        tail_percentile=75, min_passes=5),
    "fusion-large": Workload(
        "fusion-large",
        tuple(_large_case(*c) for c in LARGE_CASES),
        tail_percentile=50, min_passes=5),
}


def build_ops(workload: str, seed: int) -> Callable[[], list[Case]]:
    """A generator of passes: each call returns every case once, in an order
    shuffled by the seed.  The seed never changes the inputs."""
    cases = list(WORKLOADS[workload].cases)
    rng = random.Random(seed)

    def next_pass() -> list[Case]:
        order = cases[:]
        rng.shuffle(order)
        return order
    return next_pass
