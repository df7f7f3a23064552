"""
Running the theorem registry over the corpus
============================================

"""

from fusionsys import check_theorem, load_corpus, run_suite, symmetric
from fusionsys.verify import REGISTRY, REGISTRY_ORDER

# the registry: supersolvability criteria first, then their p-nilpotency
# sharpenings for gcd(p - 1, |G|) = 1
for tid in REGISTRY_ORDER:
    print(f"{tid:38s} -> {REGISTRY[tid].conclusion}")

# one check: dicyclic(12) at p=2 satisfies the first hypothesis with a
# witness order and its fusion system is supersolvable
from fusionsys import dicyclic

out = check_theorem("TheoremB", dicyclic(12), 2, group_name="Dic12")
print("\nTheoremB on Dic12 at p=2:", out.verdict,
      "witness orders", out.witness_orders)

# a vacuous case still evaluates the conclusion, so a false theorem with a
# satisfiable hypothesis cannot hide
out = check_theorem("TheoremB", symmetric(4), 2, group_name="S4")
print("TheoremB on S4 at p=2:", out.verdict,
      "(hypothesis", out.hypothesis_holds,
      "/ conclusion", out.conclusion_holds, ")")

# the whole corpus, every prime dividing each order, every theorem
corpus = load_corpus()
suite = run_suite(corpus)
print("\ncorpus entries:", len(corpus), " outcomes:", len(suite.outcomes))
print("totals:", suite.totals)

# the non-vacuous passes are the informative rows
passes = [o for o in suite.outcomes if o.verdict == "pass"]
print("non-vacuous passes:", len(passes))
for o in passes[:8]:
    print(f"  {o.theorem_id:28s} {o.group_name:10s} p={o.prime} "
          f"|D| in {list(o.witness_orders)}")
