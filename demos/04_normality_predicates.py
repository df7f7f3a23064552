"""
Generalized normality inside a Sylow subgroup
=============================================

"""

from fusionsys import (NORMALITY_KINDS, FusionContext, Subgroup,
                       equivalence_suite, from_cycles, group_predicate,
                       sylow_subgroup, symmetric)

G = symmetric(4)
S = sylow_subgroup(G, 2)


def make(*cycle_lists):
    idx = [G.index_of(from_cycles(4, c)) for c in cycle_lists]
    return Subgroup(G, G.closure_indices(idx))


# four subgroups of S with very different behavior
table = {
    "<(2 3)>       ": make([[2, 3]]),
    "<(0 1)(2 3)>  ": make([[0, 1], [2, 3]]),
    "V4            ": make([[0, 1], [2, 3]], [[0, 2], [1, 3]]),
    "C4            ": make([[0, 2, 1, 3]]),
}

print("kind".ljust(20), *table)
for kind in NORMALITY_KINDS:
    row = [str(group_predicate(G, S, H, kind).holds).ljust(14)
           for H in table.values()]
    print(kind.ljust(20), *row)

# witnesses explain failures: the transposition is not pronormal because no
# element of <H, H^g> conjugates H to H^g for some g
from fusionsys import cycle_string

rep = group_predicate(G, S, make([[2, 3]]), "pronormal")
print("\npronormal fails for <(2 3)>: g =",
      cycle_string(rep.witness["conjugator"]),
      "gives an image not reachable inside <H, H^g>")

# the s-subnormalizer condition fails for the central involution: the Klein
# four-group above it has normalizer all of G
rep = group_predicate(G, S, make([[0, 1], [2, 3]]), "s_subnormalizer")
print("s-subnormalizer witness: overgroup of order",
      rep.witness["overgroup"].order, "with normalizer of order",
      rep.witness["normalizer_order"])

# the suite runs every subgroup of S and records how the predicates align;
# pronormal, weakly normal and weakly closed always agree, and semi-invariant
# always matches the s-subnormalizer condition (a disagreement would raise)
report = equivalence_suite(FusionContext(G, S, 2))
print("\nsubgroups of S:", len(report.rows))
print("subnormalizer agreement:", report.subnormalizer_agreement)
