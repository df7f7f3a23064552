"""Command-line front end.

Subcommands:

  analyze       full fusion-system summary for one group at one prime
  predicate     one subgroup predicate (fusion, closure, or embedding kind)
  check         theorem verification for one group or a whole corpus
  equivalences  the predicate-equivalence table over all subgroups of S

Groups are named by corpus name (``S4``), by builtin constructor expression
(``builtin:dihedral(16)``), or by a path to a JSON group file.  Exit codes:
0 success, 1 internal inconsistency, 2 invalid input or unsupported case,
3 capacity cap hit, 4 a theorem counterexample was found.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .classify import classify_group
from .corpus import corpus_group, load_corpus, load_group
from .catalog import builtin_group
from .errors import (CapacityError, EngineError, PreconditionError,
                     UnsupportedCaseError, ValidationError)
from .fusion import (CLOSURE_PREDICATES, FUSION_PREDICATES, FusionContext,
                     closure_predicate, fusion_predicate, is_fusion_normal)
from .groups import Group, Subgroup
from .limits import DEFAULT_LIMITS
from .normality import NORMALITY_KINDS, equivalence_suite, group_predicate
from .perms import from_cycles
from .report import (analysis_payload, canonical_json, equivalence_payload,
                     make_report, render_text, render_value, subgroup_digest,
                     suite_payload, group_digest)
from .verify import REGISTRY, REGISTRY_ORDER, SuiteReport, run_suite

PREDICATE_KINDS = (FUSION_PREDICATES + CLOSURE_PREDICATES + NORMALITY_KINDS
                   + ("fusion_normal",))


def _add_shared(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--order-cap", type=int, default=None,
                        help="largest group order the engine will accept")
    parser.add_argument("--subgroup-cap", type=int, default=None,
                        help="largest subgroup count per lattice walk")
    parser.add_argument("--json", action="store_true",
                        help="print the canonical JSON report instead of text")
    parser.add_argument("--out", metavar="PATH",
                        help="also write the canonical JSON report to PATH")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fusionsys",
        description="fusion systems of finite permutation groups")
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="summarize the fusion system")
    p_an.add_argument("--group", required=True)
    p_an.add_argument("--prime", required=True, type=int)
    _add_shared(p_an)

    p_pr = sub.add_parser("predicate", help="decide one subgroup predicate")
    p_pr.add_argument("--group", required=True)
    p_pr.add_argument("--prime", required=True, type=int)
    p_pr.add_argument("--subgroup", required=True,
                      help="JSON list of generators, each a list of cycles "
                           "over 0-based points, e.g. '[[[0,1],[2,3]]]'")
    p_pr.add_argument("--kind", required=True, choices=PREDICATE_KINDS)
    _add_shared(p_pr)

    p_ch = sub.add_parser("check", help="verify registered theorems")
    p_ch.add_argument("--group")
    p_ch.add_argument("--prime", default="all",
                      help="a prime, or 'all' for every prime dividing each "
                           "group order")
    p_ch.add_argument("--theorem", default="all",
                      help="a registry id, or 'all'")
    p_ch.add_argument("--corpus", metavar="SOURCE",
                      help="'builtin', a JSON group file, or a directory of "
                           "them; runs the suite instead of --group")
    p_ch.add_argument("--threads", type=int, default=1)
    p_ch.add_argument("--list", action="store_true",
                      help="list registered theorem ids and exit")
    _add_shared(p_ch)

    p_eq = sub.add_parser("equivalences",
                          help="predicate-equivalence table over subgroups "
                               "of S")
    p_eq.add_argument("--group", required=True)
    p_eq.add_argument("--prime", required=True, type=int)
    _add_shared(p_eq)
    return parser


def _limits_from(args) -> "DEFAULT_LIMITS.__class__":
    overrides = {}
    if getattr(args, "order_cap", None):
        overrides["order_cap"] = args.order_cap
    if getattr(args, "subgroup_cap", None):
        overrides["subgroup_cap"] = args.subgroup_cap
    return DEFAULT_LIMITS.scaled(**overrides) if overrides else DEFAULT_LIMITS


def resolve_group(token: str, *, limits) -> tuple[str, Group]:
    """Corpus name, ``builtin:`` expression, or JSON file path."""
    if token.startswith("builtin:"):
        spec = token[len("builtin:"):]
        return spec, builtin_group(spec, limits=limits)
    if token.endswith(".json") or os.path.exists(token):
        return load_group(token, limits=limits)
    return corpus_group(token, limits=limits)


def _parse_subgroup(ctx: FusionContext, raw: str) -> Subgroup:
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"--subgroup is not valid JSON: {exc}") from exc
    if not isinstance(data, list):
        raise ValidationError(
            "--subgroup must be a JSON list of generators")
    gens = [from_cycles(ctx.G.degree, cyc) for cyc in data]
    seed = [ctx.G.index_of(g) for g in gens]
    return Subgroup._from_closed(ctx.G, ctx.G.closure_indices(seed))


def _emit(doc: dict, args, *, seconds: float) -> None:
    if args.json:
        sys.stdout.write(canonical_json(doc))
    else:
        sys.stdout.write(render_text(doc, seconds=seconds))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(canonical_json(doc))
        if not args.json:
            sys.stdout.write(f"wrote {args.out}\n")


def _cmd_analyze(args) -> int:
    limits = _limits_from(args)
    t0 = time.perf_counter()
    name, G = resolve_group(args.group, limits=limits)
    ctx = FusionContext.build(G, args.prime, limits=limits)
    classification = classify_group(G, args.prime, limits=limits)
    payload = analysis_payload(ctx, name, classification)
    doc = make_report("analysis", payload, limits=limits)
    _emit(doc, args, seconds=time.perf_counter() - t0)
    return 0


def _cmd_predicate(args) -> int:
    limits = _limits_from(args)
    t0 = time.perf_counter()
    name, G = resolve_group(args.group, limits=limits)
    ctx = FusionContext.build(G, args.prime, limits=limits)
    H = _parse_subgroup(ctx, args.subgroup)
    kind = args.kind
    witness = None
    if kind in FUSION_PREDICATES:
        holds = fusion_predicate(ctx, H, kind)
    elif kind in CLOSURE_PREDICATES:
        rep = closure_predicate(ctx, H, kind)
        holds, witness = rep.holds, rep.witness
    elif kind == "fusion_normal":
        holds = is_fusion_normal(ctx, H)
    else:
        rep = group_predicate(G, ctx.S, H, kind, limits=limits)
        holds, witness = rep.holds, rep.witness
    payload = {
        "group": group_digest(name, G),
        "prime": args.prime,
        "subgroup": subgroup_digest(H),
        "kind": kind,
        "holds": holds,
        "witness": render_value(witness),
    }
    doc = make_report("predicate", payload, limits=limits)
    _emit(doc, args, seconds=time.perf_counter() - t0)
    return 0


def _suite_exit_code(suite: SuiteReport) -> int:
    if suite.totals.get("COUNTEREXAMPLE"):
        return 4
    if suite.entry_errors:
        return 3
    return 0


def _cmd_check(args) -> int:
    limits = _limits_from(args)
    if args.list:
        for tid in REGISTRY_ORDER:
            sys.stdout.write(f"{tid}: {REGISTRY[tid].description}\n")
        return 0
    ids = list(REGISTRY_ORDER) if args.theorem == "all" else [args.theorem]
    for tid in ids:
        if tid not in REGISTRY:
            raise ValidationError(
                f"unknown theorem id {tid!r}; see 'check --list'")
    if args.prime == "all":
        primes = None
    else:
        try:
            primes = [int(args.prime)]
        except ValueError:
            raise ValidationError(
                f"--prime must be a prime or 'all', got {args.prime!r}"
            ) from None
    if args.corpus:
        entries = load_corpus(args.corpus, limits=limits)
    elif args.group:
        entries = [resolve_group(args.group, limits=limits)]
    else:
        raise ValidationError("check needs --group or --corpus")
    suite = run_suite(entries, ids, primes=primes, limits=limits,
                      threads=max(1, args.threads))
    doc = make_report("suite", suite_payload(suite), limits=limits)
    _emit(doc, args, seconds=suite.seconds)
    return _suite_exit_code(suite)


def _cmd_equivalences(args) -> int:
    limits = _limits_from(args)
    t0 = time.perf_counter()
    name, G = resolve_group(args.group, limits=limits)
    rep = equivalence_suite(FusionContext.build(G, args.prime, limits=limits))
    payload = equivalence_payload(rep)
    payload["group"] = group_digest(name, G)
    doc = make_report("equivalences", payload, limits=limits)
    _emit(doc, args, seconds=time.perf_counter() - t0)
    return 0


_COMMANDS = {
    "analyze": _cmd_analyze,
    "predicate": _cmd_predicate,
    "check": _cmd_check,
    "equivalences": _cmd_equivalences,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except CapacityError as exc:
        sys.stderr.write(f"capacity: {exc}\n")
        return 3
    except (ValidationError, PreconditionError, UnsupportedCaseError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except EngineError as exc:
        sys.stderr.write(f"internal inconsistency: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
