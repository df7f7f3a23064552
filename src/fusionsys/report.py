"""Report documents: canonical JSON plus a plain-text rendering.

A document is a dict with a fixed envelope::

    {"schema_version": "1", "kind": ..., "generated_at": ...,
     "engine_caps": {...}, "payload": {...}}

``generated_at`` is the only volatile field: two runs over the same inputs
produce byte-identical canonical JSON except for that timestamp.  Wall-clock
timings therefore never enter a payload; they live on the in-memory result
objects and only show up in text rendering.
"""

from __future__ import annotations

import json
from datetime import datetime, timezone

from .errors import ValidationError
from .groups import Group, Subgroup, subgroup_label
from .limits import DEFAULT_LIMITS, Limits
from .perms import cycle_string

__all__ = [
    "SCHEMA_VERSION", "subgroup_digest", "render_value", "make_report",
    "canonical_json", "write_report", "read_report", "analysis_payload",
    "suite_payload", "equivalence_payload", "outcome_row", "render_text",
]

SCHEMA_VERSION = "1"


def subgroup_digest(H: Subgroup) -> dict:
    return {
        "label": subgroup_label(H),
        "order": H.order,
        "generators": [cycle_string(g) for g in H.generators],
    }


def render_value(value):
    """Make predicate witnesses and similar structures JSON-friendly.

    Permutations become cycle strings, subgroups become digests, mappings and
    sequences recurse.  Anything already JSON-representable passes through.
    """
    if isinstance(value, Subgroup):
        return subgroup_digest(value)
    if isinstance(value, tuple) and value and all(
            isinstance(x, int) for x in value):
        # a permutation in image form
        return cycle_string(value)
    if isinstance(value, dict):
        return {_render_key(k): render_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [render_value(v) for v in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


def _render_key(key):
    if isinstance(key, tuple):
        return cycle_string(key)
    return str(key)


def engine_caps(limits: Limits) -> dict:
    return {"order_cap": limits.order_cap, "degree_cap": limits.degree_cap,
            "subgroup_cap": limits.subgroup_cap}


def make_report(kind: str, payload: dict, *,
                limits: Limits = DEFAULT_LIMITS) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "generated_at": datetime.now(timezone.utc).strftime(
            "%Y-%m-%dT%H:%M:%SZ"),
        "engine_caps": engine_caps(limits),
        "payload": payload,
    }


def canonical_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def write_report(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(doc))


def read_report(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or doc.get("schema_version") != SCHEMA_VERSION:
        raise ValidationError(
            f"{path}: not a schema version {SCHEMA_VERSION} report")
    if "kind" not in doc or "payload" not in doc:
        raise ValidationError(f"{path}: missing report fields")
    return doc


# -- payload builders -----------------------------------------------------------

def group_digest(name: str, G: Group) -> dict:
    return {
        "name": name,
        "order": G.order,
        "degree": G.degree,
        "generators": [cycle_string(g) for g in G.generators],
    }


def analysis_payload(ctx, name: str, classification) -> dict:
    """Full fusion-system summary for one (G, p)."""
    from .fusion import (closure_predicate, essential_star, fusion_class,
                         fusion_p_core, is_fusion_normal, supersolvable_chain,
                         sylow_controls_fusion)
    lattice = ctx.lattice_S
    class_reps = {}
    for H in lattice.all:
        rep = fusion_class(ctx, H).representative
        class_reps.setdefault(rep.indices, rep)
    closed = {kind: [] for kind in
              ("strongly_closed", "weakly_closed", "semi_invariant")}
    for H in lattice.all:
        for kind in closed:
            if closure_predicate(ctx, H, kind).holds:
                closed[kind].append(subgroup_digest(H))
    chain = supersolvable_chain(ctx)
    return {
        "group": group_digest(name, ctx.G),
        "prime": ctx.p,
        "sylow": subgroup_digest(ctx.S),
        "classification": {
            "p_nilpotent": classification.p_nilpotent,
            "p_closed": classification.p_closed,
            "supersolvable_group": classification.supersolvable,
            "coprime_condition": classification.coprime_condition,
            "notes": list(classification.notes),
        },
        "objects": {
            "subgroups_of_S": len(lattice.all),
            "fusion_classes": len(class_reps),
        },
        "essential_star": [subgroup_digest(H)
                           for H in essential_star(ctx)],
        "fusion_p_core": subgroup_digest(fusion_p_core(ctx)),
        "fusion_normal": [subgroup_digest(H) for H in lattice.all
                          if is_fusion_normal(ctx, H)],
        "closure": closed,
        "supersolvable": {
            "holds": chain is not None,
            "chain": None if chain is None
            else [subgroup_digest(H) for H in chain],
        },
        "sylow_controls_fusion": sylow_controls_fusion(ctx),
    }


def outcome_row(outcome) -> dict:
    """One suite row; timings deliberately left out."""
    return {
        "theorem": outcome.theorem_id,
        "group": outcome.group_name,
        "group_order": outcome.group_order,
        "prime": outcome.prime,
        "hypothesis_holds": outcome.hypothesis_holds,
        "witness_orders": list(outcome.witness_orders),
        "notes": list(outcome.notes),
        "conclusion": outcome.conclusion,
        "conclusion_holds": outcome.conclusion_holds,
        "verdict": outcome.verdict,
    }


def suite_payload(suite) -> dict:
    return {
        "rows": [outcome_row(o) for o in suite.outcomes],
        "totals": dict(suite.totals),
        "entry_errors": [dict(e) for e in suite.entry_errors],
    }


def equivalence_payload(rep) -> dict:
    rows = []
    for row in rep.rows:
        rendered = {}
        for key, value in row.items():
            rendered[key] = render_value(value)
        rows.append(rendered)
    return {
        "group_order": rep.group_order,
        "prime": rep.prime,
        "sylow_order": rep.sylow_order,
        "rows": rows,
        "subnormalizer_agreement": rep.subnormalizer_agreement,
    }


# -- text rendering ----------------------------------------------------------------

def render_text(doc: dict, *, seconds: float | None = None) -> str:
    """Human-oriented rendering of a report document.

    ``seconds`` is the live wall-clock figure (never stored in the doc).
    """
    kind = doc.get("kind", "?")
    payload = doc.get("payload", {})
    lines = [f"[{kind}] schema {doc.get('schema_version')}"]
    if kind == "analysis":
        lines += _analysis_lines(payload)
    elif kind == "suite":
        lines += _suite_lines(payload)
    elif kind == "equivalences":
        lines += _equivalence_lines(payload)
    elif kind == "predicate":
        lines += _predicate_lines(payload)
    else:
        lines.append(json.dumps(payload, sort_keys=True, indent=2))
    if seconds is not None:
        lines.append(f"elapsed: {seconds:.3f}s")
    return "\n".join(lines) + "\n"


def _fmt_subgroup(d: dict) -> str:
    gens = ", ".join(d["generators"]) or "()"
    return f"{d['label']} (order {d['order']}, <{gens}>)"


def _predicate_lines(p: dict) -> list[str]:
    g = p["group"]
    lines = [
        f"group {g['name']}: order {g['order']}, prime {p['prime']}",
        f"subgroup {_fmt_subgroup(p['subgroup'])}",
        f"{p['kind']}: {'yes' if p['holds'] else 'no'}",
    ]
    if p.get("witness") is not None:
        lines.append("witness: " + json.dumps(p["witness"], sort_keys=True))
    return lines


def _analysis_lines(p: dict) -> list[str]:
    g = p["group"]
    lines = [
        f"group {g['name']}: order {g['order']}, degree {g['degree']}",
        f"prime {p['prime']}, Sylow subgroup "
        + _fmt_subgroup(p["sylow"]),
        f"subgroups of S: {p['objects']['subgroups_of_S']}, fusion classes: "
        f"{p['objects']['fusion_classes']}",
        "essential family (with S): "
        + (", ".join(_fmt_subgroup(d) for d in p["essential_star"]) or "-"),
        "largest normal object: " + _fmt_subgroup(p["fusion_p_core"]),
    ]
    for kind in ("strongly_closed", "weakly_closed", "semi_invariant"):
        names = ", ".join(d["label"] for d in p["closure"][kind]) or "-"
        lines.append(f"{kind}: {names}")
    ss = p["supersolvable"]
    if ss["holds"]:
        lines.append("supersolvable: yes, chain "
                     + " < ".join(d["label"] for d in ss["chain"]))
    else:
        lines.append("supersolvable: no")
    cls = p["classification"]
    lines.append(
        f"group classification: p_nilpotent={cls['p_nilpotent']}, "
        f"p_closed={cls['p_closed']}, "
        f"supersolvable_group={cls['supersolvable_group']}")
    lines.append(f"Sylow subgroup controls fusion: "
                 f"{p['sylow_controls_fusion']}")
    return lines


def _suite_lines(p: dict) -> list[str]:
    lines = []
    for row in p["rows"]:
        mark = {"pass": "PASS", "vacuous": "----",
                "COUNTEREXAMPLE": "FAIL"}.get(row["verdict"], "ERR ")
        extra = ""
        if row["witness_orders"]:
            extra = " |D| in " + str(row["witness_orders"])
        if row["notes"]:
            extra += " (" + "; ".join(row["notes"]) + ")"
        lines.append(
            f"{mark} {row['theorem']:<34} {row['group']:<10} "
            f"p={row['prime']}{extra}")
    t = p["totals"]
    lines.append(
        f"totals: pass={t.get('pass', 0)} vacuous={t.get('vacuous', 0)} "
        f"counterexamples={t.get('COUNTEREXAMPLE', 0)} "
        f"errors={t.get('error', 0)}")
    for err in p["entry_errors"]:
        lines.append(f"ERROR {err['group']} p={err['prime']} "
                     f"{err['theorem']}: {err['error']}")
    return lines


def _equivalence_lines(p: dict) -> list[str]:
    lines = [f"group order {p['group_order']}, p={p['prime']}, "
             f"|S|={p['sylow_order']}"]
    for row in p["rows"]:
        gens = ", ".join(row.get("generators", [])) or "()"
        kinds = {k: v for k, v in row.items()
                 if isinstance(v, bool)}
        flat = " ".join(f"{k}={'T' if v else 'F'}" for k, v in kinds.items())
        lines.append(f"  order {row['order']:>4} <{gens}>: {flat}")
    lines.append(f"subnormalizer agreement: "
                 f"{p['subnormalizer_agreement']:.2f}")
    return lines
