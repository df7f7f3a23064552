"""The built-in test corpus and JSON group files.

Every entry carries expected facts (order, Sylow orders) that are re-verified
each time the group is materialized, so a regression in the constructions is
caught at load time rather than deep inside a fusion computation.

Group files are plain JSON::

    {"name": "S4", "degree": 4,
     "generators": [[[0, 1]], [[0, 1, 2, 3]]],
     "expected": {"order": 24, "sylow": {"2": 8, "3": 3}}}

Generators are lists of cycles over 0-based points; fixed points are implied
by ``degree``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

from .catalog import builtin_group
from .errors import ValidationError
from .groups import Group, generate_group, p_part, prime_divisors
from .limits import DEFAULT_LIMITS, Limits
from .perms import cycles, from_cycles

__all__ = [
    "CorpusEntry", "CORPUS", "corpus_names", "corpus_group", "load_corpus",
    "save_group", "load_group",
]


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    spec: str                 # builtin constructor expression
    order: int
    sylow: dict               # prime -> expected Sylow order


CORPUS: tuple[CorpusEntry, ...] = (
    CorpusEntry("C2", "cyclic(2)", 2, {2: 2}),
    CorpusEntry("C3", "cyclic(3)", 3, {3: 3}),
    CorpusEntry("C4", "cyclic(4)", 4, {2: 4}),
    CorpusEntry("C8", "cyclic(8)", 8, {2: 8}),
    CorpusEntry("C12", "cyclic(12)", 12, {2: 4, 3: 3}),
    CorpusEntry("E4", "elementary_abelian(2, 2)", 4, {2: 4}),
    CorpusEntry("D8", "dihedral(8)", 8, {2: 8}),
    CorpusEntry("D16", "dihedral(16)", 16, {2: 16}),
    CorpusEntry("Q8", "dicyclic(8)", 8, {2: 8}),
    CorpusEntry("Dic12", "dicyclic(12)", 12, {2: 4, 3: 3}),
    CorpusEntry("S3", "symmetric(3)", 6, {2: 2, 3: 3}),
    CorpusEntry("A4", "alternating(4)", 12, {2: 4, 3: 3}),
    CorpusEntry("S4", "symmetric(4)", 24, {2: 8, 3: 3}),
    CorpusEntry("S3xC3", "direct_product(symmetric(3), cyclic(3))",
                18, {2: 2, 3: 9}),
    CorpusEntry("F21", "frobenius21()", 21, {3: 3, 7: 7}),
    CorpusEntry("Heis3", "heisenberg(3)", 27, {3: 27}),
    CorpusEntry("PSL(2,7)", "psl2(7)", 168, {2: 8, 3: 3, 7: 7}),
)

_BY_NAME = {entry.name: entry for entry in CORPUS}
_ALIASES = {entry.name.lower(): entry.name for entry in CORPUS}
_ALIASES.update({
    "psl27": "PSL(2,7)",
    "psl2(7)": "PSL(2,7)",
    "v4": "E4",
    "klein": "E4",
})


def corpus_names() -> tuple[str, ...]:
    return tuple(entry.name for entry in CORPUS)


def _verify_expected(name: str, G: Group, order: int, sylow: dict) -> None:
    if G.order != order:
        raise ValidationError(
            f"corpus entry {name!r}: built order {G.order}, expected {order}")
    for p, size in sylow.items():
        p = int(p)
        if p_part(G.order, p) != int(size):
            raise ValidationError(
                f"corpus entry {name!r}: Sylow {p}-order is "
                f"{p_part(G.order, p)}, expected {size}")


def corpus_group(name: str, *, limits: Limits = DEFAULT_LIMITS
                 ) -> tuple[str, Group]:
    """Build one corpus entry by name (aliases are accepted)."""
    canonical = _ALIASES.get(name.lower(), name)
    entry = _BY_NAME.get(canonical)
    if entry is None:
        raise ValidationError(
            f"unknown corpus group {name!r}; known: "
            + ", ".join(corpus_names()))
    G = builtin_group(entry.spec, limits=limits)
    _verify_expected(entry.name, G, entry.order, entry.sylow)
    return entry.name, G


def load_corpus(source: str = "builtin", *, limits: Limits = DEFAULT_LIMITS
                ) -> list[tuple[str, Group]]:
    """Return (name, Group) pairs: the whole builtin corpus, or JSON files.

    ``source`` may be "builtin", a path to one ``.json`` group file, or a
    directory whose ``*.json`` files are loaded in sorted order.
    """
    if source == "builtin":
        return [corpus_group(entry.name, limits=limits) for entry in CORPUS]
    if os.path.isdir(source):
        paths = sorted(
            os.path.join(source, fn) for fn in os.listdir(source)
            if fn.endswith(".json"))
        if not paths:
            raise ValidationError(f"no .json group files under {source!r}")
        return [load_group(path, limits=limits) for path in paths]
    if os.path.isfile(source):
        return [load_group(source, limits=limits)]
    raise ValidationError(
        f"corpus source {source!r} is neither 'builtin' nor an existing "
        "file or directory")


def save_group(path: str, name: str, G: Group) -> None:
    """Write a group file with its expected facts filled in."""
    doc = {
        "name": name,
        "degree": G.degree,
        "generators": [cycles(g) for g in G.generators],
        "expected": {
            "order": G.order,
            "sylow": {str(p): p_part(G.order, p)
                      for p in prime_divisors(G.order)},
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_group(path: str, *, limits: Limits = DEFAULT_LIMITS
               ) -> tuple[str, Group]:
    """Read a group file, rebuild the group, and re-verify expected facts."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: expected a JSON object")
    try:
        name = doc["name"]
        degree = doc["degree"]
        raw_gens = doc["generators"]
    except KeyError as exc:
        raise ValidationError(f"{path}: missing field {exc}") from exc
    if not isinstance(degree, int) or degree < 1:
        raise ValidationError(f"{path}: degree must be a positive integer")
    gens = [from_cycles(degree, cyc) for cyc in raw_gens]
    G = generate_group(degree, gens, limits=limits)
    expected = doc.get("expected") or {}
    if expected:
        _verify_expected(name, G, expected.get("order", G.order),
                         expected.get("sylow", {}))
    return str(name), G
