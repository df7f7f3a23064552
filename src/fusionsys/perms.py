"""Permutations on {0, ..., n-1} stored as image tuples.

A permutation of degree n is the tuple of images ``(p[0], ..., p[n-1])``.
Composition is left-to-right: ``compose(a, b)`` applies ``a`` first.  The
conjugate of ``x`` by ``g`` is ``g^-1 * x * g``, written ``x^g`` in prose
throughout the package.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from .errors import ValidationError

Perm = tuple[int, ...]


def identity(degree: int) -> Perm:
    if not isinstance(degree, int) or degree < 1:
        raise ValidationError(f"degree must be a positive integer, got {degree!r}")
    return tuple(range(degree))


def validate_perm(images: Iterable[int]) -> Perm:
    """Return ``images`` as a tuple after checking it is a bijection.

    Raises ValidationError when the images are not a permutation of
    ``0..n-1``.
    """
    try:
        p = tuple(int(i) for i in images)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"permutation images must be integers: {exc}") from None
    n = len(p)
    if n < 1:
        raise ValidationError("a permutation needs degree >= 1")
    seen = [False] * n
    for i in p:
        if not 0 <= i < n or seen[i]:
            raise ValidationError(
                f"images {p} do not describe a bijection on 0..{n - 1}")
        seen[i] = True
    return p


def compose(a: Perm, b: Perm) -> Perm:
    """The product ``a * b``: apply ``a`` first, then ``b``."""
    return tuple(b[i] for i in a)


def inverse(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def conjugate(x: Perm, g: Perm) -> Perm:
    """``g^-1 * x * g``, the conjugate of ``x`` by ``g``."""
    gi = inverse(g)
    return tuple(g[x[gi[i]]] for i in range(len(x)))


def perm_order(p: Perm) -> int:
    """Multiplicative order, read off the cycle lengths."""
    cs = cycles(p)
    return math.lcm(*(len(c) for c in cs)) if cs else 1


def cycles(p: Perm) -> list[tuple[int, ...]]:
    """Non-trivial cycles of ``p``, each starting at its least point,
    ordered by that least point.

    Raises ValidationError when ``p`` is not a permutation: a walk from a
    point then leaves the domain or meets a point seen before."""
    n = len(p)
    seen = [False] * n
    out: list[tuple[int, ...]] = []
    for start in range(n):
        if seen[start] or p[start] == start:
            seen[start] = True
            continue
        cyc = [start]
        seen[start] = True
        j = p[start]
        while j != start:
            if not 0 <= j < n or seen[j]:
                raise ValidationError(
                    f"images {tuple(p)} do not describe a bijection on "
                    f"0..{n - 1}")
            cyc.append(j)
            seen[j] = True
            j = p[j]
        out.append(tuple(cyc))
    return out


def from_cycles(degree: int, cycle_list: Sequence[Sequence[int]]) -> Perm:
    """Build a permutation of the given degree from disjoint cycles.

    Points are 0-based.  Repeated points, points outside the domain, and
    non-integer entries raise ValidationError.
    """
    if not isinstance(degree, int) or degree < 1:
        raise ValidationError(f"degree must be a positive integer, got {degree!r}")
    images = list(range(degree))
    used: set[int] = set()
    for cyc in cycle_list:
        pts = []
        for raw in cyc:
            if not isinstance(raw, int) or isinstance(raw, bool):
                raise ValidationError(f"cycle entry {raw!r} is not an integer")
            if not 0 <= raw < degree:
                raise ValidationError(
                    f"cycle point {raw} outside the domain 0..{degree - 1}")
            if raw in used:
                raise ValidationError(f"point {raw} appears in two cycles")
            used.add(raw)
            pts.append(raw)
        for i, pt in enumerate(pts):
            images[pt] = pts[(i + 1) % len(pts)]
    return tuple(images)


def cycle_string(p: Perm) -> str:
    """Cycle notation like ``(0 1)(2 3)``; the identity renders as ``()``."""
    cs = cycles(p)
    if not cs:
        return "()"
    return "".join("(" + " ".join(str(pt) for pt in c) + ")" for c in cs)
