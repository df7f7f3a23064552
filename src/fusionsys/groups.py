"""Finite permutation groups with fully materialized element sets.

Everything is exact and deterministic.  A group stores its elements once,
as the rows of an (n, degree) array of points, ``Group.points``, sorted
lexicographically (so the identity is always element 0); every search in the
package walks that order, and any "least witness" reported anywhere is
therefore reproducible run to run.  Points are big-endian in the smallest
unsigned dtype that holds them, so row bytes sort as rows do and one
``searchsorted`` locates any set of permutations among the elements.
``Group.elements``, the elements as image tuples, is built on first use.

A group is built in numpy.  ``generate_group`` closes the generators
breadth first: each level composes the whole frontier with every generator
in one gather and keeps the products whose bytes are new, and the elements
are sorted once at the end.  ``Subgroup.as_group`` takes its parent's rows,
and ``quotient_group`` builds its quotient from the rows of the coset
action.

Multiplication, inversion and conjugation index tables are built lazily as
numpy arrays.  The multiplication table is built by a breadth-first walk of
the right Cayley graph over the generators: the generators' rows come from
one lookup, and each level of the walk is filled by batched gathers of rows
already built.  Inverses are found by one lookup of the inverted
permutations, and element orders are the lcm of cycle lengths computed for
all elements at once.  The table's Python-list view, ``mul_rows``, builds
each row on first use, and only ``Group.closure_indices``, through which
every subgroup the package builds or checks is generated, reads it: a
closure fetches its generators' rows only, so a query that touches a few
subgroups of a large group never boxes the whole n*n table.  Tables of
4 MiB or more live in anonymous mappings of their own (``_table_array``),
so freeing a large group returns its tables to the OS.

Conjugation lives here, in one store and two scans.  ``Group.conjugates``
keeps one member-major block, whose row for a member (its conjugates under
every element) is built the first time that member is asked for: fusion
work inside a Sylow subgroup of a large group builds the rows of its
members only, never the n*n conjugation table.  ``conjugate_images`` lists
the distinct conjugates of a subgroup, or the distinct maps conjugation
induces on it, with their least conjugators; ``fixers`` lists the elements
that normalize or centralize a subgroup.  Normalizers, centralizers, fusion
classes, morphisms, automizer keys and the weak-closure predicates read
conjugation through these two scans; only elementwise scans, such as strong
closure and cores, read ``conjugates`` directly.

Every other answer about a group (its subgroup lattices, normalizers) is
kept in the group's one memo store, ``Group.memo``.
"""

from __future__ import annotations

import math
import mmap
import threading
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import CapacityError, EngineError, ValidationError
from .limits import DEFAULT_LIMITS, Limits
from .perms import Perm, compose, cycle_string, identity, validate_perm

__all__ = [
    "Group", "Subgroup", "GroupMap", "StructureFlags",
    "generate_group", "conjugate_subgroup", "normalizer", "centralizer",
    "core", "sylow_subgroup", "quotient_group", "subgroup_product",
    "structure_flags", "subgroup_label", "is_prime", "p_part",
    "prime_divisors",
]


def is_prime(n: int) -> bool:
    if not isinstance(n, int) or n < 2:
        return False
    for q in range(2, math.isqrt(n) + 1):
        if n % q == 0:
            return False
    return True


def prime_divisors(n: int) -> list[int]:
    """The distinct primes dividing n, in increasing order."""
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


def p_part(n: int, p: int) -> int:
    """The largest power of p dividing n."""
    m = 1
    while n % p == 0:
        n //= p
        m *= p
    return m


_MISSING = object()


class _Memo:
    """An object with one memo store, a dict filled through ``memo(key,
    compute)``.  Keys are tuples that start with the kind of answer.  A
    value is a function of its key and the object alone, so threads that
    fill one key at once compute equal values and the last write wins: the
    store needs no lock."""

    def __init__(self):
        self._memo: dict = {}

    def memo(self, key: tuple, compute):
        """The value stored under ``key``, from ``compute()`` on first use."""
        value = self._memo.get(key, _MISSING)
        if value is _MISSING:
            value = self._memo[key] = compute()
        return value


class Group(_Memo):
    """A finite permutation group on ``{0, ..., degree-1}``.

    Construct through :func:`generate_group` (or the catalog); the constructor
    itself trusts its arguments.  ``elements`` is the (n, degree) array of
    points the group keeps as ``points``, or a sequence of image tuples; its
    rows are sorted lexicographically and row 0 is the identity.
    """

    def __init__(self, degree: int, generators: tuple[Perm, ...], elements):
        super().__init__()
        point, row = _row_dtypes(degree)
        points = np.ascontiguousarray(elements, dtype=point)
        points.flags.writeable = False
        self.degree = degree
        self.generators = generators
        self.points = points
        self.order = len(points)
        # the row bytes, which increase with the index
        self._keys = points.view(row).ravel()
        if not self.order or (points[0] != np.arange(degree)).any():
            raise ValidationError("element 0 must be the identity; "
                                  "construct groups through generate_group")
        self._mul: np.ndarray | None = None
        self._inv: np.ndarray | None = None
        # conjugates of members: row _conj_pos[i] of _conj_block holds those
        # of member i; _conj_count rows are filled
        self._conj_block: np.ndarray | None = None
        self._conj_pos: np.ndarray | None = None
        self._conj_count = 0
        self._conj_lock = threading.Lock()
        self._mul_rows: _RowStore | None = None
        self._orders: tuple[int, ...] | None = None

    # -- basic access -------------------------------------------------------

    @cached_property
    def elements(self) -> tuple[Perm, ...]:
        """The elements as image tuples, in index order."""
        # columns as lists, zipped: Python ints, and no list per element
        return tuple(zip(*self.points.T.tolist()))

    def _position(self, perm) -> int:
        """The index of ``perm`` among the elements, or -1 when it is none.
        A point outside the domain is rejected before it is cast to the
        points' dtype, where it would wrap."""
        row = np.asarray(perm)
        if (row.shape != (self.degree,) or row.dtype.kind not in "iu"
                or row.min() < 0 or row.max() >= self.degree):
            return -1
        key = row.astype(self.points.dtype).view(self._keys.dtype)
        i = int(self._keys.searchsorted(key)[0])
        return i if i < self.order and (self.points[i] == row).all() else -1

    def _find(self, rows: np.ndarray, closed: str) -> np.ndarray:
        """The element index of each of an (m, degree) array of rows, which
        are products the element list must be ``closed`` under."""
        keys = np.ascontiguousarray(rows).view(self._keys.dtype).ravel()
        pos = self._keys.searchsorted(keys)
        if (self.points.take(pos, 0, mode="clip") != rows).any():
            raise EngineError(f"the element list is not closed under {closed}")
        return pos

    def index_of(self, perm: Perm) -> int:
        i = self._position(perm)
        if i < 0:
            raise ValidationError(
                f"permutation {perm!r} is not an element of this group")
        return i

    def __contains__(self, perm: Perm) -> bool:
        return self._position(perm) >= 0

    def generating_indices(self) -> tuple[int, ...]:
        """The indices of ``generators``, in their order."""
        return self.memo(("generating_indices",), lambda: tuple(self._find(
            np.array(self.generators, dtype=self.points.dtype
                     ).reshape(-1, self.degree), "its generators").tolist()))

    def __len__(self) -> int:
        return self.order

    def __repr__(self) -> str:
        gens = ", ".join(cycle_string(g) for g in self.generators) or "()"
        return f"<Group of order {self.order} on {self.degree} points <{gens}>>"

    # -- index tables (lazy) --------------------------------------------------

    def _dtype(self):
        return np.int16 if self.order <= 32000 else np.int32

    @property
    def mul_table(self) -> np.ndarray:
        """``mul_table[i, j]`` is the index of ``elements[i] * elements[j]``.

        The table is built along the right Cayley graph:
        ``row(x*g) = row(x)[row(g)]`` because ``(x*g)*j = x*(g*j)``.  One
        lookup of the products ``g*j`` gives the generators' rows, and a
        breadth-first walk from the identity fills each level with gathers
        of rows already built, in slabs of about ``_SLAB_ELEMENTS`` entries.

        Raises EngineError when the generators do not generate ``elements``,
        which is when the walk does not reach every row.
        """
        if self._mul is None:
            self._mul = self._cayley_table()
        return self._mul

    def _cayley_table(self) -> np.ndarray:
        n = self.order
        gens = np.array(self.generators, dtype=self.points.dtype
                        ).reshape(-1, self.degree)
        # points.take(gens, 1)[j, g] is gens[g] * elements[j]
        prod = self._find(self.points.take(gens, 1).reshape(-1, self.degree),
                          "multiplication by the generators")
        step = prod.reshape(n, len(gens)).T  # step[g] is the row of gens[g]
        table = _table_array((n, n), self._dtype())
        table[0] = np.arange(n)
        unreached = np.ones(n, dtype=bool)
        unreached[0] = False
        count = 1
        slab = max(1, _SLAB_ELEMENTS // n)
        frontier = np.zeros(1, dtype=np.intp)
        flat = table.reshape(-1)
        while count < n and frontier.size:
            level = []
            for g, gi in enumerate(step[:, 0].tolist()):  # g*1 is g
                # x -> x*g is one-to-one: the new products are distinct.
                # take, compress and put: cheaper than fancy indexing on
                # the small arrays of a small group
                found = flat.take(frontier * n + gi)  # table[frontier, gi]
                fresh = unreached.take(found)
                found = found.compress(fresh)
                if not found.size:
                    continue
                unreached.put(found, False)
                count += found.size
                xs = frontier.compress(fresh)
                for s in range(0, found.size, slab):
                    table[found[s:s + slab]] = table.take(
                        xs[s:s + slab], 0).take(step[g], 1)
                level.append(found)
            frontier = np.concatenate([frontier[:0]] + level)
        if count < n:
            raise EngineError(
                f"the generators reach {count} of the {n} elements; "
                f"construct groups through generate_group")
        return table

    @property
    def mul_rows(self) -> "_RowStore":
        """``mul_rows[i][j]`` is the index of ``elements[i] * elements[j]``,
        with rows as Python lists (fast scalar access).  Each row is built
        from ``mul_table`` the first time it is indexed."""
        if self._mul_rows is None:
            self._mul_rows = _RowStore(self.mul_table)
        return self._mul_rows

    @property
    def inv_vector(self) -> np.ndarray:
        """``inv_vector[i]`` is the index of ``elements[i]^-1``.  The rows of
        points are permutations, so their argsort inverts them all at once,
        and one lookup finds the inverses among the elements."""
        if self._inv is None:
            inverted = self.points.argsort(axis=1).astype(self.points.dtype)
            self._inv = self._find(inverted, "inversion").astype(self._dtype())
        return self._inv

    @property
    def conj_table(self) -> np.ndarray:
        """``conj_table[g, i]`` is the index of ``elements[g]^-1 *
        elements[i] * elements[g]``: ``conjugates(range(n))``, which builds
        the conjugates of every member.  Library code reads ``conjugates``
        instead."""
        return self.conjugates(range(self.order))

    def conjugates(self, indices) -> np.ndarray:
        """The (n, k) array whose entry ``[g, c]`` is the index of
        ``elements[g]^-1 * elements[indices[c]] * elements[g]``.

        The conjugates of a member under every g are built the first time
        that member is asked for, by one gather ``mul[inv, mul[i]]``, into a
        member-major block that holds one row per member built and doubles
        when it is full; a request reads its members' rows, transposed.
        Fusion work inside a Sylow subgroup of a large group builds the rows
        of its members only, never the n*n table.  Subgroup-level scans read
        the block through ``conjugate_images`` and ``fixers``.
        """
        idx = np.asarray(indices, dtype=np.int64)
        with self._conj_lock:  # threads may share one Group
            rows = self._conj_rows(idx)
            block = self._conj_block
        # filled rows are never rewritten, and growth copies them
        return block[rows].T

    def _conj_rows(self, idx: np.ndarray) -> np.ndarray:
        """Block rows of the members ``idx``, building those that are
        missing; the caller holds ``_conj_lock``."""
        n = self.order
        if self._conj_pos is None:
            self._conj_pos = np.full(n, -1, dtype=np.int64)
            self._conj_block = _table_array((min(n, _FIRST_ROWS), n),
                                            self._dtype())
        pos = self._conj_pos
        rows = pos[idx]
        if (rows >= 0).all():
            return rows
        # a negative index names the same member as in numpy indexing;
        # np.unique would import numpy.ma
        missing = np.zeros(n, dtype=bool)
        missing[idx[rows < 0]] = True
        need = np.flatnonzero(missing)
        start = self._conj_count
        stop = start + need.size
        block = self._conj_block
        if len(block) < stop:
            grown = _table_array((min(n, 2 * stop), n), self._dtype())
            grown[:start] = block[:start]
            block = self._conj_block = grown
        mul = self.mul_table
        inv = self.inv_vector
        # bound the (members x n) index temporaries of one gather
        step = max(1, _GATHER_ELEMENTS // n)
        for s in range(0, need.size, step):
            part = need[s:s + step]
            block[start + s:start + s + part.size] = mul[inv, mul[part]]
        pos[need] = np.arange(start, stop)
        self._conj_count = stop
        return pos[idx]

    @property
    def element_orders(self) -> tuple[int, ...]:
        """``element_orders[i]`` is the order of ``elements[i]``, the lcm of
        its cycle lengths.  Every point of every element is labelled with the
        least point of its cycle by pointer doubling, ``log2(degree)``
        gathers over all elements at once; a cycle's length is the number of
        points that carry its label.  Every partial lcm divides the order of
        its element, which is at most the group's, so int64 cannot
        overflow."""
        if self._orders is None:
            rows = self.points
            n, d = rows.shape
            # cell x*d + i stands for point i of element x
            jump = (rows + np.arange(0, n * d, d)[:, np.newaxis]).ravel()
            # label[c]: the least cell among c and its next `span - 1` images
            label = np.arange(n * d)
            span = 1
            while span < d:
                np.minimum(label, label[jump], out=label)
                jump = jump[jump]
                span *= 2
            lengths = np.bincount(label, minlength=n * d)[label]
            self._orders = tuple(
                np.lcm.reduce(lengths.reshape(n, d), axis=1).tolist())
        return self._orders

    # -- distinguished subgroups ---------------------------------------------

    def trivial_subgroup(self) -> "Subgroup":
        return Subgroup._from_closed(self, (0,))

    def full_subgroup(self) -> "Subgroup":
        return Subgroup._from_closed(self, tuple(range(self.order)))

    def closure_indices(self, seed: Iterable[int]) -> tuple[int, ...]:
        """Indices of the subgroup generated by the given element indices.

        The set grows by left multiplication by the generators, ``g*x`` is
        ``mul_rows[g][x]``, so only the generators' rows are fetched, not
        one row per member.  No other code reads ``mul_rows``.
        """
        gens = sorted(set(seed) - {0})
        if not gens:
            return (0,)
        mul = self.mul_rows
        rows = [mul[g] for g in gens]
        members = {0}
        members.update(gens)
        frontier = list(members)
        while frontier:
            nxt = []
            for x in frontier:
                for row in rows:
                    y = row[x]
                    if y not in members:
                        members.add(y)
                        nxt.append(y)
            frontier = nxt
        return tuple(sorted(members))


# elements per gather when conjugates of members are built: the index
# arrays numpy makes for one gather then stay near 8 MB
_GATHER_ELEMENTS = 1 << 20
# rows per gather when the multiplication table is filled: a slab of about
# this many entries stays in cache (np.take over a larger block is slower)
_SLAB_ELEMENTS = 1 << 16
# rows in the first block of conjugates: a large group's first block stays
# small (80 KB for A7)
_FIRST_ROWS = 16
# tables of at least this many bytes (A7's 12 MB, not S6's 1 MB) get an
# anonymous mapping of their own.  A smaller table can move peak RSS by no
# more than its size, and a mapping costs fresh zeroed pages on every build
# where malloc hands back memory the heap already holds
_OWN_MAPPING_BYTES = 1 << 22


def _table_array(shape: tuple[int, int], dtype) -> np.ndarray:
    """An uninitialised array for a group table.

    One of at least ``_OWN_MAPPING_BYTES`` lives in a private anonymous
    mapping that is unmapped when the array is freed.  From malloc it would
    land on the heap once glibc's dynamic mmap threshold has risen past its
    size; there a freed table stays resident, and whether the next table
    fits back into its hole depends on what was allocated meanwhile, so the
    peak RSS of a long-running process would differ by one table (12 MB
    for A7) from one run to the next.
    """
    dtype = np.dtype(dtype)
    nbytes = shape[0] * shape[1] * dtype.itemsize
    if nbytes < _OWN_MAPPING_BYTES:
        return np.empty(shape, dtype=dtype)
    buf = mmap.mmap(-1, nbytes, flags=mmap.MAP_PRIVATE)
    if hasattr(mmap, "MADV_HUGEPAGE"):  # Linux
        # as numpy asks for large arrays: a table is written in full at
        # once and then gathered from at random, so huge pages save page
        # faults and TLB misses; the mapping bounds them, so RSS is the same
        buf.madvise(mmap.MADV_HUGEPAGE)
    return np.ndarray(shape, dtype=dtype, buffer=buf)


class _RowStore(dict):
    """Rows of a multiplication table as lists, each built on first use."""

    __slots__ = ("_table",)

    def __init__(self, table: np.ndarray):
        super().__init__()
        self._table = table

    def __missing__(self, i: int) -> list[int]:
        # concurrent fills of one row compute the same list: idempotent
        row = self[i] = self._table[i].tolist()
        return row


def _row_dtypes(degree: int) -> tuple[np.dtype, np.dtype]:
    """How a permutation of ``degree`` is stored as a row: the dtype of a
    point, the smallest unsigned one that holds them, big-endian so that the
    bytes of a row sort as the row does lexicographically; and the dtype of
    the row's bytes as one void scalar."""
    size = 1 if degree <= 1 << 8 else 2 if degree <= 1 << 16 else 4
    return np.dtype(f">u{size}"), np.dtype(f"V{degree * size}")


class Subgroup:
    """A subgroup of a parent :class:`Group`, stored as sorted element indices.

    The public constructor verifies closure (``_greedy_generators``); internal
    code that already knows the set is closed uses ``_from_closed``.
    Subgroups compare by member set within the same parent; comparing across
    parents raises ValidationError rather than silently returning False.
    """

    __slots__ = ("parent", "indices", "index_set", "order", "_gens")

    def __init__(self, parent: Group, members: Iterable):
        idx = _member_indices(parent, members)
        gens = _greedy_generators(parent, idx)
        if gens is None:
            raise ValidationError("member set is not a subgroup: the closure "
                                  "of its greedy generators leaves it")
        self.parent = parent
        self.indices = idx
        self.index_set = frozenset(idx)
        self.order = len(idx)
        self._gens: tuple[int, ...] | None = gens

    @classmethod
    def _from_closed(cls, parent: Group, indices: tuple[int, ...]) -> "Subgroup":
        obj = object.__new__(cls)
        obj.parent = parent
        obj.indices = indices
        obj.index_set = frozenset(indices)
        obj.order = len(indices)
        obj._gens = None
        return obj

    # -- members -------------------------------------------------------------

    @property
    def members(self) -> tuple[Perm, ...]:
        els = self.parent.elements
        return tuple(els[i] for i in self.indices)

    def contains_perm(self, perm: Perm) -> bool:
        return self.parent._position(perm) in self.index_set

    def contains(self, other: "Subgroup") -> bool:
        self._same_parent(other)
        return other.index_set <= self.index_set

    def generating_indices(self) -> tuple[int, ...]:
        """A small deterministic generating set (greedy over sorted indices)."""
        if self._gens is None:
            self._gens = _greedy_generators(self.parent, self.indices)
        return self._gens

    @property
    def generators(self) -> tuple[Perm, ...]:
        els = self.parent.elements
        return tuple(els[i] for i in self.generating_indices())

    def as_group(self) -> Group:
        """This subgroup re-anchored as a Group in its own right: its
        element i is the parent's element ``indices[i]``, because the
        parent's rows, taken in index order, stay sorted."""
        P = self.parent
        gens = self.generators or (identity(P.degree),)
        return Group(P.degree, gens, P.points[list(self.indices)])

    # -- comparisons ----------------------------------------------------------

    def _same_parent(self, other: "Subgroup") -> None:
        if self.parent is not other.parent:
            raise ValidationError(
                "subgroups anchored to different parent groups cannot be "
                "compared; move one across with explicit membership first")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subgroup):
            return NotImplemented
        self._same_parent(other)
        return self.indices == other.indices

    def __hash__(self) -> int:
        return hash((id(self.parent), self.indices))

    @property
    def sort_key(self) -> tuple[int, tuple[int, ...]]:
        return (self.order, self.indices)

    def __repr__(self) -> str:
        gens = ", ".join(cycle_string(g) for g in self.generators) or "()"
        return f"<Subgroup of order {self.order} <{gens}>>"


def _member_indices(parent: Group, members: Iterable) -> tuple[int, ...]:
    idx: set[int] = set()
    for m in members:
        if isinstance(m, int) and not isinstance(m, bool):
            if not 0 <= m < parent.order:
                raise ValidationError(f"element index {m} out of range")
            idx.add(m)
        else:
            idx.add(parent.index_of(tuple(m)))
    if not idx:
        raise ValidationError("a subgroup needs at least the identity")
    return tuple(sorted(idx))


def _greedy_generators(G: Group, indices: tuple[int, ...]
                       ) -> tuple[int, ...] | None:
    """Generators of the subgroup with the sorted member indices
    ``indices``: each member not yet generated is adjoined in turn and the
    set closed again.  Each step at least doubles the closure, so there are
    at most log2 of the order.  None when a closure leaves ``indices``,
    which is when they are not a subgroup."""
    members = frozenset(indices)
    gens: list[int] = []
    covered = frozenset((0,))
    for i in indices:
        if i not in covered:
            gens.append(i)
            covered = frozenset(G.closure_indices(gens))
            if not covered <= members:
                return None
    return tuple(gens)


@dataclass(frozen=True)
class GroupMap:
    """A map between (sub)groups given by an explicit pointwise assignment.

    ``assignment`` maps source member permutations to target permutations.
    ``inducing_element`` records one group element whose conjugation induces
    the map, when there is one (fusion morphisms); quotient projections leave
    it None.
    """

    source: object
    target: object
    assignment: dict
    inducing_element: Perm | None = None

    def apply(self, perm: Perm) -> Perm:
        try:
            return self.assignment[perm]
        except KeyError:
            raise ValidationError(
                f"{cycle_string(perm)} is not in the domain of this map") from None

    def is_homomorphism(self) -> bool:
        items = list(self.assignment.items())
        amap = self.assignment
        for x, fx in items:
            for y, fy in items:
                if amap.get(compose(x, y)) != compose(fx, fy):
                    return False
        return True

    def kernel_members(self) -> tuple[Perm, ...]:
        n = len(next(iter(self.assignment.values())))
        e = identity(n)
        return tuple(sorted(x for x, fx in self.assignment.items() if fx == e))

    def __repr__(self) -> str:
        return (f"<GroupMap on {len(self.assignment)} elements"
                + (f" induced by {cycle_string(self.inducing_element)}"
                   if self.inducing_element is not None else "") + ">")


# -- construction -------------------------------------------------------------

def generate_group(degree: int, generators: Sequence, *,
                   limits: Limits = DEFAULT_LIMITS) -> Group:
    """Close a generating set of permutations into a Group.

    Generators are validated; the degree cap and order cap are enforced.
    A group with no generators is the trivial group on ``degree`` points.
    The closure is breadth first: each level composes the whole frontier
    with every generator in one gather, keeps the products whose bytes have
    not been seen, and raises CapacityError as soon as the elements found
    pass ``order_cap`` (``reached`` is ``order_cap + 1``).  The elements are
    sorted once at the end.
    """
    if not isinstance(degree, int) or degree < 1:
        raise ValidationError(f"degree must be a positive integer, got {degree!r}")
    if degree > limits.degree_cap:
        raise CapacityError(
            f"degree {degree} exceeds the cap of {limits.degree_cap} points",
            cap_name="degree_cap", cap_value=limits.degree_cap, reached=degree)
    gens: list[Perm] = []
    for raw in generators:
        g = validate_perm(raw)
        if len(g) != degree:
            raise ValidationError(
                f"generator {cycle_string(g)} has degree {len(g)}, expected {degree}")
        if g not in gens:
            gens.append(g)
    points, row = _row_dtypes(degree)
    gen_rows = np.array(gens, dtype=points).reshape(-1, degree)
    frontier = np.arange(degree, dtype=points)[np.newaxis]
    seen = {frontier.tobytes()}
    while True:
        # gen_rows.take(frontier, 1)[g, f] is frontier[f] * gens[g]
        products = gen_rows.take(frontier, 1).view(row)
        new = set(products.ravel().tolist())
        new.difference_update(seen)
        if not new:
            break
        seen.update(new)
        if len(seen) > limits.order_cap:
            raise CapacityError(
                f"group order exceeds the cap of {limits.order_cap}",
                cap_name="order_cap", cap_value=limits.order_cap,
                reached=limits.order_cap + 1)
        frontier = np.frombuffer(b"".join(new), dtype=points
                                 ).reshape(-1, degree)
    # bytes sort as the rows do: this is the order of sorted permutations
    rows = np.frombuffer(b"".join(sorted(seen)), dtype=points
                         ).reshape(-1, degree)
    return Group(degree, tuple(gens), rows)


# -- pointwise operators -------------------------------------------------------

def _as_index_array(H: Subgroup) -> np.ndarray:
    return np.fromiter(H.indices, dtype=np.int64, count=H.order)


def _mask(G: Group, indices) -> np.ndarray:
    m = np.zeros(G.order, dtype=bool)
    m[list(indices)] = True
    return m


def _conjugator_rows(G: Group, H: Subgroup, among
                     ) -> tuple[np.ndarray, np.ndarray]:
    """The conjugates of H's members under each g in ``among`` (default:
    every element), one row per g, and the g's."""
    M = G.conjugates(H.indices)
    if among is None:
        return M, np.arange(G.order)
    gs = np.asarray(among, dtype=np.int64)
    return M[gs], gs


def conjugate_images(G: Group, H: Subgroup, region: np.ndarray | None = None,
                     among=None, aligned: bool = False
                     ) -> dict[tuple[int, ...], int]:
    """The distinct conjugates ``H^g`` inside the boolean mask ``region``
    (default anywhere), for g in ``among`` (element indices, default every
    element in increasing order), each mapped to the first g of ``among``
    that gives it, and listed in the order of those g.  A key is the sorted
    index tuple of ``H^g``, or with ``aligned`` the images of ``H.indices``
    in their order, the map ``x -> x^g``."""
    M, gs = _conjugator_rows(G, H, among)
    if region is not None:
        inside = region[M].all(axis=1)
        M, gs = M[inside], gs[inside]
    M = np.ascontiguousarray(M if aligned else np.sort(M, axis=1))
    # a stable sort of the rows' bytes puts equal rows together in their
    # order of position: the first row of each run has the first g
    order = M.view(np.dtype((np.void, M.shape[1] * M.itemsize))
                   ).ravel().argsort(kind="stable")
    ranked = M[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    keep = np.sort(order[first])
    return dict(zip(map(tuple, M[keep].tolist()), gs[keep].tolist()))


def fixers(G: Group, H: Subgroup, among=None, pointwise: bool = False
           ) -> tuple[int, ...]:
    """The g in ``among`` (element indices, default every element) with
    ``H^g = H``, or with ``pointwise`` those with ``x^g = x`` for every x in
    H, in the order of ``among``."""
    M, gs = _conjugator_rows(G, H, among)
    if not pointwise:
        M = np.sort(M, axis=1)
    return tuple(gs[(M == _as_index_array(H)).all(axis=1)].tolist())


def conjugate_subgroup(H: Subgroup, g: Perm) -> Subgroup:
    """The conjugate ``H^g`` inside the same parent."""
    G = H.parent
    gi = G.index_of(g)
    img = tuple(sorted(G.conjugates(H.indices)[gi].tolist()))
    return Subgroup._from_closed(G, img)


def normalizer(G: Group, H: Subgroup) -> Subgroup:
    """``N_G(H)``, memoized on G."""
    _check_anchor(G, H)
    return G.memo(("normalizer", H.indices),
                  lambda: Subgroup._from_closed(G, fixers(G, H)))


def centralizer(G: Group, H: Subgroup) -> Subgroup:
    """``C_G(H)``: everything that fixes each member of H under conjugation."""
    _check_anchor(G, H)
    return Subgroup._from_closed(G, fixers(G, H, pointwise=True))


def core(G: Group, H: Subgroup) -> Subgroup:
    """The largest normal subgroup of G contained in H."""
    _check_anchor(G, H)
    idx = _as_index_array(H)
    in_H = _mask(G, H.indices)
    # member k of H survives iff every conjugate of it stays inside H
    keep = in_H[G.conjugates(idx)].all(axis=0)
    return Subgroup._from_closed(G, tuple(int(i) for i in idx[keep]))


def subgroup_product(A: Subgroup, B: Subgroup) -> Subgroup:
    """The set product ``AB`` as a subgroup.

    AB lies in the join <A, B> and has |A||B| / |A meet B| members, so it
    is a subgroup, the join, exactly when the two sizes agree (e.g. when
    one factor normalizes the other); ValidationError is raised otherwise.
    """
    A._same_parent(B)
    G = A.parent
    join = G.closure_indices(A.generating_indices() + B.generating_indices())
    if len(join) * len(A.index_set & B.index_set) != A.order * B.order:
        raise ValidationError("the set product AB is not a subgroup")
    return Subgroup._from_closed(G, join)


def _check_anchor(G: Group, H: Subgroup) -> None:
    if H.parent is not G:
        raise ValidationError("subgroup is not anchored to this group")


# -- Sylow subgroups -----------------------------------------------------------

def sylow_subgroup(G: Group, p: int) -> Subgroup:
    """A Sylow p-subgroup, found by normalizer climbing.

    Deterministic: at each step the least p-element of N_G(current) outside
    current is adjoined.  It normalizes current, so the join is a p-group
    larger by a factor of at least p; while current is not Sylow, a Sylow
    subgroup P above it has N_P(current) > current, so a candidate exists.
    If p does not divide the order, the trivial subgroup is returned.
    """
    if not is_prime(p):
        raise ValidationError(f"p must be prime, got {p}")
    target = p_part(G.order, p)
    orders = G.element_orders
    current = G.trivial_subgroup()
    while current.order < target:
        N = normalizer(G, current)
        pick = next((i for i in N.indices
                     if i not in current.index_set
                     and orders[i] != 1 and p_part(orders[i], p) == orders[i]),
                    None)
        if pick is None:
            raise EngineError(
                f"no {p}-element of N_G(current) extends a {p}-subgroup of "
                f"order {current.order} below the Sylow order {target}")
        grown = G.closure_indices(list(current.indices) + [pick])
        current = Subgroup._from_closed(G, grown)
    return current


# -- quotients -----------------------------------------------------------------

def quotient_group(G: Group, N: Subgroup, *,
                   limits: Limits = DEFAULT_LIMITS) -> tuple[Group, GroupMap]:
    """The quotient ``G/N`` acting on right cosets, with its projection.

    The cosets are numbered in the order of their least members, and the
    quotient is the group of permutations the elements induce on them.  N
    must be normal; a violating conjugator is named otherwise.  The kernel
    of the projection is re-checked to be exactly N.
    """
    Q, image = _quotient(G, N, limits)
    els = Q.elements
    return Q, GroupMap(source=G, target=Q, assignment=dict(
        zip(G.elements, [els[q] for q in image.tolist()])))


def _quotient(G: Group, N: Subgroup, limits: Limits
              ) -> tuple[Group, np.ndarray]:
    """``G/N`` as for ``quotient_group``, with ``image``: ``image[x]`` is
    the index in the quotient of the permutation element x induces."""
    _check_anchor(G, N)
    n_idx = _as_index_array(N)
    gens = list(G.generating_indices())
    kept = fixers(G, N, among=gens)
    moved = [j for j, g in enumerate(gens) if g not in kept]
    if moved:
        raise ValidationError(
            "subgroup is not normal: conjugation by "
            f"{cycle_string(G.generators[moved[0]])} moves it")
    index = G.order // N.order
    if index > limits.degree_cap:
        raise CapacityError(
            f"quotient degree {index} exceeds the cap of {limits.degree_cap}",
            cap_name="degree_cap", cap_value=limits.degree_cap, reached=index)
    mul = G.mul_table
    # least[x] is the least member of the coset Nx, its representative;
    # coset[x] numbers the cosets in the order of their representatives
    least = mul[n_idx].min(axis=0)
    reps = np.flatnonzero(least == np.arange(G.order))
    coset = reps.searchsorted(least)
    # row d: coset c goes to the coset of reps[c] * reps[d].  Elements of
    # one coset of a normal N act alike, so these are all the permutations
    point, row = _row_dtypes(index)
    acts = np.ascontiguousarray(coset[mul[np.ix_(reps, reps)]].T, dtype=point)
    order = acts.view(row).ravel().argsort()
    rank = np.empty(index, dtype=np.intp)
    rank[order] = np.arange(index)
    image = rank[coset]
    # the identity is the least permutation: image 0 is the kernel
    if not np.array_equal(np.flatnonzero(image == 0), n_idx):
        raise ValidationError("projection kernel does not match N")  # guard
    rows = acts[order]
    picked = list(dict.fromkeys(q for q in image[gens].tolist() if q))
    return Group(index, tuple(map(tuple, rows[picked].tolist())), rows), image


# -- structure flags -----------------------------------------------------------

@dataclass(frozen=True)
class StructureFlags:
    """Cheap isomorphism-invariant fingerprints of a (sub)group."""

    order: int
    abelian: bool
    cyclic: bool
    elementary_abelian: bool
    exponent: int
    involutions: int
    prime_power_base: int | None  # q when the order is q^k with k >= 1

    def is_p_group(self, p: int) -> bool:
        return self.order == 1 or self.prime_power_base == p


def structure_flags(H) -> StructureFlags:
    """Flags for a Group or Subgroup."""
    if isinstance(H, Group):
        orders = H.element_orders
    elif isinstance(H, Subgroup):
        all_orders = H.parent.element_orders
        orders = tuple(all_orders[i] for i in H.indices)
    else:
        raise ValidationError(f"expected a Group or Subgroup, got {type(H).__name__}")
    n = H.order
    gens = H.generators
    abelian = all(compose(a, b) == compose(b, a)
                  for i, a in enumerate(gens) for b in gens[i + 1:])
    exponent = math.lcm(*orders) if orders else 1
    cyclic = max(orders, default=1) == n
    elem_ab = abelian and (n == 1 or (is_prime(exponent) and exponent == min(
        o for o in orders if o > 1)))
    primes = prime_divisors(n)
    return StructureFlags(order=n, abelian=abelian, cyclic=cyclic,
                          elementary_abelian=elem_ab, exponent=exponent,
                          involutions=sum(1 for o in orders if o == 2),
                          prime_power_base=primes[0] if len(primes) == 1
                          else None)


def subgroup_label(H) -> str:
    """A short human label: 1, C6, V4, E8, D8, Q8, or G<n> as a fallback."""
    f = structure_flags(H)
    if f.order == 1:
        return "1"
    if f.cyclic:
        return f"C{f.order}"
    if f.elementary_abelian:
        return "V4" if f.order == 4 else f"E{f.order}"
    if f.abelian:
        return f"A{f.order}ab"
    if f.order == 8 and f.involutions == 1:
        return "Q8"
    # dihedral of order 2n: an element of order n, and n + 1 involutions for
    # n even (n for n odd); semidihedral and modular groups have fewer
    half = f.order // 2
    if f.involutions == (half + 1 if half % 2 == 0 else half):
        orders = (H.element_orders if isinstance(H, Group)
                  else tuple(H.parent.element_orders[i] for i in H.indices))
        if max(orders) == half:
            return f"D{f.order}"
    return f"G{f.order}"
