"""Finite permutation groups with fully materialized element sets.

Everything is exact and deterministic.  A group stores all of its elements as
image tuples sorted lexicographically (so the identity is always element 0),
and every search in the package walks that order; any "least witness" reported
anywhere is therefore reproducible run to run.

A group is built in numpy.  ``generate_group`` closes the generators
breadth first: each level composes the whole frontier with every generator
in one gather and keeps the products whose bytes are new, and the elements
are sorted once at the end.  A group's elements are also kept as an
(n, degree) array of points whose row bytes sort as the elements do
(``_Points``), so any set of permutations is located among the elements by
one ``searchsorted``.

Multiplication, inversion and conjugation index tables are built lazily as
numpy arrays; the hot subgroup-level scans (normalizers, transporters, cores)
are vectorized over them.  The multiplication table is built by a
breadth-first walk of the right Cayley graph over the generators: the
generators' rows come from one lookup, and each level of the walk is filled
by batched gathers of rows already built.  Inverses are found by one lookup
of the inverted permutations, and element orders are the lcm of cycle
lengths computed for all elements at once.  The table's Python-list view,
``mul_rows``, builds each row on first use, so a query that touches a few
subgroups of a large group never boxes the whole n*n table.  Conjugation is
read through ``Group.conjugates``, which builds the column of a member (its
conjugates under every element) the first time that member is asked for:
fusion work inside a Sylow subgroup of a large group builds the columns of
its members only, never the n*n conjugation table.  Tables of 4 MiB or
more live in anonymous mappings of their own (``_table_array``), so freeing
a large group returns its tables to the OS.

Every other answer about a group (its subgroup lattices, normalizers) is
kept in the group's one memo store, ``Group.memo``.
"""

from __future__ import annotations

import math
import mmap
import threading
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

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
    itself trusts its arguments.  Elements are sorted lexicographically and
    index 0 is the identity.
    """

    def __init__(self, degree: int, generators: tuple[Perm, ...],
                 elements: tuple[Perm, ...]):
        super().__init__()
        self.degree = degree
        self.generators = generators
        self.elements = elements
        self.order = len(elements)
        self._index: dict[Perm, int] = {p: i for i, p in enumerate(elements)}
        if elements[0] != identity(degree):
            raise ValidationError("element 0 must be the identity; "
                                  "construct groups through generate_group")
        self._pts: _Points | None = None
        self._mul: np.ndarray | None = None
        self._inv: np.ndarray | None = None
        # conjugation columns: _conj_block[:, _conj_pos[i]] is the column of
        # member i; once all n exist the block is in element order (_conj)
        self._conj: np.ndarray | None = None
        self._conj_block: np.ndarray | None = None
        self._conj_pos: np.ndarray | None = None
        self._conj_count = 0
        self._conj_lock = threading.Lock()
        self._mul_rows: _RowStore | None = None
        self._orders: tuple[int, ...] | None = None

    # -- basic access -------------------------------------------------------

    def index_of(self, perm: Perm) -> int:
        try:
            return self._index[perm]
        except KeyError:
            raise ValidationError(
                f"permutation {cycle_string(perm)} is not an element "
                f"of this group") from None

    def __contains__(self, perm: Perm) -> bool:
        return perm in self._index

    def __len__(self) -> int:
        return self.order

    def __repr__(self) -> str:
        gens = ", ".join(cycle_string(g) for g in self.generators) or "()"
        return f"<Group of order {self.order} on {self.degree} points <{gens}>>"

    # -- index tables (lazy) --------------------------------------------------

    def _dtype(self):
        return np.int16 if self.order <= 32000 else np.int32

    def _points(self) -> "_Points":
        """The elements as an array of points, with their row bytes."""
        if self._pts is None:
            point, row = _row_dtypes(self.degree)
            rows = np.array(self.elements, dtype=point)
            self._pts = _Points(rows, rows.view(row).ravel())
        return self._pts

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
        pts = self._points()
        gens = np.array(self.generators, dtype=pts.rows.dtype
                        ).reshape(-1, self.degree)
        # rows.take(gens, 1)[j, g] is gens[g] * elements[j]
        prod = pts.index(pts.rows.take(gens, 1).reshape(-1, self.degree),
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
            pts = self._points()
            inverted = pts.rows.argsort(axis=1).astype(pts.rows.dtype)
            self._inv = pts.index(inverted, "inversion").astype(self._dtype())
        return self._inv

    @property
    def conj_table(self) -> np.ndarray:
        """``conj_table[g, i]`` is the index of ``elements[g]^-1 *
        elements[i] * elements[g]``: ``conjugates(range(n))``, which builds
        every column.  Library code reads ``conjugates`` instead."""
        return self.conjugates(range(self.order))

    def conjugates(self, indices) -> np.ndarray:
        """The (n, k) array whose entry ``[g, c]`` is the index of
        ``elements[g]^-1 * elements[indices[c]] * elements[g]``.

        The column of a member is built the first time it is asked for, by
        one gather ``mul[inv[g], mul[i, g]]`` over all g, into a compact
        block that grows with the members requested.  Once the block has
        room for all n columns they are all built, put in element order and
        read directly from then on.
        """
        idx = np.asarray(indices, dtype=np.int64)
        if self._conj is None:
            with self._conj_lock:  # threads may share one Group
                if self._conj is None:
                    cols = self._conj_columns(idx)
                    if self._conj is None:
                        return self._conj_block[:, cols]
        return self._conj[:, idx]

    def _conj_columns(self, idx: np.ndarray) -> np.ndarray:
        """Block positions of the columns of ``idx``, building those that
        are missing; the caller holds ``_conj_lock``."""
        n = self.order
        if self._conj_pos is None:
            self._conj_pos = np.full(n, -1, dtype=np.int64)
            self._conj_block = _table_array((n, min(n, _FIRST_COLUMNS)),
                                            self._dtype())
        pos = self._conj_pos
        cols = pos[idx]
        if (cols >= 0).all():
            return cols
        # a negative index names the same member as in numpy indexing;
        # np.unique would import numpy.ma
        missing = np.zeros(n, dtype=bool)
        missing[idx[cols < 0]] = True
        start = self._conj_count
        wanted = start + int(np.count_nonzero(missing))
        block = self._conj_block
        if block.shape[1] < wanted:
            grown = _table_array((n, min(n, 2 * wanted)), self._dtype())
            grown[:, :start] = block[:, :start]
            block = self._conj_block = grown
        if block.shape[1] == n:
            missing = pos < 0  # room for the whole table: fill all of it
        need = np.flatnonzero(missing)
        stop = start + need.size
        mul = self.mul_table
        inv = self.inv_vector[np.newaxis, :]
        # bound the (columns x n) index temporaries of one gather
        step = max(1, _GATHER_ELEMENTS // n)
        for s in range(0, need.size, step):
            part = need[s:s + step]
            block[:, start + s:start + s + part.size] = mul[inv, mul[part]].T
        pos[need] = np.arange(start, stop)
        self._conj_count = stop
        if stop == n:
            # column pos[i] holds member i: permute in bounded row slabs
            for r in range(0, n, step):
                block[r:r + step] = block[r:r + step][:, pos]
            self._conj = block
            self._conj_block = self._conj_pos = None
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
            rows = self._points().rows
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
        one row per member.
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


# elements per gather when conjugation columns are built: the index arrays
# numpy makes for one gather then stay near 8 MB
_GATHER_ELEMENTS = 1 << 20
# rows per gather when the multiplication table is filled: a slab of about
# this many entries stays in cache (np.take over a larger block is slower)
_SLAB_ELEMENTS = 1 << 16
# width of the first block of conjugation columns: a group of at most this
# order gets its whole conjugation table on the first request, and a large
# group's first block stays small (80 KB for A7)
_FIRST_COLUMNS = 16
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


class _Points(NamedTuple):
    """A group's elements as an (n, degree) array of points, in element
    order, with their row bytes, which increase with the index."""

    rows: np.ndarray
    keys: np.ndarray

    def index(self, rows: np.ndarray, closed: str) -> np.ndarray:
        """The element index of each of an (m, degree) array of rows, which
        are products the element list must be ``closed`` under."""
        keys = np.ascontiguousarray(rows).view(self.keys.dtype).ravel()
        pos = self.keys.searchsorted(keys)
        if (self.rows.take(pos, 0, mode="clip") != rows).any():
            raise EngineError(f"the element list is not closed under {closed}")
        return pos


class Subgroup:
    """A subgroup of a parent :class:`Group`, stored as sorted element indices.

    The public constructor verifies closure (and therefore Lagrange); internal
    code that already knows the set is closed uses ``_from_closed``.
    Subgroups compare by member set within the same parent; comparing across
    parents raises ValidationError rather than silently returning False.
    """

    __slots__ = ("parent", "indices", "index_set", "order", "_gens")

    def __init__(self, parent: Group, members: Iterable):
        idx = _member_indices(parent, members)
        _check_closed(parent, idx)
        self.parent = parent
        self.indices = idx
        self.index_set = frozenset(idx)
        self.order = len(idx)
        self._gens: tuple[int, ...] | None = None
        if parent.order % self.order != 0:
            raise ValidationError(  # unreachable for a closed set; kept as a guard
                f"subgroup order {self.order} does not divide {parent.order}")

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
        i = self.parent._index.get(perm)
        return i is not None and i in self.index_set

    def contains(self, other: "Subgroup") -> bool:
        self._same_parent(other)
        return other.index_set <= self.index_set

    def generating_indices(self) -> tuple[int, ...]:
        """A small deterministic generating set (greedy over sorted indices)."""
        if self._gens is None:
            gens: list[int] = []
            covered: set[int] = {0}
            for i in self.indices:
                if i not in covered:
                    gens.append(i)
                    covered = set(self.parent.closure_indices(gens))
            self._gens = tuple(gens)
        return self._gens

    @property
    def generators(self) -> tuple[Perm, ...]:
        els = self.parent.elements
        return tuple(els[i] for i in self.generating_indices())

    def as_group(self) -> Group:
        """This subgroup re-anchored as a Group in its own right."""
        gens = self.generators or (identity(self.parent.degree),)
        return Group(self.parent.degree, gens, self.members)

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


def _check_closed(parent: Group, indices: tuple[int, ...]) -> None:
    if 0 not in indices:
        raise ValidationError("member set does not contain the identity")
    mul = parent.mul_rows
    index_set = set(indices)
    for a in indices:
        row = mul[a]
        for b in indices:
            if row[b] not in index_set:
                raise ValidationError(
                    "member set is not closed under multiplication "
                    f"(product of elements {a} and {b} falls outside)")


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

    def assignment_key(self) -> tuple[tuple[Perm, Perm], ...]:
        """Canonical form: (source, image) pairs sorted by source."""
        return tuple(sorted(self.assignment.items()))

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
    # columns as lists, zipped: Python ints, and no list per element
    G = Group(degree, tuple(gens), tuple(zip(*rows.T.tolist())))
    G._pts = _Points(rows, rows.view(row).ravel())
    return G


# -- pointwise operators -------------------------------------------------------

def _as_index_array(H: Subgroup) -> np.ndarray:
    return np.fromiter(H.indices, dtype=np.int64, count=H.order)


def _mask(G: Group, indices) -> np.ndarray:
    m = np.zeros(G.order, dtype=bool)
    m[list(indices)] = True
    return m


def _moved_conjugate_into(G: Group, H: Subgroup, region: np.ndarray
                          ) -> tuple[int, tuple[int, ...]] | None:
    """The least g (by index) with ``H^g`` inside the boolean mask
    ``region`` and ``H^g != H``, with the indices of ``H^g``; None if every
    conjugate of H inside ``region`` is H itself."""
    idx = _as_index_array(H)
    M = G.conjugates(idx)
    rows = np.flatnonzero(region[M].all(axis=1))
    imgs = np.sort(M[rows], axis=1)
    moved = np.flatnonzero((imgs != idx[np.newaxis, :]).any(axis=1))
    if not moved.size:
        return None
    r = int(moved[0])
    return int(rows[r]), tuple(int(v) for v in imgs[r])


def conjugate_subgroup(H: Subgroup, g: Perm) -> Subgroup:
    """The conjugate ``H^g`` inside the same parent."""
    G = H.parent
    gi = G.index_of(g)
    img = tuple(sorted(G.conjugates(H.indices)[gi].tolist()))
    return Subgroup._from_closed(G, img)


def normalizer(G: Group, H: Subgroup) -> Subgroup:
    """``N_G(H)``, computed by a vectorized conjugation scan and memoized
    on G."""
    _check_anchor(G, H)

    def scan() -> Subgroup:
        idx = _as_index_array(H)
        images = np.sort(G.conjugates(idx), axis=1)
        ok = (images == idx[np.newaxis, :]).all(axis=1)
        return Subgroup._from_closed(
            G, tuple(int(i) for i in np.flatnonzero(ok)))
    return G.memo(("normalizer", H.indices), scan)


def centralizer(G: Group, H: Subgroup) -> Subgroup:
    """``C_G(H)``: everything that fixes each member of H under conjugation."""
    _check_anchor(G, H)
    idx = _as_index_array(H)
    ok = (G.conjugates(idx) == idx[np.newaxis, :]).all(axis=1)
    return Subgroup._from_closed(G, tuple(int(i) for i in np.flatnonzero(ok)))


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

    Valid only when the product is closed (e.g. one factor normalizes the
    other); closure is re-checked and ValidationError raised otherwise.
    """
    A._same_parent(B)
    G = A.parent
    mul = G.mul_rows
    prod = {mul[a][b] for a in A.indices for b in B.indices}
    sub = tuple(sorted(prod))
    _check_closed(G, sub)
    return Subgroup._from_closed(G, sub)


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

    N must be normal; a violating conjugator is named otherwise.  The
    projection map is re-checked to be a homomorphism with kernel exactly N.
    """
    _check_anchor(G, N)
    n_idx = _as_index_array(N)
    conj = G.conjugates(n_idx)
    for g in G.generators:
        img = np.sort(conj[G.index_of(g)])
        if not (img == n_idx).all():
            raise ValidationError(
                f"subgroup is not normal: conjugation by {cycle_string(g)} "
                f"moves it")
    index = G.order // N.order
    if index > limits.degree_cap:
        raise CapacityError(
            f"quotient degree {index} exceeds the cap of {limits.degree_cap}",
            cap_name="degree_cap", cap_value=limits.degree_cap, reached=index)
    mul = G.mul_rows
    coset_of = [-1] * G.order
    reps: list[int] = []
    for i in range(G.order):
        if coset_of[i] == -1:
            c = len(reps)
            reps.append(i)
            for n in N.indices:
                coset_of[mul[n][i]] = c
    # the permutation each x in G induces on the coset space
    images: dict[Perm, Perm] = {}
    for xi, x in enumerate(G.elements):
        images[x] = tuple(coset_of[mul[r][xi]] for r in reps)
    quot_elements = tuple(sorted(set(images.values())))
    gen_imgs: list[Perm] = []
    for g in G.generators:
        img = images[g]
        if img not in gen_imgs and img != identity(index):
            gen_imgs.append(img)
    Q = Group(index, tuple(gen_imgs), quot_elements)
    proj = GroupMap(source=G, target=Q, assignment=images)
    if tuple(sorted(proj.kernel_members())) != N.members:
        raise ValidationError("projection kernel does not match N")  # guard
    return Q, proj


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
        members = H.elements
        orders = H.element_orders
        gens = H.generators
    elif isinstance(H, Subgroup):
        members = H.members
        all_orders = H.parent.element_orders
        orders = tuple(all_orders[i] for i in H.indices)
        gens = H.generators
    else:
        raise ValidationError(f"expected a Group or Subgroup, got {type(H).__name__}")
    n = len(members)
    abelian = all(compose(a, b) == compose(b, a)
                  for i, a in enumerate(gens) for b in gens[i + 1:])
    exponent = math.lcm(*orders) if orders else 1
    cyclic = max(orders, default=1) == n
    elem_ab = abelian and (n == 1 or (is_prime(exponent) and exponent == min(
        o for o in orders if o > 1)))
    base = None
    if n > 1:
        q = min(q for q in range(2, n + 1) if n % q == 0)
        if p_part(n, q) == n:
            base = q
    return StructureFlags(order=n, abelian=abelian, cyclic=cyclic,
                          elementary_abelian=elem_ab, exponent=exponent,
                          involutions=sum(1 for o in orders if o == 2),
                          prime_power_base=base)


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
