"""Exact arithmetic for finitely generated abelian groups.

Everything here is integer-exact: groups live in canonical invariant-factor
form, maps between powers ``G^cols -> G^rows`` are integer matrices, stored
by their nonzero columns, acting coordinatewise on each cyclic summand of
``G``, and all normal forms and solvers run on Python's arbitrary-precision
integers.  No floats anywhere.
A vector of elements of ``G`` becomes one integer vector per cyclic summand
by :meth:`FGAbelianGroup.split`, and :meth:`FGAbelianGroup.join` puts such
vectors back together; the solvers and certificates go through that pair.
``join`` builds its elements from the slot vectors it has checked and
reduced, without the constructor's per-element checks; every other element
goes through the checked constructor.  :func:`in_group` decides whether a
vector of elements lies in a group, comparing each distinct group object
once.  :meth:`IntegerHom.apply` reads the elements directly and builds with
the checked constructor, so it stays an independent check of both.
Matrices follow the same rule as elements: the products and blocks that
:meth:`IntegerHom.compose`, ``hstack``, ``top_rows``, ``zero``,
``unit_columns`` and the log walks build from matrices already checked are
canonical by construction and skip the constructor's checks
(:func:`_canonical_hom`); every matrix that enters from outside, through
the constructor, ``from_rows`` or ``from_columns``, is checked.

The workhorse is :func:`smith_normal_form`, which returns a decomposition
``A = U * D * V``, the one :class:`SNFDecomposition` of a matrix: it answers
every solve, kernel, column basis and coordinate question about ``A``, and
kernels and cokernels over any coefficient group follow from that one
decomposition over Z by the tensor and Tor formulas.  The decomposition
holds the diagonal of D and the logs of the elementary row and column
operations that produced it, not the transforms: a product of ``U``,
``U_inv``, ``V`` or ``V_inv`` with a matrix is one walk of one log over all
of its columns at once.  The elimination and the walks share one sparse row
form, ``{column: value}`` dicts without zeros (:func:`_rows`), and one add
(:func:`_axpy`); nothing in the library reads a dense row.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from math import gcd
from operator import itemgetter


class GroupMismatchError(ValueError):
    """Element arithmetic was attempted across two different parent groups."""


class DimensionError(ValueError):
    """Matrix and vector shapes do not line up."""


class InternalConsistencyError(RuntimeError):
    """Two independent computation paths disagreed; this is an algebra bug."""


# ---------------------------------------------------------------------------
# groups


@dataclass(frozen=True)
class FGAbelianGroup:
    """``Z^rank + Z/d_1 + ... + Z/d_t`` with ``d_1 | d_2 | ... | d_t``.

    The constructor insists on canonical input (each ``d_j >= 2``, divisibility
    chain), so group equality is plain field equality.  Use
    :meth:`from_cyclics` to canonicalise an arbitrary list of cyclic orders.
    ``==`` is still that field equality, with the hash generated from the
    fields; it only answers at once for the same object.
    """

    rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        if self.rank < 0:
            raise ValueError("rank must be nonnegative")
        prev = None
        for d in self.torsion:
            if d < 2:
                raise ValueError("invariant factors must be >= 2")
            if prev is not None and d % prev != 0:
                raise ValueError("invariant factors must form a divisibility chain")
            prev = d

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.rank == other.rank and self.torsion == other.torsion

    @classmethod
    def from_cyclics(cls, moduli) -> "FGAbelianGroup":
        """Canonical form of a direct sum of cyclic groups Z/n (n = 0 means Z).

        >>> FGAbelianGroup.from_cyclics([2, 3])
        FGAbelianGroup(rank=0, torsion=(6,))
        >>> FGAbelianGroup.from_cyclics([0, 4, 2])
        FGAbelianGroup(rank=1, torsion=(2, 4))
        """
        rank = 0
        factors = []
        for n in moduli:
            n = abs(n)
            if n == 0:
                rank += 1
            elif n != 1:
                factors.append(n)
        # a sorted chain is returned as it is: invariant factors are unique,
        # so the loop would not change it.  Z/a + Z/b = Z/gcd + Z/lcm; after
        # step i, factors[i] divides every later entry, and later steps only
        # replace entries by gcds and lcms of its multiples, so the result is
        # a divisibility chain
        factors.sort()
        if all(b % a == 0 for a, b in zip(factors, factors[1:])):
            return cls(rank, tuple(factors))
        for i in range(len(factors)):
            for j in range(i + 1, len(factors)):
                a, b = factors[i], factors[j]
                g = gcd(a, b)
                factors[i], factors[j] = g, a // g * b
        return cls(rank, tuple(d for d in factors if d != 1))

    def cyclic_summands(self) -> tuple[int, ...]:
        """Moduli of the canonical cyclic summands, free parts first (as 0)."""
        return (0,) * self.rank + self.torsion

    def is_trivial(self) -> bool:
        return self.rank == 0 and not self.torsion

    def order(self) -> int:
        """Number of elements; 0 encodes an infinite group."""
        if self.rank:
            return 0
        n = 1
        for d in self.torsion:
            n *= d
        return n

    def zero(self) -> "GroupElement":
        return GroupElement(self, (0,) * self.rank, (0,) * len(self.torsion))

    def element(self, free, torsion) -> "GroupElement":
        return GroupElement(self, tuple(free), tuple(torsion))

    def elements(self):
        """Iterate every element (finite groups only)."""
        if self.rank:
            raise ValueError("cannot enumerate an infinite group")

        def rec(i, acc):
            if i == len(self.torsion):
                yield self.element((), acc)
                return
            for v in range(self.torsion[i]):
                yield from rec(i + 1, acc + [v])

        yield from rec(0, [])

    def split(self, elements) -> list[tuple[list[int], int]]:
        """One ``(vector, modulus)`` per cyclic summand, in
        :meth:`cyclic_summands` order: the summand's coordinate of each
        element, and the summand's modulus, 0 for Z.

        >>> G = FGAbelianGroup(1, (2,))
        >>> G.split([G.element([3], [1]), G.element([-1], [0])])
        [([3, -1], 0), ([1, 0], 2)]
        """
        elements = list(elements)
        if not in_group(elements, self):
            raise GroupMismatchError("element parent differs from the group")
        slots = [([e.free[k] for e in elements], 0) for k in range(self.rank)]
        return slots + [([e.tors[j] for e in elements], d) for j, d in enumerate(self.torsion)]

    def join(self, vectors, n: int) -> list["GroupElement"]:
        """The inverse of :meth:`split`: ``n`` elements whose coordinate in
        summand k is read from ``vectors[k]``, reduced mod its modulus.

        The counts and lengths are checked and each torsion slot reduced
        once, so the elements are built from tuples already in shape,
        without the constructor's per-element checks.

        >>> G = FGAbelianGroup(1, (2,))
        >>> [(e.free, e.tors) for e in G.join([[3, -1], [1, 2]], 2)]
        [((3,), (1,)), ((-1,), (0,))]
        >>> FGAbelianGroup(0).join([], 2) == [FGAbelianGroup(0).zero()] * 2
        True
        """
        vectors = [tuple(v) for v in vectors]
        if len(vectors) != self.rank + len(self.torsion) or any(len(v) != n for v in vectors):
            raise DimensionError("need one vector of length n per cyclic summand")
        rank = self.rank
        free = zip(*vectors[:rank]) if rank else repeat((), n)
        reduced = [[t % d for t in v] for v, d in zip(vectors[rank:], self.torsion)]
        tors = zip(*reduced) if reduced else repeat((), n)
        return list(map(_shaped_element, repeat(self), free, tors))

    def __str__(self):
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank > 1:
            parts.append(f"Z^{self.rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"


def direct_sum(*groups: FGAbelianGroup) -> FGAbelianGroup:
    cyclics: list[int] = []
    for g in groups:
        cyclics.extend(g.cyclic_summands())
    return FGAbelianGroup.from_cyclics(cyclics)


def power(group: FGAbelianGroup, n: int) -> FGAbelianGroup:
    if n < 0:
        raise ValueError("negative power")
    # sorted repetition of a divisibility chain is again a chain
    return FGAbelianGroup(group.rank * n, tuple(sorted(group.torsion * n)))


def tensor(a: FGAbelianGroup, b: FGAbelianGroup) -> FGAbelianGroup:
    """Tensor product over Z; distributes over the cyclic summands."""
    cyclics = []
    for x in a.cyclic_summands():
        for y in b.cyclic_summands():
            if x == 0:
                cyclics.append(y)
            elif y == 0:
                cyclics.append(x)
            else:
                cyclics.append(gcd(x, y))
    return FGAbelianGroup.from_cyclics(cyclics)


def tor(a: FGAbelianGroup, b: FGAbelianGroup) -> FGAbelianGroup:
    """Torsion product Tor_1(a, b); free summands contribute nothing."""
    cyclics = [gcd(x, y) for x in a.torsion for y in b.torsion]
    return FGAbelianGroup.from_cyclics(cyclics)


def congruent(a: list[int], b: list[int], d: int) -> bool:
    """Are the integer vectors ``a`` and ``b`` equal entry by entry, or
    equal mod ``d`` when ``d > 0``?

    >>> congruent([1, 5], [1, 5], 0), congruent([1, 5], [3, 1], 2), congruent([1, 5], [3, 1], 0)
    (True, True, False)
    """
    return len(a) == len(b) and all((x - y) % d == 0 if d else x == y for x, y in zip(a, b))


@dataclass(frozen=True, slots=True)
class GroupElement:
    """Normalized representative: torsion coordinate j lies in [0, d_j)."""

    group: FGAbelianGroup
    free: tuple[int, ...]
    tors: tuple[int, ...]

    def __post_init__(self):
        if not isinstance(self.free, tuple):
            object.__setattr__(self, "free", tuple(self.free))
        if len(self.free) != self.group.rank or len(self.tors) != len(self.group.torsion):
            raise DimensionError("coordinate lengths do not match the group")
        if self.group.torsion:
            reduced = tuple(t % d for t, d in zip(self.tors, self.group.torsion))
            object.__setattr__(self, "tors", reduced)
        elif not isinstance(self.tors, tuple):
            object.__setattr__(self, "tors", tuple(self.tors))

    def _check(self, other: "GroupElement"):
        if self.group != other.group:
            raise GroupMismatchError("elements belong to different groups")

    def __add__(self, other: "GroupElement") -> "GroupElement":
        self._check(other)
        return GroupElement(
            self.group,
            tuple(a + b for a, b in zip(self.free, other.free)),
            tuple(a + b for a, b in zip(self.tors, other.tors)),
        )

    def __neg__(self) -> "GroupElement":
        return GroupElement(
            self.group,
            tuple(-a for a in self.free),
            tuple(-a for a in self.tors),
        )

    def __sub__(self, other: "GroupElement") -> "GroupElement":
        return self + (-other)

    def scale(self, n: int) -> "GroupElement":
        return GroupElement(
            self.group,
            tuple(n * a for a in self.free),
            tuple(n * a for a in self.tors),
        )

    def is_zero(self) -> bool:
        return not any(self.free) and not any(self.tors)


_new_object = object.__new__
_set_group, _set_free, _set_tors = (GroupElement.__dict__[f].__set__ for f in ("group", "free", "tors"))


def _shaped_element(group: FGAbelianGroup, free: tuple, tors: tuple) -> GroupElement:
    """The element with coordinates already in shape: tuples of the group's
    lengths, torsion reduced.  Only :meth:`FGAbelianGroup.join` builds so;
    every other element goes through the checked constructor."""
    e = _new_object(GroupElement)
    _set_group(e, group)
    _set_free(e, free)
    _set_tors(e, tors)
    return e


def in_group(elements, group: FGAbelianGroup) -> bool:
    """Does every one of ``elements`` belong to ``group``?  Each distinct
    group object among them, other than ``group`` itself, is compared with
    ``group`` once.

    >>> G = FGAbelianGroup(1)
    >>> in_group([G.zero(), FGAbelianGroup(1).zero()], G), in_group([], G)
    (True, True)
    >>> in_group([G.zero(), FGAbelianGroup(0, (2,)).zero()], G)
    False
    """
    others = {id(g): g for e in elements if (g := e.group) is not group}
    return not others or all(g == group for g in others.values())


# ---------------------------------------------------------------------------
# integer homomorphisms


@dataclass(frozen=True)
class IntegerHom:
    """An integer matrix, read as a map G^cols -> G^rows for any coefficient G.

    Stored by columns: ``nonzero[j]`` holds the ``(row, value)`` pairs of
    the nonzero entries of column j, rows ascending.  That form is
    canonical, so ``==`` and ``hash`` compare matrices, and every operation
    costs time in the nonzero entries it reads: a boundary column has at
    most ``codim`` of them.  ``entries``, :meth:`row_list`, :meth:`column`
    and :meth:`columns` are dense views, for tests and inspection.
    """

    rows: int
    cols: int
    nonzero: tuple[tuple[tuple[int, int], ...], ...]

    def __post_init__(self):
        if len(self.nonzero) != self.cols:
            raise DimensionError("column count does not match the declared size")
        rows = self.rows
        for column in self.nonzero:
            last = -1
            for i, x in column:
                if not last < i < rows or not x:
                    raise DimensionError("stored entries must be nonzero, in range, rows ascending")
                last = i

    @classmethod
    def from_rows(cls, rows, width: int | None = None) -> "IntegerHom":
        """The matrix with dense rows ``rows``; ``width`` gives the column
        count, which only an empty list of rows needs."""
        rows = [tuple(r) for r in rows]
        cols = len(rows[0]) if rows else (width or 0)
        if any(len(r) != cols for r in rows) or width not in (None, cols):
            raise DimensionError("entry shape does not match the declared size")
        return cls.from_columns(list(zip(*rows)) if rows else [()] * cols, len(rows))

    @classmethod
    def from_columns(cls, columns, rows: int) -> "IntegerHom":
        """The matrix whose columns are ``columns``, each of length ``rows``."""
        columns = [tuple(c) for c in columns]
        if any(len(c) != rows for c in columns):
            raise DimensionError("column length does not match the declared size")
        nonzero = tuple(tuple((i, x) for i, x in enumerate(c) if x) for c in columns)
        return cls(rows, len(columns), nonzero)

    @classmethod
    def identity(cls, n: int) -> "IntegerHom":
        return cls.unit_columns(n, range(n))

    @classmethod
    def unit_columns(cls, n: int, ks) -> "IntegerHom":
        """The ``n``-row matrix whose columns are the unit vectors e_k, for
        k in the range or list ``ks``, in that order."""
        if ks and not (0 <= min(ks) and max(ks) < n):
            raise DimensionError("unit vector index out of range")
        return _canonical_hom(n, len(ks), tuple(((k, 1),) for k in ks))

    @classmethod
    def zero(cls, rows: int, cols: int) -> "IntegerHom":
        if rows < 0 or cols < 0:
            raise DimensionError("matrix sizes must be nonnegative")
        return _canonical_hom(rows, cols, ((),) * cols)

    @cached_property
    def entries(self) -> tuple[tuple[int, ...], ...]:
        """The dense rows, built on first read, for inspection."""
        return tuple(zip(*self.columns())) if self.cols else ((),) * self.rows

    def row_list(self) -> list[list[int]]:
        """A fresh dense copy of the rows, for tests and inspection."""
        out = [[0] * self.cols for _ in range(self.rows)]
        for j, column in enumerate(self.nonzero):
            for i, x in column:
                out[i][j] = x
        return out

    def column(self, j: int) -> list[int]:
        out = [0] * self.rows
        for i, x in self.nonzero[j]:
            out[i] = x
        return out

    def columns(self) -> list[list[int]]:
        return [self.column(j) for j in range(self.cols)]

    def top_rows(self, k: int) -> "IntegerHom":
        """The matrix of the first ``k`` rows."""
        if not 0 <= k <= self.rows:
            raise DimensionError("row count out of range")
        kept = tuple(tuple(e for e in column if e[0] < k) for column in self.nonzero)
        return _canonical_hom(k, self.cols, kept)

    def hstack(self, other: "IntegerHom") -> "IntegerHom":
        """The block matrix ``[self | other]``."""
        if self.rows != other.rows:
            raise DimensionError("hstack row mismatch")
        return _canonical_hom(self.rows, self.cols + other.cols, self.nonzero + other.nonzero)

    def with_multiples(self, c: int) -> "IntegerHom":
        """``[self | c*I]``, whose columns span im(self) + c*Z^rows."""
        scaled = tuple(((i, c),) if c else () for i in range(self.rows))
        return self.hstack(IntegerHom(self.rows, self.rows, scaled))

    def compose(self, other: "IntegerHom") -> "IntegerHom":
        if self.cols != other.rows:
            raise DimensionError("composition shape mismatch")
        if self.is_zero() or other.is_zero():
            return IntegerHom.zero(self.rows, other.cols)
        out = []
        for column in other.nonzero:
            # column j of the product sums the columns of self that column j
            # of other selects; entries that cancel to 0 are dropped
            acc: dict[int, int] = {}
            for k, y in column:
                for i, x in self.nonzero[k]:
                    acc[i] = acc.get(i, 0) + x * y
            out.append(tuple(sorted(filter(itemgetter(1), acc.items()))))
        return _canonical_hom(self.rows, other.cols, tuple(out))

    def is_zero(self) -> bool:
        return not any(self.nonzero)

    def apply_int(self, vector: list[int]) -> list[int]:
        vector = list(vector)
        if len(vector) != self.cols:
            raise DimensionError("vector length does not match columns")
        out = [0] * self.rows
        for column, y in zip(self.nonzero, vector):
            if y:
                for i, x in column:
                    out[i] += x * y
        return out

    def apply(self, elements, group: FGAbelianGroup) -> list[GroupElement]:
        """Coordinatewise action on a vector of elements of ``group``."""
        elements = list(elements)
        if len(elements) != self.cols:
            raise DimensionError("element vector length does not match columns")
        if not in_group(elements, group):
            raise GroupMismatchError("element parent differs from the coefficient group")
        rank = group.rank
        sums = [[0] * (rank + len(group.torsion)) for _ in range(self.rows)]
        for column, e in zip(self.nonzero, elements):
            coords = e.free + e.tors
            if any(coords):
                for i, a in column:
                    s = sums[i]
                    for k, x in enumerate(coords):
                        s[k] += a * x
        return [GroupElement(group, tuple(s[:rank]), tuple(s[rank:])) for s in sums]


def _canonical_hom(rows: int, cols: int, nonzero: tuple) -> IntegerHom:
    """The matrix whose ``cols`` columns are already canonical: nonzero
    entries, rows in range and ascending.  Only the producers that build
    such columns from matrices already checked call it
    (:meth:`IntegerHom.compose`, ``hstack``, ``top_rows``, ``zero``,
    ``unit_columns`` and :func:`_replay`); every other matrix goes through
    the checked constructor.  The fields are set as the dataclass
    constructor sets them, so the object is laid out as a checked one."""
    h = object.__new__(IntegerHom)
    set_field = object.__setattr__
    set_field(h, "rows", rows)
    set_field(h, "cols", cols)
    set_field(h, "nonzero", nonzero)
    return h


# ---------------------------------------------------------------------------
# Smith normal form


class SNFDecomposition:
    """Exact decomposition A = U * D * V with unimodular U, V: the one Smith
    normal form of ``A``, built by :func:`smith_normal_form` and reused for
    every question about ``A``.

    No transform is stored, nor D itself: the elimination leaves the
    ``diagonal`` of D, its shape ``rows`` x ``cols``, and two logs of
    elementary operations, in order.  ``row_log`` holds the row operations
    on D, whose product is ``U_inv``; ``column_log`` holds, for each column
    operation on D, the row operation V absorbs, and their product is
    ``V``.  An entry ``(i, k, q)`` adds
    ``q`` times entry k to entry i; with ``q == 0`` it swaps entries i and
    k, or negates entry i when ``i == k``.  A product with a transform is
    one walk of one log over all columns of a matrix (:func:`_replay`):
    forward for ``U_inv`` and ``V``, undone backward for ``U`` and
    ``V_inv``.

    Every answer is one such product, whatever the number of columns it
    covers.  Solving ``A x = b`` is ``U_inv * b``, a divisibility test
    against the diagonal and one product with ``V_inv``.  Bases of the
    kernel and of the column lattice of ``A`` are products with unit
    columns, and the coordinates of the columns of a matrix in either basis
    are one product, so a basis never needs a decomposition of its own.
    The library reads only these products; ``U``, ``D`` and ``V`` are
    built on first read, for inspection, then kept.
    """

    def __init__(self, diagonal: tuple[int, ...], rows: int, cols: int, row_log, column_log):
        self.diagonal, self._rows, self._cols = diagonal, rows, cols
        self.row_log, self.column_log = row_log, column_log

    def u_times(self, X: IntegerHom) -> IntegerHom:
        """``U * X``: the row log, undone backward."""
        return _replay(self.row_log, X, self._rows, backward=True)

    def u_inv_times(self, B: IntegerHom) -> IntegerHom:
        """``U_inv * B``: the row log, forward."""
        return _replay(self.row_log, B, self._rows)

    def v_times(self, B: IntegerHom) -> IntegerHom:
        """``V * B``: the column log, forward."""
        return _replay(self.column_log, B, self._cols)

    def v_inv_times(self, Y: IntegerHom) -> IntegerHom:
        """``V_inv * Y``: the column log, undone backward."""
        return _replay(self.column_log, Y, self._cols, backward=True)

    @cached_property
    def U(self) -> IntegerHom:
        return self.u_times(IntegerHom.identity(self._rows))

    @cached_property
    def D(self) -> IntegerHom:
        diagonal = tuple(((i, d),) if d else () for i, d in enumerate(self.diagonal))
        return IntegerHom(self._rows, self._cols, diagonal + ((),) * (self._cols - len(diagonal)))

    @cached_property
    def V(self) -> IntegerHom:
        return self.v_times(IntegerHom.identity(self._cols))

    @cached_property
    def rank(self) -> int:
        return sum(1 for d in self.diagonal if d != 0)

    @cached_property
    def _padded(self) -> tuple[int, ...]:
        """The diagonal padded with zeros to one entry per row of A."""
        return self.diagonal + (0,) * (self._rows - len(self.diagonal))

    def kernel(self) -> IntegerHom:
        """Columns form a basis of the integer kernel of ``A``: the last
        ``cols - rank`` columns of ``V_inv``."""
        n = self._cols
        return self.v_inv_times(IntegerHom.unit_columns(n, range(self.rank, n)))

    def kernel_coordinates(self, B: IntegerHom) -> IntegerHom | None:
        """The coordinates of the columns of ``B`` in :meth:`kernel`, or
        None when ``A B != 0``: the last rows of ``V * B``."""
        r, Z = self.rank, self.v_times(B)
        if any(column and column[0][0] < r for column in Z.nonzero):
            return None
        shifted = tuple(tuple((i - r, x) for i, x in column) for column in Z.nonzero)
        return IntegerHom(Z.rows - r, Z.cols, shifted)

    def column_basis(self) -> IntegerHom:
        """Columns form a basis of the lattice spanned by the columns of
        ``A``: the first ``rank`` columns of ``U``, scaled by the diagonal."""
        U = self.u_times(IntegerHom.unit_columns(self._rows, range(self.rank)))
        scaled = tuple(tuple((i, d * x) for i, x in column) for column, d in zip(U.nonzero, self.diagonal))
        return IntegerHom(U.rows, U.cols, scaled)

    def column_coordinates(self, B: IntegerHom) -> IntegerHom | None:
        """The coordinates of the columns of ``B`` in :meth:`column_basis`,
        or None when some column is not in the column lattice of ``A``."""
        r, diagonal, W = self.rank, self.diagonal, self.u_inv_times(B)
        if any(column and column[-1][0] >= r for column in W.nonzero):
            return None
        if any(x % diagonal[i] for column in W.nonzero for i, x in column):
            return None
        divided = tuple(tuple((i, x // diagonal[i]) for i, x in column) for column in W.nonzero)
        return IntegerHom(r, W.cols, divided)

    def contains(self, B: IntegerHom) -> bool:
        """Is every column of ``B`` in the column lattice of ``A``?"""
        return self.column_coordinates(B) is not None

    def solve(self, b: list[int]) -> list[int] | None:
        """Some integer solution of ``A x = b``, or None when there is none."""
        y = self.column_coordinates(IntegerHom.from_columns([b], self._rows))
        if y is None:
            return None
        # the rank rows of y, padded with zeros to one row per column of A
        return self.v_inv_times(IntegerHom(self._cols, 1, y.nonzero)).column(0)

    def solve_mod(self, b: list[int], modulus: int) -> list[int] | None:
        """Some solution of ``A x = b (mod modulus)``, entries in [0, modulus)."""
        if modulus < 2:
            raise ValueError("modulus must be >= 2")
        reduced = self.u_inv_times(IntegerHom.from_columns([b], self._rows))
        w = [x % modulus for x in reduced.column(0)]
        y = [0] * self._cols
        for i, d in enumerate(self._padded):
            g = gcd(d, modulus)
            if w[i] % g:
                return None
            if g != modulus:
                m2 = modulus // g
                y[i] = (w[i] // g) * pow(d // g, -1, m2) % m2
        x = self.v_inv_times(IntegerHom.from_columns([y], self._cols))
        return [v % modulus for v in x.column(0)]

    def cokernel_presentation(self) -> tuple[FGAbelianGroup, list[tuple[list[int], int]]]:
        """Canonical form of Z^rows / (column lattice of ``A``), with generators.

        Returns the group and a list of (vector, order) pairs: vectors in
        Z^rows whose classes generate the quotient, order 0 meaning
        infinite.  Torsion generators come first, in ascending
        invariant-factor order.  They are the columns of ``U`` whose
        diagonal entry is not 1, in one product: the diagonal is a
        divisibility chain with its zeros last, so index order is already
        that order.
        """
        padded = self._padded
        kept = [i for i, d in enumerate(padded) if d != 1]
        gens = self.u_times(IntegerHom.unit_columns(self._rows, kept))
        orders = [padded[i] for i in kept]
        group = FGAbelianGroup(orders.count(0), tuple(d for d in orders if d))
        return group, [(gens.column(j), d) for j, d in enumerate(orders)]


def _rows(X: IntegerHom) -> list[dict[int, int]]:
    """The rows of ``X`` as ``{column: value}`` dicts without zeros: the one
    row form of the elimination and of the log walks."""
    rows: list[dict[int, int]] = [{} for _ in range(X.rows)]
    for j, column in enumerate(X.nonzero):
        for i, x in column:
            rows[i][j] = x
    return rows


def _axpy(target: dict[int, int], q: int, pairs) -> None:
    """``target += q * pairs`` on a row dict, for a nonzero ``q`` and
    ``(column, value)`` pairs with nonzero values; entries that cancel are
    dropped, so an add costs the pairs, whatever the width."""
    for j, x in pairs:
        y = target.get(j, 0) + q * x
        if y:
            target[j] = y
        else:
            del target[j]


def _replay(log, X: IntegerHom, n: int, backward: bool = False) -> IntegerHom:
    """The operations of ``log`` applied to the ``n`` rows of ``X``, in
    order, or undone backward: the inverse operations in reverse order."""
    if X.rows != n:
        raise DimensionError("matrix rows do not match the transform")
    rows = _rows(X)
    sign = -1 if backward else 1
    for i, k, q in reversed(log) if backward else log:
        if q:
            _axpy(rows[i], sign * q, rows[k].items())
        elif i == k:
            rows[i] = {j: -x for j, x in rows[i].items()}
        else:
            rows[i], rows[k] = rows[k], rows[i]
    columns: list[list[tuple[int, int]]] = [[] for _ in range(X.cols)]
    for i, row in enumerate(rows):
        for j, x in row.items():
            columns[j].append((i, x))
    return _canonical_hom(n, X.cols, tuple(map(tuple, columns)))


def _pivot(rows: list[dict[int, int]], t: int) -> tuple[int, int] | None:
    """Position of the least key (|value|, column, row) over the entries of
    ``rows`` from row t on, or None when there are none.  Those rows hold
    nothing left of column t, so the first unit met in column t, scanning
    down from row t, is the least key there can be and ends the search.
    """
    for i in range(t, len(rows)):
        if rows[i].get(t) in (1, -1):
            return i, t
    keys = ((abs(x), j, i) for i in range(t, len(rows)) for j, x in rows[i].items())
    best = min(keys, default=None)
    return None if best is None else (best[2], best[1])


def smith_normal_form(A: IntegerHom, cancel=None) -> SNFDecomposition:
    """Diagonalise A over Z with a divisibility chain on the diagonal.

    Pivoting is deterministic (smallest absolute value, leftmost, topmost),
    so the decomposition is reproducible run to run.  The elimination runs
    on the sparse rows of A (:func:`_rows`), each add one :func:`_axpy`, so
    a step costs the nonzeros it reads: rows and columns above and left of
    the pivot are already zero in D and are not read.  Unit pivots, which
    dominate boundary matrices, end the search at once, and no entry is
    tested for divisibility by 1.  No transform is built: each operation
    goes to the row or column log of the result.  A test pins every
    decomposition to the one the unoptimized dense kernel computes.

    ``cancel``, when given, is polled once per pivot step and aborts by
    raising the callable's exception.
    """
    m, n = A.rows, A.cols
    rows = _rows(A)
    row_log: list[tuple[int, int, int]] = []
    column_log: list[tuple[int, int, int]] = []

    t = 0
    while True:
        if cancel is not None:
            cancel()
        pivot = _pivot(rows, t)
        if pivot is None:
            break
        pi, pj = pivot
        if pi != t:
            rows[t], rows[pi] = rows[pi], rows[t]
            row_log.append((t, pi, 0))
        if pj != t:
            for r in rows[t:]:
                x, y = r.pop(t, 0), r.pop(pj, 0)
                if y:
                    r[t] = y
                if x:
                    r[pj] = x
            column_log.append((t, pj, 0))
        if rows[t][t] < 0:
            rows[t] = {j: -x for j, x in rows[t].items()}
            row_log.append((t, t, 0))
        pivot_row = rows[t]
        piv = pivot_row[t]

        # row i += q * row t, q = -(d[i][t] // piv), for each row below with
        # an entry in column t.  Every operation reads row t and writes
        # another, so all of them see row t as it was when the step began.
        below = [i for i in range(t + 1, m) if t in rows[i]]
        for i in below:
            if q := -(rows[i][t] // piv):
                _axpy(rows[i], q, pivot_row.items())
                row_log.append((i, t, q))
        # column j += q * column t, q = -(d[t][j] // piv), likewise for each
        # column to the right, in column order; V absorbs row t -= q * row j
        ops = sorted((j, q) for j, x in pivot_row.items() if j != t and (q := -(x // piv)))
        if ops:
            for r in [pivot_row] + [rows[i] for i in below if t in rows[i]]:
                _axpy(r, r[t], ops)
            column_log.extend((t, j, -q) for j, q in ops)
        if len(pivot_row) > 1 or any(t in rows[i] for i in below):
            continue

        # a unit divides everything; otherwise pull a row holding an entry
        # the pivot does not divide into row t and pivot again
        if piv != 1:
            witness = next((i for i in range(t + 1, m) if any(x % piv for x in rows[i].values())), None)
            if witness is not None:
                _axpy(pivot_row, 1, rows[witness].items())
                row_log.append((t, witness, 1))
                continue
        t += 1

    return SNFDecomposition(tuple(rows[i].get(i, 0) for i in range(min(m, n))), m, n, row_log, column_log)


# ---------------------------------------------------------------------------
# derived integer-lattice routines


def integer_kernel_basis(A: IntegerHom) -> IntegerHom:
    """Columns form a basis of the integer kernel of A (cols x k matrix)."""
    return smith_normal_form(A).kernel()


def integer_solve(A: IntegerHom, b: list[int]) -> list[int] | None:
    """Some integer solution of A x = b, or None when there is none."""
    return smith_normal_form(A).solve(b)


def modular_solve(A: IntegerHom, b: list[int], modulus: int) -> list[int] | None:
    """Some solution of A x = b (mod modulus), entries reduced into [0, modulus)."""
    return smith_normal_form(A).solve_mod(b, modulus)


def lattice_column_basis(W: IntegerHom) -> IntegerHom:
    """A basis (as columns) of the lattice spanned by the columns of W."""
    return smith_normal_form(W).column_basis()


def cokernel_presentation(Y: IntegerHom) -> tuple[FGAbelianGroup, list[tuple[list[int], int]]]:
    """Canonical form of Z^rows / (column lattice of Y), with generators
    (:meth:`SNFDecomposition.cokernel_presentation`)."""
    return smith_normal_form(Y).cokernel_presentation()


def cokernel(A: IntegerHom, coefficient: FGAbelianGroup) -> FGAbelianGroup:
    """Canonical form of G^rows / A(G^cols): the integer cokernel of A,
    read off one Smith normal form, tensored with G (tensoring is right exact)."""
    return tensor(FGAbelianGroup.from_cyclics(smith_normal_form(A)._padded), coefficient)


def kernel_group(A: IntegerHom, coefficient: FGAbelianGroup) -> FGAbelianGroup:
    """Canonical form of the kernel of A acting on G^cols.

    With A = U D V, it is the kernel of D: G for each zero column of D and
    the d-torsion of G, Tor(Z/d, G), for each nonzero diagonal entry d.
    """
    s = smith_normal_form(A)
    return direct_sum(
        power(coefficient, A.cols - s.rank),
        tor(FGAbelianGroup.from_cyclics(s.diagonal), coefficient),
    )


def solve(
    A: IntegerHom,
    coefficient: FGAbelianGroup,
    target: list[GroupElement],
    cancel=None,
) -> list[GroupElement] | None:
    """Some x in G^cols with A x = target in G^rows, or None.

    The system splits summand by summand (:meth:`FGAbelianGroup.split`): one
    integer system per free slot of G and one modular system per invariant
    factor.  ``cancel``, when given, is polled at every pivot step of the
    factorization and between slots, and aborts by raising the callable's
    exception.
    """
    target = list(target)
    if len(target) != A.rows:
        raise DimensionError("target length does not match rows")
    slots = coefficient.split(target)
    s = smith_normal_form(A, cancel=cancel) if slots else None
    parts: list[list[int]] = []
    for b, d in slots:
        if cancel is not None:
            cancel()
        sol = s.solve_mod(b, d) if d else s.solve(b)
        if sol is None:
            return None
        parts.append(sol)
    out = coefficient.join(parts, A.cols)
    # the same predicate as A.apply(out, coefficient) == target, taken slot
    # by slot with integer products on the vectors read back from ``out``
    for (x, d), (b, _) in zip(coefficient.split(out), slots):
        if not congruent(A.apply_int(x), b, d):
            raise InternalConsistencyError("solve produced x with A x != target")
    return out
