"""Exact arithmetic for finitely generated abelian groups.

Everything here is integer-exact: groups live in canonical invariant-factor
form, maps between powers ``G^cols -> G^rows`` are integer matrices acting
coordinatewise on each cyclic summand of ``G``, and all normal forms and
solvers run on Python's arbitrary-precision integers.  No floats anywhere.

The workhorse is :func:`smith_normal_form`, which returns a full decomposition
``A = U * D * V`` together with the exact inverses of ``U`` and ``V``; kernel,
cokernel and solving routines for arbitrary coefficient groups are derived
from it summand by summand.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from math import gcd


class GroupMismatchError(ValueError):
    """Element arithmetic was attempted across two different parent groups."""


class DimensionError(ValueError):
    """Matrix and vector shapes do not line up."""


class InternalConsistencyError(RuntimeError):
    """Two independent computation paths disagreed; this is an algebra bug."""


# ---------------------------------------------------------------------------
# raw integer matrices (lists of rows); empty dimensions are legal everywhere


def _zeros(rows: int, cols: int) -> list[list[int]]:
    return [[0] * cols for _ in range(rows)]


def _identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _mat_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    rows, inner = len(a), len(b)
    cols = len(b[0]) if b else 0
    if a and len(a[0]) != inner:
        raise DimensionError("inner dimensions differ")
    out = _zeros(rows, cols)
    for i in range(rows):
        ai = a[i]
        oi = out[i]
        for k in range(inner):
            aik = ai[k]
            if aik:
                bk = b[k]
                for j in range(cols):
                    oi[j] += aik * bk[j]
    return out


def _mat_vec_sparse(a, v: list[int]) -> list[int]:
    """``a * v`` touching only the nonzero entries of ``v``."""
    if a and len(a[0]) != len(v):
        raise DimensionError("matrix-vector shapes differ")
    nonzero = [(j, x) for j, x in enumerate(v) if x]
    return [sum(ai[j] * x for j, x in nonzero) for ai in a]


# ---------------------------------------------------------------------------
# groups


@dataclass(frozen=True)
class FGAbelianGroup:
    """``Z^rank + Z/d_1 + ... + Z/d_t`` with ``d_1 | d_2 | ... | d_t``.

    The constructor insists on canonical input (each ``d_j >= 2``, divisibility
    chain), so group equality is plain field equality.  Use
    :meth:`from_cyclics` to canonicalise an arbitrary list of cyclic orders.
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
        # Z/a + Z/b = Z/gcd + Z/lcm; after step i, factors[i] divides every
        # later entry, and later steps only replace entries by gcds and lcms
        # of its multiples, so the result is a divisibility chain
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


@dataclass(frozen=True)
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
        reduced = tuple(t % d for t, d in zip(self.tors, self.group.torsion))
        if reduced != tuple(self.tors):
            object.__setattr__(self, "tors", reduced)
        elif not isinstance(self.tors, tuple):
            object.__setattr__(self, "tors", reduced)

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
        return all(a == 0 for a in self.free) and all(a == 0 for a in self.tors)


# ---------------------------------------------------------------------------
# integer homomorphisms


@dataclass(frozen=True)
class IntegerHom:
    """An integer matrix, read as a map G^cols -> G^rows for any coefficient G."""

    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.entries) != self.rows or any(len(r) != self.cols for r in self.entries):
            raise DimensionError("entry shape does not match the declared size")

    @classmethod
    def from_rows(cls, rows, width: int | None = None) -> "IntegerHom":
        rows = [tuple(r) for r in rows]
        cols = len(rows[0]) if rows else (width or 0)
        return cls(len(rows), cols, tuple(rows))

    @classmethod
    def from_columns(cls, columns: list[list[int]], rows: int) -> "IntegerHom":
        """The matrix whose columns are ``columns``, each of length ``rows``."""
        return cls.from_rows([[c[i] for c in columns] for i in range(rows)], width=len(columns))

    @classmethod
    def identity(cls, n: int) -> "IntegerHom":
        return cls.from_rows(_identity(n), width=n)

    @classmethod
    def zero(cls, rows: int, cols: int) -> "IntegerHom":
        return cls.from_rows(_zeros(rows, cols), width=cols)

    def row_list(self) -> list[list[int]]:
        return [list(r) for r in self.entries]

    def column(self, j: int) -> list[int]:
        return [r[j] for r in self.entries]

    def columns(self) -> list[list[int]]:
        return [self.column(j) for j in range(self.cols)]

    def hstack(self, other: "IntegerHom") -> "IntegerHom":
        """The block matrix ``[self | other]``."""
        if self.rows != other.rows:
            raise DimensionError("hstack row mismatch")
        return IntegerHom.from_rows(
            [a + b for a, b in zip(self.entries, other.entries)], width=self.cols + other.cols
        )

    def with_multiples(self, c: int) -> "IntegerHom":
        """``[self | c*I]``, whose columns span im(self) + c*Z^rows."""
        scaled = [[c * x for x in row] for row in _identity(self.rows)]
        return self.hstack(IntegerHom.from_rows(scaled, width=self.rows))

    def compose(self, other: "IntegerHom") -> "IntegerHom":
        if self.cols != other.rows:
            raise DimensionError("composition shape mismatch")
        return IntegerHom.from_rows(_mat_mul(self.row_list(), other.row_list()), width=other.cols)

    def is_zero(self) -> bool:
        return all(all(e == 0 for e in r) for r in self.entries)

    def apply_int(self, vector: list[int]) -> list[int]:
        return _mat_vec_sparse(self.entries, list(vector))

    def apply(self, elements, group: FGAbelianGroup) -> list[GroupElement]:
        """Coordinatewise action on a vector of elements of ``group``."""
        elements = list(elements)
        if len(elements) != self.cols:
            raise DimensionError("element vector length does not match columns")
        for e in elements:
            if e.group != group:
                raise GroupMismatchError("element parent differs from the coefficient group")
        out = []
        for row in self.entries:
            free = [0] * group.rank
            tors = [0] * len(group.torsion)
            # compress skips the zero entries of the row without a Python step
            for a, e in compress(zip(row, elements), row):
                for k, x in enumerate(e.free):
                    free[k] += a * x
                for k, x in enumerate(e.tors):
                    tors[k] += a * x
            out.append(GroupElement(group, tuple(free), tuple(tors)))
        return out


# ---------------------------------------------------------------------------
# Smith normal form


@dataclass(frozen=True)
class SNFDecomposition:
    """Exact decomposition A = U * D * V with unimodular U, V.

    ``U_inv`` and ``V_inv`` are carried along so that solving and kernel
    extraction never need a separate matrix inversion.
    """

    U: IntegerHom
    D: IntegerHom
    V: IntegerHom
    U_inv: IntegerHom
    V_inv: IntegerHom

    @property
    def diagonal(self) -> tuple[int, ...]:
        m = min(self.D.rows, self.D.cols)
        return tuple(self.D.entries[i][i] for i in range(m))

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diagonal if d != 0)


def _pivot(d: list[list[int]], t: int, n: int) -> tuple[int, int] | None:
    """Position of the least key (|value|, column, row) over the nonzero
    entries of the block of ``d`` from (t, t) on, or None when it is zero.

    The scan runs column by column, top to bottom, so keys come in
    increasing (column, row) order: the first unit met is the least key
    there can be and ends the scan.
    """
    best = None
    for j in range(t, n):
        for i in range(t, len(d)):
            val = d[i][j]
            if val and (best is None or abs(val) < best[0]):
                if val in (1, -1):
                    return i, j
                best = (abs(val), i, j)
    return None if best is None else best[1:]


def _add_multiple(dst: dict[int, int], q: int, src: dict[int, int]) -> None:
    """``dst += q * src`` on sparse vectors."""
    for k, x in src.items():
        dst[k] = dst.get(k, 0) + q * x


def _densify(vectors: list[dict[int, int]]) -> list[list[int]]:
    """The square matrix whose rows are the sparse ``vectors``."""
    rows = _zeros(len(vectors), len(vectors))
    for row, vec in zip(rows, vectors):
        for k, x in vec.items():
            row[k] = x
    return rows


def smith_normal_form(A: IntegerHom, cancel=None) -> SNFDecomposition:
    """Diagonalise A over Z with a divisibility chain on the diagonal.

    Pivoting is deterministic (smallest absolute value, leftmost, topmost),
    so the decomposition is reproducible run to run.  Boundary matrices are
    dominated by unit pivots, which take fast paths without changing that
    rule: the search runs column by column and stops at the first unit, and
    no entry is tested for divisibility by 1.  Each pivot step touches only
    entries that can change: rows and columns above and left of the pivot
    are already zero in D, zero entries of the pivot row and column are
    skipped, and U, U_inv, V and V_inv are kept as sparse vectors.  A test
    pins every decomposition to the one the unoptimized kernel computes.

    ``cancel``, when given, is polled once per pivot step and aborts by
    raising the callable's exception.
    """
    m, n = A.rows, A.cols
    d = A.row_list()
    # sparse rows of U_inv and V; U and V_inv only ever see column
    # operations, so they are kept by columns (ut[k] is column k of U)
    uinv = [{i: 1} for i in range(m)]
    ut = [{i: 1} for i in range(m)]
    v = [{j: 1} for j in range(n)]
    vinvt = [{j: 1} for j in range(n)]

    t = 0
    while True:
        if cancel is not None:
            cancel()
        pivot = _pivot(d, t, n)
        if pivot is None:
            break
        pi, pj = pivot
        if pi != t:
            d[t], d[pi] = d[pi], d[t]
            uinv[t], uinv[pi] = uinv[pi], uinv[t]
            ut[t], ut[pi] = ut[pi], ut[t]
        if pj != t:
            for i in range(t, m):
                r = d[i]
                r[t], r[pj] = r[pj], r[t]
            vinvt[t], vinvt[pj] = vinvt[pj], vinvt[t]
            v[t], v[pj] = v[pj], v[t]
        if d[t][t] < 0:
            d[t] = [-x for x in d[t]]
            uinv[t] = {k: -x for k, x in uinv[t].items()}
            ut[t] = {k: -x for k, x in ut[t].items()}
        pivot_row = d[t]
        piv = pivot_row[t]

        # row i += q * row t, q = -(d[i][t] // piv), for each row below with
        # an entry in column t; U absorbs the inverse column operations.
        # Every operation reads row t and writes another, so all of them see
        # row t as it was when the step began.
        below = [i for i in range(t + 1, m) if d[i][t]]
        ops = [(i, q) for i in below if (q := -(d[i][t] // piv))]
        if ops:
            src = [(j, x) for j, x in enumerate(pivot_row[t:], t) if x]
            for i, q in ops:
                di = d[i]
                for j, x in src:
                    di[j] += q * x
                _add_multiple(uinv[i], q, uinv[t])
                _add_multiple(ut[t], -q, ut[i])
        # column j += q * column t, q = -(d[t][j] // piv), likewise for each
        # column to the right; V absorbs the inverse row operations
        ops = [(j, q) for j in range(t + 1, n) if (q := -(pivot_row[j] // piv))]
        if ops:
            for r in [pivot_row] + [d[i] for i in below if d[i][t]]:
                x = r[t]
                for j, q in ops:
                    r[j] += q * x
            for j, q in ops:
                _add_multiple(vinvt[j], q, vinvt[t])
                _add_multiple(v[t], -q, v[j])
        if any(pivot_row[t + 1 :]) or any(d[i][t] for i in below):
            continue

        # a unit divides everything; otherwise pull a row holding an entry
        # the pivot does not divide into row t and pivot again
        if piv != 1:
            witness = next(
                (i for i in range(t + 1, m) if any(x % piv for x in d[i][t + 1 :])), None
            )
            if witness is not None:
                d[t] = [x + y for x, y in zip(pivot_row, d[witness])]
                _add_multiple(uinv[t], 1, uinv[witness])
                _add_multiple(ut[witness], -1, ut[t])
                continue
        t += 1

    return SNFDecomposition(
        U=IntegerHom.from_rows(list(zip(*_densify(ut))), width=m),
        D=IntegerHom.from_rows(d, width=n),
        V=IntegerHom.from_rows(_densify(v), width=n),
        U_inv=IntegerHom.from_rows(_densify(uinv), width=m),
        V_inv=IntegerHom.from_rows(list(zip(*_densify(vinvt))), width=n),
    )


# ---------------------------------------------------------------------------
# derived integer-lattice routines


def integer_kernel_basis(A: IntegerHom) -> IntegerHom:
    """Columns form a basis of the integer kernel of A (cols x k matrix)."""
    return Factorization(A).kernel()


class Factorization:
    """One Smith normal form of ``A``, reused for every right-hand side.

    Solving ``A x = b`` reduces to ``U_inv * b``, a divisibility test against
    the diagonal and one product with ``V_inv``; none of it refactors ``A``.
    The same decomposition gives bases of the kernel and of the column
    lattice of ``A``, and the coordinates of a vector in either basis, so a
    basis it produced never needs a factorization of its own.
    ``cancel`` is passed to :func:`smith_normal_form`.
    """

    def __init__(self, A: IntegerHom, cancel=None):
        self.A = A
        self.snf = smith_normal_form(A, cancel=cancel)
        self.rank = self.snf.rank
        diagonal = self.snf.diagonal
        # padded with zeros to one entry per row of A
        self.diagonal = diagonal + (0,) * (A.rows - len(diagonal))

    def _reduced(self, b: list[int]) -> list[int]:
        if len(b) != self.A.rows:
            raise DimensionError("target length does not match rows")
        return _mat_vec_sparse(self.snf.U_inv.entries, b)

    def kernel(self) -> IntegerHom:
        """Columns form a basis of the integer kernel of ``A``: the last
        ``cols - rank`` columns of ``V_inv``."""
        r = self.rank
        return IntegerHom.from_rows([row[r:] for row in self.snf.V_inv.entries], width=self.A.cols - r)

    def kernel_coordinates(self, b: list[int]) -> list[int] | None:
        """The coordinates of ``b`` in :meth:`kernel`, or None when
        ``A b != 0``."""
        if len(b) != self.A.cols:
            raise DimensionError("vector length does not match columns")
        z = _mat_vec_sparse(self.snf.V.entries, b)
        return None if any(z[: self.rank]) else z[self.rank :]

    def column_basis(self) -> IntegerHom:
        """Columns form a basis of the lattice spanned by the columns of
        ``A``: the first ``rank`` columns of ``U``, scaled by the diagonal."""
        d = self.diagonal[: self.rank]
        return IntegerHom.from_rows(
            [[x * row[j] for j, x in enumerate(d)] for row in self.snf.U.entries], width=self.rank
        )

    def column_coordinates(self, b: list[int]) -> list[int] | None:
        """The coordinates of ``b`` in :meth:`column_basis`, or None when
        ``b`` is not in the column lattice of ``A``."""
        w = self._reduced(b)
        r = self.rank
        if any(w[r:]) or any(w[i] % self.diagonal[i] for i in range(r)):
            return None
        return [w[i] // self.diagonal[i] for i in range(r)]

    def contains(self, b: list[int]) -> bool:
        """Is ``b`` in the lattice spanned by the columns of ``A``?"""
        return self.column_coordinates(b) is not None

    def solve(self, b: list[int]) -> list[int] | None:
        """Some integer solution of ``A x = b``, or None when there is none."""
        y = self.column_coordinates(b)
        if y is None:
            return None
        return _mat_vec_sparse(self.snf.V_inv.entries, y + [0] * (self.A.cols - self.rank))

    def solve_mod(self, b: list[int], modulus: int) -> list[int] | None:
        """Some solution of ``A x = b (mod modulus)``, entries in [0, modulus)."""
        if modulus < 2:
            raise ValueError("modulus must be >= 2")
        w = [x % modulus for x in self._reduced(b)]
        y = [0] * self.A.cols
        for i, d in enumerate(self.diagonal):
            g = gcd(d, modulus)
            if w[i] % g:
                return None
            if g != modulus:
                m2 = modulus // g
                y[i] = (w[i] // g) * pow(d // g, -1, m2) % m2
        return [x % modulus for x in _mat_vec_sparse(self.snf.V_inv.entries, y)]


def integer_solve(A: IntegerHom, b: list[int]) -> list[int] | None:
    """Some integer solution of A x = b, or None when there is none."""
    return Factorization(A).solve(b)


def modular_solve(A: IntegerHom, b: list[int], modulus: int) -> list[int] | None:
    """Some solution of A x = b (mod modulus), entries reduced into [0, modulus)."""
    return Factorization(A).solve_mod(b, modulus)


def lattice_column_basis(W: IntegerHom) -> IntegerHom:
    """A basis (as columns) of the lattice spanned by the columns of W."""
    return Factorization(W).column_basis()


def cokernel_presentation(Y: IntegerHom) -> tuple[FGAbelianGroup, list[tuple[list[int], int]]]:
    """Canonical form of Z^rows / (column lattice of Y), with generators.

    Returns the group and a list of (vector, order) pairs: vectors in Z^rows
    whose classes generate the quotient, order 0 meaning infinite.  Torsion
    generators come first, in ascending invariant-factor order.
    """
    s = smith_normal_form(Y)
    mn = min(Y.rows, Y.cols)
    diag = s.diagonal
    rank = 0
    torsion = []
    gens: list[tuple[list[int], int]] = []
    frees: list[tuple[list[int], int]] = []
    for i in range(Y.rows):
        si = diag[i] if i < mn else 0
        if si == 1:
            continue
        vec = s.U.column(i)
        if si == 0:
            rank += 1
            frees.append((vec, 0))
        else:
            torsion.append(si)
            gens.append((vec, si))
    return FGAbelianGroup(rank, tuple(torsion)), gens + frees


def cokernel(A: IntegerHom, coefficient: FGAbelianGroup) -> FGAbelianGroup:
    """Canonical form of G^rows / A(G^cols)."""
    parts = []
    for c in coefficient.cyclic_summands():
        M = A.with_multiples(c) if c else A
        parts.append(cokernel_presentation(M)[0])
    return direct_sum(*parts)


def kernel_group(A: IntegerHom, coefficient: FGAbelianGroup) -> FGAbelianGroup:
    """Canonical form of the kernel of A acting on G^cols."""
    s = smith_normal_form(A)
    diag = s.diagonal
    mn = min(A.rows, A.cols)
    parts = []
    for c in coefficient.cyclic_summands():
        if c == 0:
            parts.append(FGAbelianGroup(A.cols - s.rank))
        else:
            cyclics = [gcd(diag[j], c) for j in range(mn)]
            cyclics.extend([c] * (A.cols - mn))
            parts.append(FGAbelianGroup.from_cyclics(cyclics))
    return direct_sum(*parts)


def solve(
    A: IntegerHom,
    coefficient: FGAbelianGroup,
    target: list[GroupElement],
    cancel=None,
) -> list[GroupElement] | None:
    """Some x in G^cols with A x = target in G^rows, or None.

    The system splits summand by summand: one integer system per free slot of
    G and one modular system per invariant factor.  ``cancel``, when given, is
    polled at every pivot step of the factorization and between slots, and
    aborts by raising the callable's exception.
    """
    target = list(target)
    if len(target) != A.rows:
        raise DimensionError("target length does not match rows")
    for e in target:
        if e.group != coefficient:
            raise GroupMismatchError("target parent differs from the coefficient group")
    factored = Factorization(A, cancel=cancel) if coefficient.cyclic_summands() else None
    free_parts: list[list[int]] = []
    for k in range(coefficient.rank):
        if cancel is not None:
            cancel()
        sol = factored.solve([e.free[k] for e in target])
        if sol is None:
            return None
        free_parts.append(sol)
    tors_parts: list[list[int]] = []
    for j, d in enumerate(coefficient.torsion):
        if cancel is not None:
            cancel()
        sol = factored.solve_mod([e.tors[j] for e in target], d)
        if sol is None:
            return None
        tors_parts.append(sol)
    out = [
        GroupElement(
            coefficient,
            tuple(part[i] for part in free_parts),
            tuple(part[i] for part in tors_parts),
        )
        for i in range(A.cols)
    ]
    if A.apply(out, coefficient) != target:
        raise InternalConsistencyError("solve produced x with A x != target")
    return out
