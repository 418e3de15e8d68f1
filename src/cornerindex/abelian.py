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
        for i in range(self.rows):
            free = [0] * group.rank
            tors = [0] * len(group.torsion)
            for j, e in enumerate(elements):
                a = self.entries[i][j]
                if a:
                    for k in range(group.rank):
                        free[k] += a * e.free[k]
                    for k in range(len(group.torsion)):
                        tors[k] += a * e.tors[k]
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


def smith_normal_form(A: IntegerHom) -> SNFDecomposition:
    """Diagonalise A over Z with a divisibility chain on the diagonal.

    Pivoting is deterministic (smallest absolute value, leftmost, topmost),
    so the decomposition is reproducible run to run.
    """
    m, n = A.rows, A.cols
    d = A.row_list()
    u = _identity(m)
    uinv = _identity(m)
    v = _identity(n)
    vinv = _identity(n)

    def row_swap(i, k):
        d[i], d[k] = d[k], d[i]
        uinv[i], uinv[k] = uinv[k], uinv[i]
        for r in u:
            r[i], r[k] = r[k], r[i]

    def row_add(i, k, q):
        # row i += q * row k on D; U absorbs the inverse column operation
        di, dk = d[i], d[k]
        for j in range(n):
            di[j] += q * dk[j]
        ui, uk = uinv[i], uinv[k]
        for j in range(m):
            ui[j] += q * uk[j]
        for r in u:
            r[k] -= q * r[i]

    def row_neg(i):
        d[i] = [-x for x in d[i]]
        uinv[i] = [-x for x in uinv[i]]
        for r in u:
            r[i] = -r[i]

    def col_swap(j, k):
        for r in d:
            r[j], r[k] = r[k], r[j]
        for r in vinv:
            r[j], r[k] = r[k], r[j]
        v[j], v[k] = v[k], v[j]

    def col_add(j, k, q):
        # col j += q * col k on D; V absorbs the inverse row operation
        for r in d:
            r[j] += q * r[k]
        for r in vinv:
            r[j] += q * r[k]
        vk, vj = v[k], v[j]
        for c in range(n):
            vk[c] -= q * vj[c]

    t = 0
    while True:
        best = None
        pivot = None
        for i in range(t, m):
            di = d[i]
            for j in range(t, n):
                val = di[j]
                if val:
                    key = (abs(val), j, i)
                    if best is None or key < best:
                        best = key
                        pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        if pi != t:
            row_swap(t, pi)
        if pj != t:
            col_swap(t, pj)
        if d[t][t] < 0:
            row_neg(t)
        piv = d[t][t]
        dirty = False
        for i in range(t + 1, m):
            if d[i][t]:
                row_add(i, t, -(d[i][t] // piv))
                if d[i][t]:
                    dirty = True
        for j in range(t + 1, n):
            if d[t][j]:
                col_add(j, t, -(d[t][j] // piv))
                if d[t][j]:
                    dirty = True
        if dirty:
            continue
        witness = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if d[i][j] % piv:
                    witness = i
                    break
            if witness is not None:
                break
        if witness is not None:
            row_add(t, witness, 1)
            continue
        t += 1

    return SNFDecomposition(
        U=IntegerHom.from_rows(u, width=m),
        D=IntegerHom.from_rows(d, width=n),
        V=IntegerHom.from_rows(v, width=n),
        U_inv=IntegerHom.from_rows(uinv, width=m),
        V_inv=IntegerHom.from_rows(vinv, width=n),
    )


# ---------------------------------------------------------------------------
# derived integer-lattice routines


def integer_kernel_basis(A: IntegerHom) -> IntegerHom:
    """Columns form a basis of the integer kernel of A (cols x k matrix)."""
    s = smith_normal_form(A)
    r = s.rank
    rows = [[s.V_inv.entries[i][j] for j in range(r, A.cols)] for i in range(A.cols)]
    return IntegerHom.from_rows(rows, width=A.cols - r)


class Factorization:
    """One Smith normal form of ``A``, reused for every right-hand side.

    Solving ``A x = b`` reduces to ``U_inv * b``, a divisibility test against
    the diagonal and one product with ``V_inv``; none of it refactors ``A``.
    """

    def __init__(self, A: IntegerHom):
        self.A = A
        self.snf = smith_normal_form(A)
        diagonal = self.snf.diagonal
        # padded with zeros to one entry per row of A
        self.diagonal = diagonal + (0,) * (A.rows - len(diagonal))

    def _reduced(self, b: list[int]) -> list[int]:
        if len(b) != self.A.rows:
            raise DimensionError("target length does not match rows")
        return _mat_vec_sparse(self.snf.U_inv.entries, b)

    def contains(self, b: list[int]) -> bool:
        """Is ``b`` in the lattice spanned by the columns of ``A``?"""
        w = self._reduced(b)
        return all(w[i] % d == 0 if d else not w[i] for i, d in enumerate(self.diagonal))

    def solve(self, b: list[int]) -> list[int] | None:
        """Some integer solution of ``A x = b``, or None when there is none."""
        w = self._reduced(b)
        y = [0] * self.A.cols
        for i, d in enumerate(self.diagonal):
            if d:
                if w[i] % d:
                    return None
                y[i] = w[i] // d
            elif w[i]:
                return None
        return _mat_vec_sparse(self.snf.V_inv.entries, y)

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
    s = smith_normal_form(W)
    r = s.rank
    diag = s.diagonal
    rows = [[diag[j] * s.U.entries[i][j] for j in range(r)] for i in range(W.rows)]
    return IntegerHom.from_rows(rows, width=r)


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
    polled between slots and aborts by raising the callable's exception.
    """
    target = list(target)
    if len(target) != A.rows:
        raise DimensionError("target length does not match rows")
    for e in target:
        if e.group != coefficient:
            raise GroupMismatchError("target parent differs from the coefficient group")
    factored = Factorization(A) if coefficient.cyclic_summands() else None
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
