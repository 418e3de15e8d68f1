"""Shared test utilities: independent oracles and random valid posets.

The oracles here deliberately avoid the library's own reduction code:
determinants come from fraction-free Bareiss elimination, invariant factors
from gcds of k x k minors, ranks over F_p from plain Gaussian elimination,
and solvability checks over finite groups from plain enumeration;
:func:`check_snf_logs` replays a decomposition's logs on dense rows of its
own.  Frozen copies of replaced library paths serve as references for their
replacements.
"""

from __future__ import annotations

import itertools
import sys
from math import gcd
from types import SimpleNamespace
from typing import NamedTuple

from cornerindex.abelian import (
    FGAbelianGroup,
    GroupElement,
    IntegerHom,
    SNFDecomposition,
    direct_sum,
    tensor,
    tor,
)
from cornerindex.abelian import DimensionError, InternalConsistencyError, cokernel_presentation, smith_normal_form
from cornerindex.conormal import ConormalChainComplex, _embed_chain, _Path, build_complex, homology, periodize
from cornerindex.faces import Face, FacePoset, FilteredPair
from cornerindex.families import FiberAutomorphism, check_embeddable, gallery, quotient_family, GALLERY_NAMES


def bareiss_det(matrix: list[list[int]]) -> int:
    """Exact integer determinant by fraction-free elimination."""
    n = len(matrix)
    if n == 0:
        return 1
    m = [row[:] for row in matrix]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[-1][-1]


def minor_gcd_invariant_factors(A: IntegerHom) -> list[int]:
    """Nonzero invariant factors from determinantal divisors g_k.

    g_k is the gcd of all k x k minors and d_k = g_k / g_{k-1}; no row
    reduction happens anywhere, so this is independent of the library path.
    """
    rows = A.row_list()
    out = []
    prev_gcd = 1
    for k in range(1, min(A.rows, A.cols) + 1):
        g = 0
        for rsel in itertools.combinations(range(A.rows), k):
            for csel in itertools.combinations(range(A.cols), k):
                minor = [[rows[i][j] for j in csel] for i in rsel]
                g = gcd(g, abs(bareiss_det(minor)))
        if g == 0:
            break
        out.append(g // prev_gcd)
        prev_gcd = g
    return out


def group_from_snf_oracle(A: IntegerHom, rows: int | None = None) -> FGAbelianGroup:
    """Cokernel of A over Z computed from the minors oracle."""
    factors = minor_gcd_invariant_factors(A)
    free = (A.rows if rows is None else rows) - len(factors)
    return FGAbelianGroup.from_cyclics(factors + [0] * free)


def integer_solvable(A: IntegerHom, b: list[int]) -> bool:
    """Does A x = b have an integer solution?  Heger's criterion: exactly
    when A and [A | b] have the same invariant factors (by minors)."""
    augmented = IntegerHom.from_rows(
        [list(row) + [b[i]] for i, row in enumerate(A.entries)], width=A.cols + 1
    )
    return minor_gcd_invariant_factors(A) == minor_gcd_invariant_factors(augmented)


def modular_solvable(A: IntegerHom, b: list[int], modulus: int) -> bool:
    """Does A x = b (mod modulus) have a solution?  Same as the integer
    system [A | modulus * I] y = b."""
    lifted = IntegerHom.from_rows(
        [list(row) + [modulus if j == i else 0 for j in range(A.rows)] for i, row in enumerate(A.entries)],
        width=A.cols + A.rows,
    )
    return integer_solvable(lifted, b)


def rank_mod_p(A: IntegerHom, p: int) -> int:
    """Rank of A over F_p by Gaussian elimination on the reduced entries.

    Scales to the matrices the faster kernel reaches, where the minors
    oracle cannot: the number of invariant factors of A not divisible by p
    equals this rank."""
    rows = [[x % p for x in row] for row in A.entries]
    rank = 0
    for j in range(A.cols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][j]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inverse = pow(rows[rank][j], -1, p)
        top = [x * inverse % p for x in rows[rank]]
        rows[rank] = top
        for i in range(rank + 1, len(rows)):
            factor = rows[i][j]
            if factor:
                rows[i] = [(x - factor * y) % p for x, y in zip(rows[i], top)]
        rank += 1
    return rank


def prime_power_canonical(moduli) -> FGAbelianGroup:
    """Invariant-factor form of a sum of cyclic groups Z/n (0 meaning Z),
    by trial-division factoring into prime powers and regrouping them."""
    rank = 0
    by_prime: dict[int, list[int]] = {}
    for n in moduli:
        n = abs(n)
        if n == 0:
            rank += 1
            continue
        p = 2
        while p * p <= n:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            if e:
                by_prime.setdefault(p, []).append(e)
            p += 1
        if n > 1:
            by_prime.setdefault(n, []).append(1)
    for exps in by_prime.values():
        exps.sort(reverse=True)
    factors = []
    while any(by_prime.values()):
        d = 1
        for p, exps in by_prime.items():
            if exps:
                d *= p ** exps.pop(0)
        factors.append(d)
    return FGAbelianGroup(rank, tuple(reversed(factors)))


def _identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


class DenseSNF(NamedTuple):
    """A decomposition A = U * D * V as five dense matrices, the inverses of
    U and V included; equality compares all five."""

    U: IntegerHom
    D: IntegerHom
    V: IntegerHom
    U_inv: IntegerHom
    V_inv: IntegerHom

    @property
    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.D.entries[i][i] for i in range(min(self.D.rows, self.D.cols)))

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diagonal if d != 0)


def dense_snf(s: SNFDecomposition) -> DenseSNF:
    """The dense record of a log decomposition: its cached U, D and V, and
    U_inv and V_inv, each one product with the identity."""
    m, n = s.D.rows, s.D.cols
    U_inv, V_inv = s.u_inv_times(IntegerHom.identity(m)), s.v_inv_times(IntegerHom.identity(n))
    return DenseSNF(s.U, s.D, s.V, U_inv, V_inv)


def one_column(vector) -> IntegerHom:
    """The one-column matrix holding ``vector``."""
    return IntegerHom.from_columns([vector], len(vector))


def first_column(X: IntegerHom | None) -> list[int] | None:
    """Column 0 of ``X`` as a vector, or None when ``X`` is None."""
    return None if X is None else X.column(0)


def check_snf_logs(A: IntegerHom, s) -> None:
    """Replay the logs of ``s``, a decomposition of ``A``, on the dense rows
    of A with none of the library's code: each ``row_log`` entry on the rows,
    in order, and the column operation behind each ``column_log`` entry on
    the columns.  Asserts that every add has i != k, that the result is
    diagonal and equals ``s.diagonal``, and that the diagonal is a
    nonnegative divisibility chain (0 divides only 0, so zeros come last).

    An entry (i, k, q) with q != 0 adds q times entry k to entry i; with
    q == 0 it swaps entries i and k, or negates entry i when i == k.  A
    ``column_log`` entry is the row operation V absorbs, so its add stands
    for "column k -= q * column i" on D; a swap or a negation stands for
    the same operation on columns.
    """
    for i, k, q in list(s.row_log) + list(s.column_log):
        assert not q or i != k, f"an add of an entry to itself: {(i, k, q)}"
    d = [list(row) for row in A.entries]
    for i, k, q in s.row_log:
        if q:
            d[i] = [x + q * y for x, y in zip(d[i], d[k])]
        elif i == k:
            d[i] = [-x for x in d[i]]
        else:
            d[i], d[k] = d[k], d[i]
    for i, k, q in s.column_log:
        for row in d:
            if q:
                row[k] -= q * row[i]
            elif i == k:
                row[i] = -row[i]
            else:
                row[i], row[k] = row[k], row[i]
    off_diagonal = [(i, j) for i, row in enumerate(d) for j, x in enumerate(row) if x and i != j]
    assert not off_diagonal, f"the logs leave entries off the diagonal: {off_diagonal[:5]}"
    diagonal = tuple(d[i][i] for i in range(min(A.rows, A.cols)))
    assert diagonal == tuple(s.diagonal), (diagonal, s.diagonal)
    assert all(x >= 0 for x in diagonal), diagonal
    assert all(b % a == 0 if a else b == 0 for a, b in zip(diagonal, diagonal[1:])), diagonal


def reference_smith_normal_form(A: IntegerHom) -> DenseSNF:
    """The library's Smith normal form kernel as it stood before unit pivots
    took fast paths, kept verbatim as the reference for its pivot order:
    every pivot step scans the whole block and every operation runs over
    whole rows and columns of D, U, U_inv, V and V_inv.

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

    return DenseSNF(
        U=IntegerHom.from_rows(u, width=m),
        D=IntegerHom.from_rows(d, width=n),
        V=IntegerHom.from_rows(v, width=n),
        U_inv=IntegerHom.from_rows(uinv, width=m),
        V_inv=IntegerHom.from_rows(vinv, width=n),
    )


class DenseHom(NamedTuple):
    """An integer matrix as dense rows, the reference for the storage by
    columns of ``abelian.IntegerHom``: every operation walks the full
    rows x cols, and ``apply`` sums elements with their own arithmetic."""

    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    @classmethod
    def from_rows(cls, rows, width: int) -> "DenseHom":
        return cls(len(rows), width, tuple(map(tuple, rows)))

    def columns(self) -> list[list[int]]:
        return [[r[j] for r in self.entries] for j in range(self.cols)]

    def top_rows(self, k: int) -> "DenseHom":
        return DenseHom(k, self.cols, self.entries[:k])

    def hstack(self, other: "DenseHom") -> "DenseHom":
        return DenseHom(self.rows, self.cols + other.cols, tuple(a + b for a, b in zip(self.entries, other.entries)))

    def with_multiples(self, c: int) -> "DenseHom":
        scaled = [[c * x for x in row] for row in _identity(self.rows)]
        return self.hstack(DenseHom.from_rows(scaled, self.rows))

    def compose(self, other: "DenseHom") -> "DenseHom":
        product = [
            [sum(a[k] * other.entries[k][j] for k in range(self.cols)) for j in range(other.cols)]
            for a in self.entries
        ]
        return DenseHom.from_rows(product, other.cols)

    def is_zero(self) -> bool:
        return all(all(e == 0 for e in r) for r in self.entries)

    def apply_int(self, vector: list[int]) -> list[int]:
        return [sum(a * x for a, x in zip(row, vector)) for row in self.entries]

    def apply(self, elements, group: FGAbelianGroup) -> list[GroupElement]:
        out = []
        for row in self.entries:
            total = group.zero()
            for a, e in zip(row, elements):
                total = total + e.scale(a)
            out.append(total)
        return out


def _dense_mat_vec(a, v: list[int]) -> list[int]:
    """``a * v`` over every dense row of ``a``."""
    if a and len(a[0]) != len(v):
        raise DimensionError("matrix-vector shapes differ")
    nonzero = [(j, x) for j, x in enumerate(v) if x]
    return [sum(ai[j] * x for j, x in nonzero) for ai in a]


class DenseFactorization:
    """The solving methods of ``abelian.SNFDecomposition`` as they stood
    before they read the sparse transforms, their logic kept verbatim
    (method docstrings dropped, and the decomposition ``snf`` of ``A``
    passed in and made dense) as the reference for their answers: every
    product walks the dense rows of U, U_inv, V or V_inv."""

    def __init__(self, A: IntegerHom, snf: SNFDecomposition):
        self.A = A
        self.snf = dense_snf(snf)
        self.rank = self.snf.rank
        diagonal = self.snf.diagonal
        # padded with zeros to one entry per row of A
        self.diagonal = diagonal + (0,) * (A.rows - len(diagonal))

    def _reduced(self, b: list[int]) -> list[int]:
        if len(b) != self.A.rows:
            raise DimensionError("target length does not match rows")
        return _dense_mat_vec(self.snf.U_inv.entries, b)

    def kernel(self) -> IntegerHom:
        r = self.rank
        return IntegerHom.from_rows([row[r:] for row in self.snf.V_inv.entries], width=self.A.cols - r)

    def kernel_coordinates(self, b: list[int]) -> list[int] | None:
        if len(b) != self.A.cols:
            raise DimensionError("vector length does not match columns")
        z = _dense_mat_vec(self.snf.V.entries, b)
        return None if any(z[: self.rank]) else z[self.rank :]

    def column_basis(self) -> IntegerHom:
        d = self.diagonal[: self.rank]
        return IntegerHom.from_rows(
            [[x * row[j] for j, x in enumerate(d)] for row in self.snf.U.entries], width=self.rank
        )

    def column_coordinates(self, b: list[int]) -> list[int] | None:
        w = self._reduced(b)
        r = self.rank
        if any(w[r:]) or any(w[i] % self.diagonal[i] for i in range(r)):
            return None
        return [w[i] // self.diagonal[i] for i in range(r)]

    def contains(self, b: list[int]) -> bool:
        return self.column_coordinates(b) is not None

    def solve(self, b: list[int]) -> list[int] | None:
        y = self.column_coordinates(b)
        if y is None:
            return None
        return _dense_mat_vec(self.snf.V_inv.entries, y + [0] * (self.A.cols - self.rank))

    def solve_mod(self, b: list[int], modulus: int) -> list[int] | None:
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
        return [x % modulus for x in _dense_mat_vec(self.snf.V_inv.entries, y)]


def reference_cokernel_presentation(Y: IntegerHom, s: SNFDecomposition):
    """``abelian.cokernel_presentation`` as it stood before it read the
    sparse columns of U, kept verbatim apart from taking the decomposition
    ``s`` of ``Y`` as an argument: the generators are dense columns of U."""
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


def homology_gens_by_solving(Dp: IntegerHom, Dp1: IntegerHom, c: int):
    """``conormal._Path.homology`` as it stood before the cycle basis's own
    factorization supplied the relation coordinates: the cycle basis is
    factored a second time and each relation solved against it."""
    cycles, relations = _Path(c).lattices(Dp, Dp1)
    factored = smith_normal_form(cycles)
    cols = [factored.solve(b) for b in relations.columns()]
    assert None not in cols, "a relation escapes the cycle lattice"
    group, gens = cokernel_presentation(IntegerHom.from_columns(cols, cycles.cols))
    reps = [(cycles.apply_int(g), order) for g, order in gens]
    if c:
        reps = [([x % c for x in vec], order) for vec, order in reps]
    return group, reps


def reference_homology(complex):
    """``conormal.homology`` as it stood before representatives were lifted
    on first read, kept verbatim apart from its return value (a namespace
    with the old result's fields) and a fresh ``_Path`` per summand: every
    generator becomes a ``ChainVector`` as soon as it is found."""
    G = complex.coefficient
    integer_results = {}
    for p in complex.degrees:
        integer_results[p] = _Path(0).homology(complex.boundary[p], complex.boundary_or_zero(p + 1))
    groups: dict[int, FGAbelianGroup] = {}
    representatives: dict[int, list] = {}
    for p in complex.degrees:
        by_modulus = {0: integer_results[p]}
        for c in set(G.torsion):
            by_modulus[c] = _Path(c).homology(complex.boundary[p], complex.boundary_or_zero(p + 1))
        parts = []
        vectors = []
        for slot, c in enumerate(G.cyclic_summands()):
            grp, gens = by_modulus[c]
            parts.append(grp)
            for vec, _order in gens:
                vectors.append(_embed_chain(complex, p, slot, vec))
        direct = direct_sum(*parts)
        previous = (
            integer_results[p - 1][0] if (p - 1) in integer_results else FGAbelianGroup(0)
        )
        expected = direct_sum(tensor(integer_results[p][0], G), tor(previous, G))
        if direct != expected:
            raise InternalConsistencyError(
                f"direct homology {direct} disagrees with coefficient assembly {expected} in degree {p}"
            )
        groups[p] = direct
        representatives[p] = vectors
    result = SimpleNamespace(complex=complex, groups=groups, representatives=representatives)
    result.periodized = periodize(result)
    return result


def random_torsion_pair(rng, entries=(0, 0, 1, 2, 3, 4, 6, -2, -6)) -> tuple[IntegerHom, IntegerHom]:
    """Integer matrices (B, A) with B A = 0 and, mostly, torsion in
    ker B / im A: A = U [S; 0] and B = P V, where U is unimodular, V is the
    rows of U^-1 below the first k, and S (k rows) and P are random with
    ``entries``."""
    n = rng.randint(1, 6)
    k, a, b = rng.randint(0, n), rng.randint(1, 5), rng.randint(1, 5)
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    U_inv = [row[:] for row in U]
    for _ in range(2 * n if n > 1 else 0):
        # row i of U += q row j, so column j of U_inv -= q column i
        i, j = rng.sample(range(n), 2)
        q = rng.choice((-1, 1, 2))
        U[i] = [x + q * y for x, y in zip(U[i], U[j])]
        for row in U_inv:
            row[j] -= q * row[i]
    S = [[rng.choice(entries) for _ in range(b)] for _ in range(k)]
    P = [[rng.choice(entries) for _ in range(n - k)] for _ in range(a)]
    A = [[sum(U[i][t] * S[t][j] for t in range(k)) for j in range(b)] for i in range(n)]
    B = [[sum(P[i][t] * U_inv[k + t][j] for t in range(n - k)) for j in range(n)] for i in range(a)]
    return IntegerHom.from_rows(B, width=n), IntegerHom.from_rows(A, width=b)


def torsion_complex(B: IntegerHom, A: IntegerHom, G: FGAbelianGroup) -> ConormalChainComplex:
    """The complex C_2 -A-> C_1 -B-> C_0 over ``G``, as :func:`build_complex`
    lays out a pair (X_2, X_-1), on a stand-in poset whose fresh memo holds
    B and A as its incidence matrices, so their invariants are kept there.
    No poset has these boundary maps; ``homology`` reads only the pair's
    bounds and memo and the complex's matrices."""
    base = SimpleNamespace(_derived_memo={("incidence", 1): B, ("incidence", 2): A})
    bases = {p: tuple(map(str, range(n))) for p, n in enumerate((B.rows, B.cols, A.cols))}
    boundary = {0: IntegerHom.zero(0, B.rows), 1: B, 2: A}
    return ConormalChainComplex(SimpleNamespace(base=base, low=-1, high=2), G, (0, 1, 2), bases, boundary)


def reference_six_term_maps(poset: FacePoset, q: int, m: int, l: int, G) -> dict[str, IntegerHom]:
    """``SixTermSequence.maps`` as ``conormal._triple`` built them when
    exactness was checked on parity stacks, kept verbatim apart from building
    the complexes through ``build_complex``: arrow k is one block matrix from
    node k to node k + 1 (mod 6), and nodes run h1_mq, h1_lq, h1_lm, h0_mq,
    h0_lq, h0_lm."""

    def blocks(complex, parity):
        return tuple((p, complex.dim(p)) for p in complex.degrees if p % 2 == parity)

    def block_map(src, tgt, parts):
        def offsets(blocks):
            return dict(zip((p for p, _ in blocks), itertools.accumulate((n for _, n in blocks), initial=0)))

        src_at, tgt_at = offsets(src), offsets(tgt)
        width = sum(n for _, n in src)
        entries = [[0] * width for _ in range(sum(n for _, n in tgt))]
        for (p, q), mat in parts.items():
            if p in src_at and q in tgt_at:
                for i, row in enumerate(mat.entries):
                    entries[tgt_at[q] + i][src_at[p] : src_at[p] + mat.cols] = row
        return IntegerHom.from_rows(entries, width=width)

    complexes = tuple(
        build_complex(FilteredPair(poset, low, high), G) for low, high in ((q, m), (q, l), (m, l))
    )
    nodes = tuple((complex, parity) for parity in (1, 0) for complex in complexes)
    node_blocks = [blocks(complex, parity) for complex, parity in nodes]
    connecting = {(m + 1, m): complexes[1].boundary[m + 1]} if q < m < l else {}
    arrows = []
    for k, src in enumerate(node_blocks):
        if k % 3 == 2:
            parts = connecting
        else:
            parts = {(p, p): IntegerHom.identity(n) for p, n in src}
        arrows.append(block_map(src, node_blocks[(k + 1) % 6], parts))
    return dict(zip(("i1", "p1", "d1", "i0", "p0", "d0"), arrows))


def reference_validate(poset: FacePoset) -> list[str]:
    """``faces.validate`` as it stood before it became one indexed pass,
    kept verbatim as the reference for its messages and their order: the
    grandparent loop rebuilds both grandparents' parent maps per index pair.

    All violated invariants, one message each; empty list means valid.

    A poset with no faces at all stands for the empty manifold and is valid.
    """
    violations = []
    if poset.is_empty():
        return violations
    hyps = set(poset.hypersurfaces)
    if len(hyps) != len(poset.hypersurfaces):
        violations.append("duplicate-hypersurface: hypersurface list has repeats")
    seen = {}
    for f in poset.faces:
        if f.id in seen:
            violations.append(f"duplicate-face-id: {f.id}")
        seen[f.id] = f
    by_id = seen

    n_codim0 = sum(1 for f in poset.faces if f.codim == 0)
    if n_codim0 == 0:
        violations.append("missing-interior: no codimension-0 face")
    elif poset.connected and n_codim0 > 1:
        violations.append("disconnected-interior: connected poset has several codimension-0 faces")

    for f in poset.faces:
        if f.codim < 0:
            violations.append(f"negative-codim: {f.id}")
            continue
        if len(f.index_tuple) != f.codim:
            violations.append(f"tuple-length: {f.id} has {len(f.index_tuple)} indices for codim {f.codim}")
        unknown = [h for h in f.index_tuple if h not in hyps]
        if unknown:
            violations.append(f"unknown-hypersurface: {f.id} references {unknown[0]}")
            continue
        has_repeat = len(set(f.index_tuple)) != len(f.index_tuple)
        weakly_sorted = tuple(sorted(f.index_tuple)) == f.index_tuple
        if has_repeat:
            violations.append(f"duplicate-index: {f.id} repeats a hypersurface")
        if not weakly_sorted:
            violations.append(f"unsorted-tuple: {f.id} index tuple is not ascending")
        if has_repeat or not weakly_sorted:
            continue
        pmap = f.parent_map()
        extra = set(pmap) - set(f.index_tuple)
        if extra:
            violations.append(f"stray-parent: {f.id} lists parent for absent index {sorted(extra)[0]}")
        for i in f.index_tuple:
            if i not in pmap:
                violations.append(f"missing-parent: {f.id} has no parent for index {i}")
                continue
            gid = pmap[i]
            g = by_id.get(gid)
            if g is None:
                violations.append(f"unknown-parent: {f.id} names missing face {gid}")
                continue
            if g.codim != f.codim - 1:
                violations.append(f"parent-codim: {f.id} parent {gid} has codim {g.codim}")
                continue
            expected = tuple(h for h in f.index_tuple if h != i)
            if g.index_tuple != expected:
                violations.append(f"parent-tuple: {f.id} parent {gid} should carry {expected}")

    # grandparents commute: dropping i then j matches dropping j then i
    for f in poset.faces:
        if f.codim < 2:
            continue
        pmap = f.parent_map()
        idx = f.index_tuple
        if len(set(idx)) != len(idx) or set(pmap) != set(idx):
            continue  # already reported above
        for a in range(len(idx)):
            for b in range(a + 1, len(idx)):
                i, j = idx[a], idx[b]
                gi = by_id.get(pmap[i])
                gj = by_id.get(pmap[j])
                if gi is None or gj is None:
                    continue
                via_i = gi.parent_map().get(j)
                via_j = gj.parent_map().get(i)
                if via_i is None or via_j is None or via_i != via_j:
                    violations.append(
                        f"grandparent-mismatch: {f.id} dropping {i},{j} in either order disagrees"
                    )
    return violations


def reference_validate_automorphism(fiber: FacePoset, aut: FiberAutomorphism) -> list[str]:
    """``families.validate_automorphism`` as it stood before it built each
    face's parent map once per call, kept verbatim as the reference for its
    messages and their order."""
    violations = []
    fmap = aut.faces()
    smap = aut.hypersurfaces()
    face_ids = {f.id for f in fiber.faces}
    if set(fmap) != face_ids or set(fmap.values()) != face_ids:
        violations.append("face-map: not a bijection of the fiber faces")
        return violations
    hyps = set(fiber.hypersurfaces)
    if set(smap) != hyps or set(smap.values()) != hyps:
        violations.append("hypersurface-map: not a bijection of the hypersurfaces")
        return violations
    by_id = fiber.by_id()
    for f in fiber.faces:
        image = by_id[fmap[f.id]]
        if image.codim != f.codim:
            violations.append(f"codim-change: {f.id} -> {image.id}")
            continue
        if tuple(sorted(smap[i] for i in f.index_tuple)) != image.index_tuple:
            violations.append(f"tuple-mismatch: {f.id} -> {image.id}")
            continue
        pmap = f.parent_map()
        image_pmap = image.parent_map()
        for i in f.index_tuple:
            if fmap[pmap[i]] != image_pmap[smap[i]]:
                violations.append(f"parent-mismatch: {f.id} at index {i}")
    return violations


def uct_assembly(complex) -> dict[int, FGAbelianGroup]:
    """Per-degree homology over the complex's coefficients, assembled from
    its integer homology: (H_p(Z) tensor G) + Tor(H_{p-1}(Z), G).

    Unlike the oracles above this reads integer homology from the library;
    it checks the coefficient path of :func:`homology` against its Z path."""
    G = complex.coefficient
    integral = homology(build_complex(complex.pair, FGAbelianGroup(1))).groups
    return {
        p: direct_sum(tensor(integral[p], G), tor(integral.get(p - 1, FGAbelianGroup(0)), G))
        for p in complex.degrees
    }


def enumerate_vectors(group: FGAbelianGroup, length: int):
    """All vectors in G^length for a finite G."""
    yield from itertools.product(list(group.elements()), repeat=length)


def exhaustive_solve(A: IntegerHom, group: FGAbelianGroup, target):
    """Brute-force search for x with A x = target over a finite group."""
    target = list(target)
    for x in enumerate_vectors(group, A.cols):
        if A.apply(list(x), group) == target:
            return list(x)
    return None


def rebind(monkeypatch, owner, name, replacement) -> None:
    """Replace ``owner.name`` for the test by ``replacement``, and with it
    every other binding of the same object in a ``cornerindex`` module, as
    the benchmark's tracer does: a call through any import site of the
    name reaches the replacement.  ``owner`` may be a class."""
    real = getattr(owner, name)
    monkeypatch.setattr(owner, name, replacement)
    for module_name, module in list(sys.modules.items()):
        if module_name == "cornerindex" or module_name.startswith("cornerindex."):
            for key, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, key, replacement)


def count_calls(monkeypatch, module, name) -> list:
    """Wrap ``module.name`` for the test at every binding (:func:`rebind`);
    returns the list of recorded argument tuples, one per call."""
    calls = []
    real = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    rebind(monkeypatch, module, name, counting)
    return calls


def random_valid_poset(rng, max_codim=2, connected=True, max_faces=30) -> FacePoset:
    """A random poset that satisfies every validation invariant by construction.

    Corners are built only over pairs of edges with distinct hypersurfaces and
    a common interior, which is exactly what grandparent commutation needs.
    """
    n_hyp = rng.randint(1, 5)
    hyps = [f"h{i}" for i in range(1, n_hyp + 1)]
    n_int = 1 if connected else rng.randint(1, 2)
    faces = [(f"int{i}", 0, (), {}) for i in range(n_int)]
    budget = max_faces - n_int

    min_edges = 1 if max_codim >= 1 else 0
    n_edge = rng.randint(min_edges, max(min_edges, min(7, budget)))
    edges = []
    for e in range(n_edge):
        h = rng.choice(hyps)
        parent = f"int{rng.randrange(n_int)}"
        edges.append((f"e{e}", h, parent))
        faces.append((f"e{e}", 1, (h,), {h: parent}))
    budget -= n_edge

    if max_codim >= 2:
        pairs = [
            (a, b)
            for i, a in enumerate(edges)
            for b in edges[i + 1 :]
            if a[1] != b[1] and a[2] == b[2]
        ]
        if pairs and budget > 0:
            n_corner = rng.randint(0, min(len(pairs) + 2, budget, 8))
            for c in range(n_corner):
                ea, eb = rng.choice(pairs)
                if ea[1] > eb[1]:
                    ea, eb = eb, ea
                i, j = ea[1], eb[1]
                faces.append((f"c{c}", 2, (i, j), {i: eb[0], j: ea[0]}))
    return FacePoset.build(hyps, faces, connected=(n_int == 1))


def gallery_posets() -> list[tuple[str, FacePoset]]:
    """One poset per gallery entry: the embedded total when it exists, the
    fiber otherwise (the quarter twist has no embeddable total)."""
    out = []
    for name in GALLERY_NAMES:
        spec = gallery(name)
        quotient = quotient_family(spec)
        has_repeat = any(
            len(set(f.index_tuple)) != len(f.index_tuple) for f in quotient.total.faces
        )
        if has_repeat:
            out.append((name, spec.fiber))
        else:
            assert check_embeddable(quotient).embeddable
            out.append((name, quotient.total))
    return out


def connected_boundary_gallery() -> list[tuple[str, FacePoset]]:
    """Gallery posets that are connected with nonempty boundary."""
    return [
        (name, poset)
        for name, poset in gallery_posets()
        if poset.connected and poset.faces_of_codim(1)
    ]


def kgon(k: int) -> FacePoset:
    """The k-gon: k edges on k hypersurfaces, vertex i joins edges i and i + 1.

    Indices are zero-padded to the width of k - 1 (at least 3), so names
    sort as their indices do."""
    w = max(3, len(str(k - 1)))
    hyps = [f"h{i:0{w}d}" for i in range(k)]
    faces = [("int", 0, (), {})]
    faces += [(f"e{i:0{w}d}", 1, (hyps[i],), {hyps[i]: "int"}) for i in range(k)]
    for i in range(k):
        a, b = sorted((i, (i + 1) % k))
        faces.append((f"v{i:0{w}d}", 2, (hyps[a], hyps[b]), {hyps[a]: f"e{b:0{w}d}", hyps[b]: f"e{a:0{w}d}"}))
    return FacePoset.build(hyps, faces)


def cube(d: int) -> FacePoset:
    """The cube [0,1]^d: hypersurfaces x_i = 0 and x_i = 1, one face per
    choice of free ('*') or fixed ('0', '1') coordinates."""
    hyps = [f"x{i}{side}" for i in range(d) for side in "01"]
    states = sorted(itertools.product("*01", repeat=d), key=lambda s: (d - s.count("*"), s))
    faces = []
    for state in states:
        fixed = [i for i, x in enumerate(state) if x != "*"]
        parents = {
            f"x{i}{state[i]}": "f" + "".join(state[:i]) + "*" + "".join(state[i + 1 :]) for i in fixed
        }
        faces.append(("f" + "".join(state), len(fixed), tuple(sorted(parents)), parents))
    return FacePoset.build(hyps, faces)


def product(P: FacePoset, Q: FacePoset) -> FacePoset:
    """P x Q: faces are the pairs (f, g), with id "f|g", the codimensions
    adding; hypersurfaces are the disjoint union, prefixed "a." and "b."."""
    pairs = sorted(itertools.product(P.faces, Q.faces), key=lambda fg: fg[0].codim + fg[1].codim)
    faces = []
    for f, g in pairs:
        parents = {f"a.{h}": f"{fp}|{g.id}" for h, fp in f.parents}
        parents.update({f"b.{h}": f"{f.id}|{gp}" for h, gp in g.parents})
        index = sorted([f"a.{h}" for h in f.index_tuple] + [f"b.{h}" for h in g.index_tuple])
        faces.append((f"{f.id}|{g.id}", f.codim + g.codim, tuple(index), parents))
    hyps = sorted([f"a.{h}" for h in P.hypersurfaces] + [f"b.{h}" for h in Q.hypersurfaces])
    return FacePoset.build(hyps, faces, P.connected and Q.connected)


def random_codim2_poset(rng, n_faces: int) -> FacePoset:
    """A connected codimension-2 poset with exactly ``n_faces`` faces: one
    interior, edges on random hypersurfaces, and corners joining two edges
    on distinct hypersurfaces (so every grandparent is the interior)."""
    n_edges = max(4, (n_faces - 1) // 3)
    hyps = [f"h{i:03d}" for i in range(max(3, 2 * n_edges // 3))]
    on = [hyps[e] if e < len(hyps) else rng.choice(hyps) for e in range(n_edges)]
    faces = [("int", 0, (), {})]
    faces += [(f"e{e:03d}", 1, (h,), {h: "int"}) for e, h in enumerate(on)]
    for c in range(n_faces - 1 - n_edges):
        a, b = rng.sample(range(n_edges), 2)
        while on[a] == on[b]:
            a, b = rng.sample(range(n_edges), 2)
        if on[a] > on[b]:
            a, b = b, a
        faces.append((f"c{c:03d}", 2, (on[a], on[b]), {on[a]: f"e{b:03d}", on[b]: f"e{a:03d}"}))
    return FacePoset.build(hyps, faces)


# ---------------------------------------------------------------------------
# corrupted posets and automorphisms


POSET_MUTATIONS = (
    "repoint-parent",
    "drop-parent",
    "add-parent",
    "reverse-tuple",
    "repeat-index",
    "extend-tuple",
    "duplicate-face-id",
    "duplicate-hypersurface",
    "change-codim",
    "delete-face",
    "second-interior",
)


def _some_face_id(rng, faces) -> str:
    """An existing face id, or now and then one that names no face."""
    return rng.choice(faces)[0] if faces and rng.random() < 0.85 else "ghost"


def _some_hypersurface(rng, hyps) -> str:
    """A declared hypersurface, or now and then an undeclared one."""
    return rng.choice(hyps) if hyps and rng.random() < 0.9 else "h_unknown"


def _mutate(kind: str, rng, hyps: list, faces: list) -> None:
    """Apply one edit of the given kind in place; faces are mutable
    [id, codim, index list, parent-pair list] records."""
    with_parents = [f for f in faces if f[3]]
    with_pairs = [f for f in faces if len(f[2]) >= 2]
    with_indices = [f for f in faces if f[2]]
    if kind == "repoint-parent" and with_parents:
        parents = rng.choice(with_parents)[3]
        k = rng.randrange(len(parents))
        parents[k] = (parents[k][0], _some_face_id(rng, faces))
    elif kind == "drop-parent" and with_parents:
        parents = rng.choice(with_parents)[3]
        del parents[rng.randrange(len(parents))]
    elif kind == "add-parent" and faces:
        rng.choice(faces)[3].append((_some_hypersurface(rng, hyps), _some_face_id(rng, faces)))
    elif kind == "reverse-tuple" and with_pairs:
        rng.choice(with_pairs)[2].reverse()
    elif kind == "repeat-index" and with_indices:
        tup = rng.choice(with_indices)[2]
        if len(tup) >= 2:
            a, b = rng.sample(range(len(tup)), 2)
            tup[b] = tup[a]
        else:
            tup.append(tup[0])
    elif kind == "extend-tuple" and faces:
        tup = rng.choice(faces)[2]
        tup.insert(rng.randrange(len(tup) + 1), _some_hypersurface(rng, hyps))
    elif kind == "duplicate-face-id" and faces:
        f = rng.choice(faces)
        if len(faces) >= 2 and rng.random() < 0.5:
            rng.choice([g for g in faces if g is not f])[0] = f[0]
        else:
            faces.insert(rng.randrange(len(faces) + 1), [f[0], f[1], list(f[2]), list(f[3])])
    elif kind == "duplicate-hypersurface":
        hyps.insert(rng.randrange(len(hyps) + 1), _some_hypersurface(rng, hyps))
    elif kind == "change-codim" and faces:
        f = rng.choice(faces)
        f[1] = rng.choice((f[1] - 1, f[1] + 1, -1))
    elif kind == "delete-face" and faces:
        del faces[rng.randrange(len(faces))]
    elif kind == "second-interior":
        faces.insert(rng.randrange(len(faces) + 1), [f"int_extra{len(faces)}", 0, [], []])


def mutate_poset(rng, poset: FacePoset, n_edits: int) -> FacePoset:
    """``poset`` after ``n_edits`` random edits drawn from
    ``POSET_MUTATIONS``; each edit may break one or more validation
    invariants.  Parent pairs keep their order, repeats included."""
    hyps = list(poset.hypersurfaces)
    faces = [[f.id, f.codim, list(f.index_tuple), list(f.parents)] for f in poset.faces]
    for _ in range(n_edits):
        _mutate(rng.choice(POSET_MUTATIONS), rng, hyps, faces)
    return FacePoset(
        tuple(hyps),
        tuple(Face(fid, codim, tuple(tup), tuple(parents)) for fid, codim, tup, parents in faces),
        poset.connected,
    )


def cube_automorphism(d: int, perm, flips) -> FiberAutomorphism:
    """The symmetry of ``cube(d)`` sending coordinate i to ``perm[i]``,
    exchanging its two sides when ``flips[i]``."""
    swap = {"*": "*", "0": "1", "1": "0"}

    def image(state):
        out = ["*"] * d
        for i, x in enumerate(state):
            out[perm[i]] = swap[x] if flips[i] else x
        return "".join(out)

    face_map = {"f" + "".join(s): "f" + image(s) for s in itertools.product("*01", repeat=d)}
    hyp_map = {
        f"x{i}{side}": f"x{perm[i]}{swap[side] if flips[i] else side}"
        for i in range(d)
        for side in "01"
    }
    return FiberAutomorphism.build(face_map, hyp_map)


AUTOMORPHISM_CORRUPTIONS = ("merge-faces", "merge-hypersurfaces", "swap-faces", "swap-hypersurfaces")


def corrupt_automorphism(rng, aut: FiberAutomorphism, kind: str) -> FiberAutomorphism:
    """``aut`` with one defect: two faces (or hypersurfaces) sent to one
    image, which is no bijection, or the images of two of them exchanged,
    which breaks codimensions, tuples or parents downstream."""
    fmap, smap = aut.faces(), aut.hypersurfaces()
    target = fmap if kind in ("merge-faces", "swap-faces") else smap
    a, b = rng.sample(sorted(target), 2)
    if kind.startswith("merge"):
        target[b] = target[a]
    else:
        target[a], target[b] = target[b], target[a]
    return FiberAutomorphism.build(fmap, smap)
