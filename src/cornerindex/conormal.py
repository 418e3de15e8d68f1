"""Conormal chain complexes with coefficients and their exact homology.

A complex is built from a filtered pair (X_l, X_m): chain modules are free on
the faces of each codimension p in (m, l], the differential is the signed
incidence matrix, and degrees that fall into the quotiented range are zeroed.

Homology over a coefficient group G is computed twice on purpose, by two
engines: degree by degree, from the Smith invariants of the boundary
matrices mod each c, and through the universal-coefficient assembly from the
integer groups, read off their Smith diagonals.  The invariants of a
poset's own incidence matrices are kept in its derived-structure memo, the
one algebra memo that outlives a call.  Disagreement raises
:class:`InternalConsistencyError`, which always indicates a bug.  Exactness
of a six-term sequence is a theorem too, so a failed check raises instead of
reporting.  It is checked at every degree of the triple's long exact
sequence, one chain module at a time, on the lattice pairs of
:meth:`_Path.lattices`.

Every lattice question goes to a :class:`_Path` over Z or one Z/c: of the
exactness checks of one call, or of the cycles of one homology result.  A
path factors each matrix at most once, a zero one not at all, shares none
and reads no poset memo.  Incidence matrices and the stacked lift of
:meth:`_Path.coordinates` go through the checked ``IntegerHom``
constructor; products and blocks of checked matrices skip it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
from math import gcd
from operator import itemgetter

# integer_solve is no longer called here; it stays importable from this
# module, where callers and the benchmark's tracer self-test look it up
from .abelian import (  # noqa: F401
    DimensionError,
    FGAbelianGroup,
    GroupElement,
    GroupMismatchError,
    IntegerHom,
    InternalConsistencyError,
    SNFDecomposition,
    direct_sum,
    in_group,
    integer_solve,
    smith_normal_form,
    tensor,
    tor,
)
from .faces import FacePoset, FilteredPair, require_valid


def orientation_sign(indices) -> tuple[tuple, int]:
    """Ascending sort of a label tuple and the parity sign of the sort.

    Swapping two adjacent entries flips the sign: the wedge labels behave like
    an orientation, and a transposition acts as -1.
    """
    arr = list(indices)
    if len(set(arr)) != len(arr):
        raise ValueError("orientation labels must be distinct")
    sign = 1
    for i in range(len(arr)):
        j = min(range(i, len(arr)), key=lambda t: arr[t])
        if j != i:
            arr[i], arr[j] = arr[j], arr[i]
            sign = -sign
    return tuple(arr), sign


def incidence_matrix(poset: FacePoset, p: int) -> IntegerHom:
    """Signed incidence matrix from codim-p faces to codim-(p-1) faces.

    Built once per (poset, p) and kept in the poset's derived-structure
    memo; an ``IntegerHom`` is immutable, so every caller may share it.
    """
    memo = poset._derived_memo
    key = ("incidence", p)
    if key not in memo:
        memo[key] = _incidence(poset, p)
    return memo[key]


def _incidence(poset: FacePoset, p: int) -> IntegerHom:
    rows = poset.faces_of_codim(p - 1) if p >= 1 else []
    cols = poset.faces_of_codim(p)
    # a valid face's parents run in the order of its index tuple, and parent
    # k carries (-1)^k: by_sign[k] maps a parent id to its (row, sign) entry
    by_sign = [{g.id: (i, s) for i, g in enumerate(rows)} for s in (1, -1)] * p
    parent_id = itemgetter(1)
    columns = tuple(
        tuple(sorted(map(dict.__getitem__, by_sign, map(parent_id, f.parents)))) for f in cols
    )
    return IntegerHom(len(rows), len(cols), columns)


@dataclass
class ConormalChainComplex:
    pair: FilteredPair
    coefficient: FGAbelianGroup
    degrees: tuple[int, ...]
    bases: dict[int, tuple[str, ...]]
    boundary: dict[int, IntegerHom]  # D_p : C_p -> C_{p-1}, zeroed into degrees <= m

    def dim(self, p: int) -> int:
        return len(self.bases.get(p, ()))

    def boundary_or_zero(self, p: int) -> IntegerHom:
        if p in self.boundary:
            return self.boundary[p]
        return IntegerHom.zero(self.dim(p - 1), 0)


def build_complex(pair: FilteredPair, coefficient: FGAbelianGroup) -> ConormalChainComplex:
    poset = require_valid(pair.base)
    degrees = tuple(pair.degrees())
    bases = {p: poset.face_ids_of_codim(p) for p in degrees}
    boundary = {}
    for p in degrees:
        if p - 1 <= pair.low:
            boundary[p] = IntegerHom.zero(len(poset.face_ids_of_codim(p - 1)), len(bases[p]))
        else:
            boundary[p] = incidence_matrix(poset, p)
    for p in degrees:
        if p + 1 in boundary and not boundary[p].compose(boundary[p + 1]).is_zero():
            raise InternalConsistencyError(
                f"boundary squared is nonzero between degrees {p + 1} and {p - 1}"
            )
    return ConormalChainComplex(pair, coefficient, degrees, bases, boundary)


@dataclass(frozen=True)
class ChainVector:
    complex: ConormalChainComplex = field(repr=False)
    degree: int
    coords: tuple[GroupElement, ...]

    def __post_init__(self):
        if self.degree not in self.complex.degrees:
            raise DimensionError(f"degree {self.degree} outside the complex")
        if len(self.coords) != self.complex.dim(self.degree):
            raise DimensionError("coordinate count does not match the face basis")
        if not in_group(self.coords, self.complex.coefficient):
            raise GroupMismatchError("coordinate parent differs from the coefficient group")

    def boundary(self) -> list[GroupElement]:
        return self.complex.boundary[self.degree].apply(
            list(self.coords), self.complex.coefficient
        )


@dataclass
class HomologyResult:
    """Per-degree homology of one complex, and its (even, odd) sum.

    ``summands[p, c]`` holds the cyclic orders of degree p over Z/c, for
    c = 0 (over Z) and each modulus of the coefficient.  ``cycles[p]``,
    built on first read by one _Path per modulus, whose group must be the
    one those orders make, holds one integer vector per generator of degree
    p and the cyclic slot of the coefficient group it lives in, in
    generator order; ``representatives`` lifts them to :class:`ChainVector`
    on first read.
    """

    complex: ConormalChainComplex
    groups: dict[int, FGAbelianGroup]
    periodized: tuple[FGAbelianGroup, FGAbelianGroup]
    summands: dict[tuple[int, int], tuple[int, ...]] = field(repr=False)

    @cached_property
    def cycles(self) -> dict[int, list[tuple[int, list[int]]]]:
        complex, moduli = self.complex, self.complex.coefficient.cyclic_summands()
        paths = {c: _Path(c) for c in set(moduli)}
        cycles = {}
        for p in complex.degrees:
            Dp, Dp1 = complex.boundary[p], complex.boundary_or_zero(p + 1)
            found = {c: path.homology(Dp, Dp1) for c, path in paths.items()}
            if any(g != FGAbelianGroup.from_cyclics(self.summands[p, c]) for c, (g, _) in found.items()):
                raise InternalConsistencyError(f"a cycle basis presents another group in degree {p}")
            cycles[p] = [(slot, list(v)) for slot, c in enumerate(moduli) for v, _ in found[c][1]]
        return cycles

    @cached_property
    def representatives(self) -> dict[int, list[ChainVector]]:
        return {
            p: [_embed_chain(self.complex, p, slot, vector) for slot, vector in vectors]
            for p, vectors in self.cycles.items()
        }


class _Path:
    """One path of one call over Z (c = 0) or Z/c: the exactness checks or
    the cycles of a homology result.  It factors each matrix at most once,
    a zero one for its kernel not at all, and keeps each cycle basis; no two
    paths share one, so no two share an SNF."""

    def __init__(self, c: int):
        self.c = c
        self._decompositions: dict[IntegerHom, SNFDecomposition] = {}
        self._cycles: dict[IntegerHom, tuple[IntegerHom, SNFDecomposition | None]] = {}

    def _lifted(self, A: IntegerHom) -> IntegerHom:
        return A.with_multiples(self.c) if self.c else A

    def factored(self, A: IntegerHom) -> SNFDecomposition:
        factored = self._decompositions.get(A)
        if factored is None:
            factored = self._decompositions[A] = smith_normal_form(A)
        return factored

    def kernel(self, A: IntegerHom) -> IntegerHom:
        """Kernel basis of ``A``; a zero ``A`` takes no SNF."""
        return IntegerHom.identity(A.cols) if A.is_zero() else self.factored(A).kernel()

    def _cycles_of(self, Dp: IntegerHom) -> tuple[IntegerHom, SNFDecomposition | None]:
        """(cycle basis of Dp, the decomposition it is read off).  Mod c it
        is the top ``Dp.cols`` rows of ker [Dp | c*I]: (x, y) in it forces
        y = -Dp x / c, and c*I has full row rank.  A zero Dp gives the
        identity and None: every chain is a cycle, over Z and mod c."""
        cycles = self._cycles.get(Dp)
        if cycles is None:
            if Dp.is_zero():
                cycles = IntegerHom.identity(Dp.cols), None
            else:
                factored = self.factored(self._lifted(Dp))
                kernel = factored.kernel()
                if self.c and kernel.cols != Dp.cols:
                    raise InternalConsistencyError("cycle lattice mod c is not full rank")
                cycles = kernel.top_rows(Dp.cols), factored
            self._cycles[Dp] = cycles
        return cycles

    def lattices(self, Dp: IntegerHom, Dp1: IntegerHom) -> tuple[IntegerHom, IntegerHom]:
        """(cycles, relations), whose quotient is the homology: over Z,
        ker(Dp) and im(Dp1); over Z/c, the cycles mod c and im [Dp1 | c*I]."""
        return self._cycles_of(Dp)[0], self._lifted(Dp1)

    def coordinates(self, Dp: IntegerHom, X: IntegerHom) -> IntegerHom | None:
        """The coordinates of the columns of ``X`` in the cycle basis of Dp,
        or None when one of them is not a cycle.  Mod c, X is lifted to
        (X, -Dp X // c) in ker [Dp | c*I], which fails unless c divides
        Dp X.  For a zero Dp, X is its own coordinates."""
        if X.rows != Dp.cols:
            raise DimensionError("matrix rows do not match columns")
        _, factored = self._cycles_of(Dp)
        if factored is None:
            return X
        if self.c:
            # the lift -Dp X // c stacked under X, entries that floor to 0 left out
            n, lifts = X.rows, Dp.compose(X).nonzero
            stacked = tuple(
                column + tuple((n + i, y) for i, x in lift if (y := -x // self.c))
                for column, lift in zip(X.nonzero, lifts)
            )
            X = IntegerHom(n + Dp.rows, X.cols, stacked)
        return factored.kernel_coordinates(X)

    def homology(self, Dp: IntegerHom, Dp1: IntegerHom):
        """ker(Dp)/im(Dp1) with generating cycles and their orders.  At a
        bottom degree the relations are their own coordinates, the matrix
        whose kernel the degree above takes."""
        cycles, relations = self.lattices(Dp, Dp1)
        relation_coordinates = self.coordinates(Dp, relations)
        if relation_coordinates is None:
            raise InternalConsistencyError("a relation escapes the cycle lattice")
        group, gens = self.factored(relation_coordinates).cokernel_presentation()
        reps = [(cycles.apply_int(g), order) for g, order in gens]
        if self.c:
            reps = [([x % self.c for x in vec], order) for vec, order in reps]
        return group, reps

    def exact(self, f_in: IntegerHom, src, node, f_out: IntegerHom, tgt) -> bool:
        """Exactness at ``node`` between ``src`` and ``tgt``, each a (cycles,
        relations) lattice pair: the image of ``f_in`` equals the kernel of
        ``f_out``, both modulo the relations of ``node``."""
        (src_cycles, _), (cycles, relations), (_, tgt_relations) = src, node, tgt
        image = f_in.compose(src_cycles).hstack(relations)
        moved = f_out.compose(cycles)
        # the first block {a : moved a in span(tgt_relations)} is blind to the sign of the second
        combo_kernel = self.kernel(moved.hstack(tgt_relations))
        kernel = cycles.compose(combo_kernel.top_rows(cycles.cols)).hstack(relations)
        return self.factored(kernel).contains(image) and self.factored(image).contains(kernel)


def _embed_chain(
    complex: ConormalChainComplex, p: int, slot: int, vector: list[int]
) -> ChainVector:
    """The chain of degree p whose cyclic slot ``slot`` holds ``vector``
    and every other slot 0."""
    group = complex.coefficient
    vectors = [[0] * len(vector) for _ in group.cyclic_summands()]
    vectors[slot] = vector
    return ChainVector(complex, p, tuple(group.join(vectors, len(vector))))


def _invariants_mod(A: IntegerHom, c: int) -> tuple[int, tuple[int, ...]]:
    """The Smith invariants of ``A`` mod c (c >= 2) as (r, N): r of them are
    nonzero, and N sorts those strictly between 1 and c.  Elimination on
    entries prime to c, which never factors c, takes the unit ones; the rows
    it eliminates are A's columns.  A block left with no such entry, as
    [[2, 3]] mod 6 is, gives the rest: the Smith diagonal of [block | c*I]."""
    rows = [{i: x % c for i, x in column if x % c} for column in A.nonzero]
    holders: list[set[int]] = [set() for _ in range(A.rows)]  # column -> rows that held an entry in it
    for k, row in enumerate(rows):
        for i in row:
            holders[i].add(k)
    rank, pending = 0, set(range(len(rows)))  # the rows not searched since they last changed
    while pending:
        row = rows[i := pending.pop()]
        j = next((j for j, x in row.items() if gcd(x, c) == 1), None)
        if j is None:
            continue
        # drop row i, and clear column j from every other row that holds it
        rows[i], inverse = {}, pow(row[j], -1, c)
        for k in holders[j]:
            target = rows[k]
            if j in target:
                q = target[j] * inverse % c
                for l, x in row.items():
                    if y := (target.get(l, 0) - q * x) % c:
                        target[l] = y
                        holders[l].add(k)
                    else:
                        target.pop(l, None)
                pending.add(k)
        rank += 1
    if not (left := [row for row in rows if row]):
        return rank, ()
    index = {i: k for k, i in enumerate(sorted(set().union(*left)))}
    block = tuple(tuple((index[i], x) for i, x in sorted(row.items())) for row in left)
    diagonal = smith_normal_form(IntegerHom(len(index), len(left), block).with_multiples(c)).diagonal
    return rank + sum(d < c for d in diagonal), tuple(d for d in diagonal if 1 < d < c)


def _boundary_invariant(complex: ConormalChainComplex, p: int, c: int) -> tuple[int, tuple[int, ...]]:
    """(r, N) of D_p, over Z off its Smith diagonal, mod c by :func:`_invariants_mod`.
    (0, ()) where ``complex`` zeroes D_p or has no degree p.  Kept once per
    poset as ("invariants", p, c) when D_p is the poset's own incidence
    matrix; any other D_p, as in a complex built or edited by hand, is read
    afresh and not kept."""
    if p == complex.pair.low + 1 or p > complex.pair.high:
        return 0, ()
    memo, Dp, key = complex.pair.base._derived_memo, complex.boundary[p], ("invariants", p, c)
    if Dp is not memo.get(("incidence", p)):
        memo = {}
    if key not in memo:
        if c:
            memo[key] = _invariants_mod(Dp, c)
        else:
            diagonal = [d for d in smith_normal_form(Dp).diagonal if d]
            memo[key] = len(diagonal), tuple(d for d in diagonal if d > 1)
    return memo[key]


def _orders(complex: ConormalChainComplex, p: int, c: int) -> tuple[int, ...]:
    """Degree p's cyclic orders over Z/c (Z at c = 0): (c,)^(n - r - r') + N' (+ N mod c)."""
    (r, N), (r1, N1) = (_boundary_invariant(complex, q, c) for q in (p, p + 1))
    return (c,) * (complex.dim(p) - r - r1) + N1 + (N if c else ())


def homology(complex: ConormalChainComplex) -> HomologyResult:
    """Exact per-degree homology over the coefficient group.

    Read degree by degree off the :func:`_boundary_invariant` (r, N) of D_p
    and (r', N') of D_{p+1}, and cross-checked on every call against the
    assembly (H_p(Z) tensor G) + Tor(H_{p-1}(Z), G) of the Smith diagonals
    over Z: two engines meet.  Over Z, ker D_p is saturated, so
    H_p = Z^(n - r - r') + Z/e for each e in N'.  D lifts to Z with D^2 = 0
    and its invariants mod c are gcd(d, c) for its integer ones d, so over
    Z/c, H_p = (Z/c)^(n - r - r') + Z/e for each e in N' and each in N.
    Each degree takes one canonical form over G and one over Z.
    """
    G, moduli = complex.coefficient, complex.coefficient.cyclic_summands()
    summands = {(p, c): _orders(complex, p, c) for p in complex.degrees for c in {0, *moduli}}
    integer = {p: FGAbelianGroup.from_cyclics(summands[p, 0]) for p in complex.degrees}
    groups: dict[int, FGAbelianGroup] = {}
    for p in complex.degrees:
        direct = FGAbelianGroup.from_cyclics([e for c in moduli for e in summands[p, c]])
        expected = direct_sum(tensor(integer[p], G), tor(integer.get(p - 1, FGAbelianGroup(0)), G))
        if direct != expected:
            raise InternalConsistencyError(
                f"direct homology {direct} disagrees with coefficient assembly {expected} in degree {p}"
            )
        groups[p] = direct
    result = HomologyResult(complex, groups, (FGAbelianGroup(0),) * 2, summands)
    result.periodized = periodize(result)
    return result


def periodize(result: HomologyResult) -> tuple[FGAbelianGroup, FGAbelianGroup]:
    """(even-degree sum, odd-degree sum) of the homology groups."""
    even = direct_sum(*(g for p, g in sorted(result.groups.items()) if p % 2 == 0))
    odd = direct_sum(*(g for p, g in sorted(result.groups.items()) if p % 2 == 1))
    return even, odd


# ---------------------------------------------------------------------------
# the long exact sequence of a triple and its exactness check
#
# Position (j, p) of the long exact sequence of a triple is degree p of its
# complex j.  With cyclic coefficient c (0 meaning Z), its homology is the
# lattice pair of :meth:`_Path.lattices`, and arrows act by integer
# matrices, so exactness at a position is an equality of integer lattices,
# decided by solving in both directions.  Every arrow is homogeneous, so the
# six-term sequence, which stacks the degrees of one parity, is exact exactly
# when the long exact sequence is exact at every position.


def _blocks(complex: ConormalChainComplex, parity: int) -> tuple[tuple[int, int], ...]:
    """(degree, size) of the chain modules of one parity, in stacking order."""
    return tuple((p, complex.dim(p)) for p in complex.degrees if p % 2 == parity)


def _block_map(src, tgt, parts: dict[tuple[int, int], IntegerHom]) -> IntegerHom:
    """Block matrix between two stacked modules given as (degree, size) blocks.

    ``parts[(p, q)]`` maps the degree-p block of ``src`` into the degree-q
    block of ``tgt``; a part whose degree one side does not stack is left
    out, and every other block is zero.
    """

    def offsets(blocks):
        return dict(zip((p for p, _ in blocks), accumulate((n for _, n in blocks), initial=0)))

    src_at, tgt_at = offsets(src), offsets(tgt)
    columns = [()] * sum(n for _, n in src)
    for (p, q), mat in parts.items():
        if p in src_at and q in tgt_at:
            shift = tgt_at[q]
            for j, column in enumerate(mat.nonzero, src_at[p]):
                columns[j] += tuple((i + shift, x) for i, x in column)
    rows = sum(n for _, n in tgt)
    return IntegerHom(rows, len(columns), tuple(tuple(sorted(c)) for c in columns))


def _periodized(
    poset: FacePoset, low: int, high: int, G: FGAbelianGroup
) -> tuple[FGAbelianGroup, FGAbelianGroup]:
    """(even, odd) periodized homology of the pair (X_high, X_low)."""
    return homology(build_complex(FilteredPair(poset, low, high), G)).periodized


@dataclass
class SixTermSequence:
    """The rolled-up exact sequence of a filtration triple q <= m <= l.

    ``groups`` holds the six nodes, ``maps`` the chain-level block matrices
    realizing the six arrows on representative cycles.  Construction verifies
    exactness at every degree of the triple's long exact sequence, which is
    exactness at every node; failure raises, since exactness is guaranteed.
    """

    poset: FacePoset
    q: int
    m: int
    l: int
    coefficient: FGAbelianGroup
    groups: dict[str, FGAbelianGroup]
    maps: dict[str, IntegerHom]

    NODE_ORDER = ("h1_mq", "h1_lq", "h1_lm", "h0_mq", "h0_lq", "h0_lm")
    # arrow k maps node k to node k + 1 (mod 6)
    ARROW_ORDER = ("i1", "p1", "d1", "i0", "p0", "d0")


def _check_triple(poset: FacePoset, q: int, m: int, l: int) -> None:
    require_valid(poset)
    d = poset.codimension()
    if not (-1 <= q <= m <= l <= d):
        raise ValueError(f"triple ({q}, {m}, {l}) violates -1 <= q <= m <= l <= {d}")


def _triple(poset: FacePoset, q: int, m: int, l: int, G: FGAbelianGroup):
    """Complexes of the pairs (X_m, X_q), (X_l, X_q), (X_l, X_m) of a triple,
    and ``arrow(j, p)``, the part of the long exact sequence that leaves
    degree p of complex j.

    For j < 2 it is the identity into degree p of complex j + 1 where both
    complexes have that degree, zero otherwise.  For j = 2 it goes into
    degree p - 1 of complex 0; it carries D_{m+1}, read from the (X_l, X_q)
    complex, the one of the three that does not zero it.
    """
    complexes = tuple(
        build_complex(FilteredPair(poset, low, high), G) for low, high in ((q, m), (q, l), (m, l))
    )

    def arrow(j: int, p: int) -> IntegerHom:
        n = complexes[j].dim(p)
        if j < 2:
            rows = complexes[j + 1].dim(p)
            return IntegerHom.identity(n) if rows == n else IntegerHom.zero(rows, n)
        if p == m + 1 and q < m < l:
            return complexes[1].boundary[p]
        return IntegerHom.zero(complexes[0].dim(p - 1), n)

    return complexes, arrow


def _first_inexact(complexes, arrow, G: FGAbelianGroup, positions):
    """The first (c, j, p), over the cyclic coefficients c of G, at which
    the triple's long exact sequence is not exact, or None.  ``positions``
    lists (j, p, end): position (j, p) lies between (j - 1, p) and
    (j + 1, p), where (-1, p) is (2, p + 1) and (3, p) is (0, p - 1); with
    ``end``, the sequence ends there with the zero map.  Each modulus takes
    a :class:`_Path` of its own, and no poset memo is read.
    """
    zero = (IntegerHom.zero(0, 0),) * 2

    def lattices(path: _Path, j: int, p: int):
        complex = complexes[j]
        if not complex.dim(p):
            return zero
        return path.lattices(complex.boundary[p], complex.boundary_or_zero(p + 1))

    for c in sorted(set(G.cyclic_summands())):
        path = _Path(c)
        for j, p, end in positions:
            n = complexes[j].dim(p)
            if not n:
                continue  # a zero module is exact
            before = (j - 1, p) if j else (2, p + 1)
            after = (j + 1, p) if j < 2 else (0, p - 1)
            f_out, tgt = (IntegerHom.zero(0, n), zero) if end else (arrow(j, p), lattices(path, *after))
            if not path.exact(arrow(*before), lattices(path, *before), lattices(path, j, p), f_out, tgt):
                return c, j, p
    return None


def six_term(poset: FacePoset, q: int, m: int, l: int, G: FGAbelianGroup) -> SixTermSequence:
    _check_triple(poset, q, m, l)
    complexes, arrow = _triple(poset, q, m, l, G)
    # one homology per pair; each node reads one parity of it
    periodized = [homology(complex).periodized for complex in complexes]
    groups = dict(zip(SixTermSequence.NODE_ORDER, (h[parity] for parity in (1, 0) for h in periodized)))
    # from the top degree down; outside (q, l] every chain module is zero
    positions = [(j, p, False) for p in range(l, q, -1) for j in range(3)]
    failed = _first_inexact(complexes, arrow, G, positions)
    if failed:
        c, j, p = failed
        name = SixTermSequence.NODE_ORDER[j + 3 * (p % 2 == 0)]
        raise InternalConsistencyError(
            f"six-term sequence fails exactness at {name} with cyclic coefficient {c}"
        )
    # node k stacks one parity of complex k % 3; arrow k leaves it
    nodes = [_blocks(complexes[k % 3], 1 - k // 3) for k in range(6)]
    maps = {}
    for k, name in enumerate(SixTermSequence.ARROW_ORDER):
        shift = int(k % 3 == 2)
        parts = {(p, p - shift): arrow(k % 3, p) for p, _ in nodes[k]}
        maps[name] = _block_map(nodes[k], nodes[(k + 1) % 6], parts)
    return SixTermSequence(poset, q, m, l, G, groups, maps)


def connecting_map(poset: FacePoset, q: int, m: int, l: int, G: FGAbelianGroup) -> IntegerHom:
    """Chain-level realization of the connecting homomorphism of the triple.

    Nonzero only from degree m+1 to degree m, where it is the signed incidence
    matrix; the coefficient group does not change the matrix.
    """
    _check_triple(poset, q, m, l)
    if not isinstance(G, FGAbelianGroup):
        raise TypeError("coefficient must be an FGAbelianGroup")
    if m == l:
        rows = len(poset.faces_of_codim(m)) if m > q else 0
        return IntegerHom.zero(rows, 0)
    if q == m:
        return IntegerHom.zero(0, len(poset.faces_of_codim(m + 1)))
    return incidence_matrix(poset, m + 1)


@dataclass
class BoundarySESReport:
    """0 -> H_1^pcn(X) -> H_1^pcn(X, X_0) -> H_0^pcn(X_0) -> 0, verified."""

    left: FGAbelianGroup
    middle: FGAbelianGroup
    right: FGAbelianGroup
    exact: bool


def connected_boundary_ses(poset: FacePoset, G: FGAbelianGroup) -> BoundarySESReport:
    require_valid(poset)
    if not poset.connected:
        raise ValueError("the boundary sequence requires a connected poset")
    d = poset.codimension()
    if d < 1:
        raise ValueError("the boundary sequence requires a nonempty boundary")

    # the sequence is the odd part of the triple (-1, 0, d) from H_odd(X) on;
    # X_0 has degree 0 only, so exactness at the odd degrees of X is
    # injectivity, and exactness at H_0(X_0), ended by the zero map, is onto
    complexes, arrow = _triple(poset, -1, 0, d, G)
    boundary_part, absolute, relative = (homology(complex).periodized for complex in complexes)
    positions = [(j, p, False) for p in range(d, 0, -1) if p % 2 for j in (1, 2)] + [(0, 0, True)]
    failed = _first_inexact(complexes, arrow, G, positions)
    if failed:
        raise InternalConsistencyError(
            f"boundary short exact sequence fails with cyclic coefficient {failed[0]}"
        )
    return BoundarySESReport(absolute[1], relative[1], boundary_part[0], True)
