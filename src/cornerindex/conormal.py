"""Conormal chain complexes with coefficients and their exact homology.

A complex is built from a filtered pair (X_l, X_m): chain modules are free on
the faces of each codimension p in (m, l], the differential is the signed
incidence matrix, and degrees that fall into the quotiented range are zeroed.

Homology over a coefficient group G is computed twice on purpose: directly,
summand by summand, and through the universal-coefficient assembly from
integer homology.  Disagreement raises :class:`InternalConsistencyError`,
which always indicates a bug rather than bad input.  The same philosophy
applies to six-term sequences: exactness is a theorem, so a failed check
raises instead of reporting.  Each degree's lattice pair (cycles, relations)
comes from one function, :func:`_lattices`, for Z and Z/c alike, and the
exactness checks read their boundary matrices from the complex of each
filtered pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate

# integer_solve is no longer called here; it stays importable from this
# module, where callers and the benchmark's tracer self-test look it up
from .abelian import (  # noqa: F401
    Factorization,
    FGAbelianGroup,
    GroupElement,
    IntegerHom,
    InternalConsistencyError,
    cokernel_presentation,
    direct_sum,
    integer_kernel_basis,
    integer_solve,
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
    """Signed incidence matrix from codim-p faces to codim-(p-1) faces."""
    rows = poset.faces_of_codim(p - 1) if p >= 1 else []
    cols = poset.faces_of_codim(p)
    row_index = {f.id: i for i, f in enumerate(rows)}
    entries = [[0] * len(cols) for _ in rows]
    for j, f in enumerate(cols):
        pmap = f.parent_map()
        for k, i in enumerate(f.index_tuple):
            entries[row_index[pmap[i]]][j] = -1 if k % 2 else 1
    return IntegerHom.from_rows(entries, width=len(cols))


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
    require_valid(pair.base)
    return _build_complex(pair, coefficient)


def _build_complex(pair: FilteredPair, coefficient: FGAbelianGroup) -> ConormalChainComplex:
    """:func:`build_complex` for a pair whose base is already validated."""
    poset = pair.base
    degrees = tuple(pair.degrees())
    bases = {p: tuple(f.id for f in poset.faces_of_codim(p)) for p in degrees}
    boundary = {}
    for p in degrees:
        mat = incidence_matrix(poset, p)
        if p - 1 <= pair.low:
            mat = IntegerHom.zero(mat.rows, mat.cols)
        boundary[p] = mat
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
            raise ValueError(f"degree {self.degree} outside the complex")
        if len(self.coords) != self.complex.dim(self.degree):
            raise ValueError("coordinate count does not match the face basis")
        for e in self.coords:
            if e.group != self.complex.coefficient:
                raise ValueError("coordinate parent differs from the coefficient group")

    def boundary(self) -> list[GroupElement]:
        return self.complex.boundary[self.degree].apply(
            list(self.coords), self.complex.coefficient
        )


@dataclass
class HomologyResult:
    complex: ConormalChainComplex
    groups: dict[int, FGAbelianGroup]
    representatives: dict[int, list[ChainVector]]
    periodized: tuple[FGAbelianGroup, FGAbelianGroup]


def _cycle_basis(Dp: IntegerHom, c: int):
    """Basis of the cycles of Dp over Z (c = 0) or mod c, and the function
    that gives a cycle's coordinates in it.

    Both come from the one factorization that produced the basis: the kernel
    of Dp, or over Z/c the column lattice of the top block of a kernel basis
    of [Dp | c*I].  The basis has full column rank, so the coordinates are
    the unique solution of ``basis * y = cycle``.
    """
    if c == 0:
        factored = Factorization(Dp)
        return factored.kernel(), factored.kernel_coordinates
    full = integer_kernel_basis(Dp.with_multiples(c))
    top = Factorization(IntegerHom.from_rows(full.entries[: Dp.cols], width=full.cols))
    basis = top.column_basis()
    if basis.cols != Dp.cols:
        raise InternalConsistencyError("cycle lattice mod c is not full rank")
    return basis, top.column_coordinates


def _lattices(Dp: IntegerHom, Dp1: IntegerHom, c: int):
    """(cycles, relations, coordinates) of one degree: homology over Z
    (c = 0) or Z/c is the quotient of the first column lattice by the
    second, and ``coordinates`` expresses a cycle in the first.

    Over Z these are ker(Dp) and im(Dp1); over Z/c, the cycles mod c and the
    boundaries plus c-multiples, so that all of it stays an integer lattice.
    """
    cycles, coordinates = _cycle_basis(Dp, c)
    return cycles, Dp1.with_multiples(c) if c else Dp1, coordinates


def _homology_gens(Dp: IntegerHom, Dp1: IntegerHom, c: int):
    """Homology ker(Dp)/im(Dp1) over Z (c = 0) or Z/c, with generating cycles
    and their orders."""
    cycles, relations, coordinates = _lattices(Dp, Dp1, c)
    cols = []
    for b in relations.columns():
        y = coordinates(b)
        if y is None:
            raise InternalConsistencyError("a relation escapes the cycle lattice")
        cols.append(y)
    group, gens = cokernel_presentation(IntegerHom.from_columns(cols, cycles.cols))
    reps = [(cycles.apply_int(g), order) for g, order in gens]
    if c:
        reps = [([x % c for x in vec], order) for vec, order in reps]
    return group, reps


def _embed_chain(
    complex: ConormalChainComplex, p: int, slot: int, vector: list[int]
) -> ChainVector:
    group = complex.coefficient
    rank = group.rank
    coords = []
    for value in vector:
        free = [0] * rank
        tors = [0] * len(group.torsion)
        if slot < rank:
            free[slot] = value
        else:
            tors[slot - rank] = value
        coords.append(GroupElement(group, tuple(free), tuple(tors)))
    return ChainVector(complex, p, tuple(coords))


def homology(complex: ConormalChainComplex) -> HomologyResult:
    """Exact per-degree homology over the coefficient group.

    Computed summand by summand, then cross-checked against the assembly
    (H_p(Z) tensor G) + Tor(H_{p-1}(Z), G); a mismatch raises.
    """
    G = complex.coefficient
    integer_results = {}
    for p in complex.degrees:
        integer_results[p] = _homology_gens(
            complex.boundary[p], complex.boundary_or_zero(p + 1), 0
        )
    groups: dict[int, FGAbelianGroup] = {}
    representatives: dict[int, list[ChainVector]] = {}
    for p in complex.degrees:
        by_modulus = {0: integer_results[p]}
        for c in set(G.torsion):
            by_modulus[c] = _homology_gens(
                complex.boundary[p], complex.boundary_or_zero(p + 1), c
            )
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
    result = HomologyResult(complex, groups, representatives, (FGAbelianGroup(0),) * 2)
    result.periodized = periodize(result)
    return result


def periodize(result: HomologyResult) -> tuple[FGAbelianGroup, FGAbelianGroup]:
    """(even-degree sum, odd-degree sum) of the homology groups."""
    even = direct_sum(*(g for p, g in sorted(result.groups.items()) if p % 2 == 0))
    odd = direct_sum(*(g for p, g in sorted(result.groups.items()) if p % 2 == 1))
    return even, odd


# ---------------------------------------------------------------------------
# periodized presentations and exactness checking
#
# For one cyclic coefficient c (0 meaning Z) and one parity of one pair, the
# periodized homology is presented as L / M inside the stacked chain module:
# L spans the (lifted) cycles, M the boundaries plus c-multiples.  All maps in
# the six-term sequence act by integer block matrices, so exactness at a node
# is an equality of integer lattices, decided by solving in both directions.


@dataclass
class _Presentation:
    cycles: IntegerHom  # n x k basis
    relations: IntegerHom  # n x g generators

    @property
    def n(self) -> int:
        return self.cycles.rows


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
    width = sum(n for _, n in src)
    entries = [[0] * width for _ in range(sum(n for _, n in tgt))]
    for (p, q), mat in parts.items():
        if p in src_at and q in tgt_at:
            for i, row in enumerate(mat.entries):
                entries[tgt_at[q] + i][src_at[p] : src_at[p] + mat.cols] = row
    return IntegerHom.from_rows(entries, width=width)


def _block_diag(blocks, parts: dict[int, IntegerHom]) -> IntegerHom:
    """``parts[p]`` on the rows of the degree-p block, columns in block order."""
    columns = tuple((p, parts[p].cols) for p, _ in blocks)
    return _block_map(columns, blocks, {(p, p): parts[p] for p, _ in blocks})


def _presentation(complex: ConormalChainComplex, parity: int, c: int) -> _Presentation:
    blocks = _blocks(complex, parity)
    cycles, relations = {}, {}
    for p, _ in blocks:
        cycles[p], relations[p], _ = _lattices(
            complex.boundary[p], complex.boundary_or_zero(p + 1), c
        )
    return _Presentation(_block_diag(blocks, cycles), _block_diag(blocks, relations))


def _lattice_subset(gens_a: IntegerHom, gens_b: IntegerHom) -> bool:
    factored = Factorization(gens_b)
    return all(factored.contains(col) for col in gens_a.columns())


def _node_exact(
    f_in: IntegerHom,
    src: _Presentation,
    node: _Presentation,
    f_out: IntegerHom,
    tgt: _Presentation,
) -> bool:
    image = f_in.compose(src.cycles).hstack(node.relations)
    moved = f_out.compose(node.cycles)
    negated = IntegerHom.from_rows(
        [[-x for x in row] for row in tgt.relations.entries], width=tgt.relations.cols
    )
    combo_kernel = integer_kernel_basis(moved.hstack(negated))
    a_part = IntegerHom.from_rows(combo_kernel.entries[: node.cycles.cols], width=combo_kernel.cols)
    kernel = node.cycles.compose(a_part).hstack(node.relations)
    return _lattice_subset(image, kernel) and _lattice_subset(kernel, image)


_EMPTY_PRES = _Presentation(IntegerHom.zero(0, 0), IntegerHom.zero(0, 0))


def _exact_at(k: int, pres: list[_Presentation], arrows: tuple[IntegerHom, ...]) -> bool:
    """Exactness at node k of the cyclic sequence: arrow k - 1 comes in from
    node k - 1 and arrow k goes out to node k + 1 (mod 6)."""
    return _node_exact(arrows[k - 1], pres[k - 1], pres[k], arrows[k], pres[(k + 1) % 6])


def _periodized(
    poset: FacePoset, low: int, high: int, G: FGAbelianGroup
) -> tuple[FGAbelianGroup, FGAbelianGroup]:
    """(even, odd) periodized homology of the pair (X_high, X_low) of an
    already validated poset."""
    return homology(_build_complex(FilteredPair(poset, low, high), G)).periodized


@dataclass
class SixTermSequence:
    """The rolled-up exact sequence of a filtration triple q <= m <= l.

    ``groups`` holds the six nodes, ``maps`` the chain-level block matrices
    realizing the six arrows on representative cycles.  Construction verifies
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
    """Complexes of the pairs (X_m, X_q), (X_l, X_q), (X_l, X_m) of a triple
    of an already validated poset, its six nodes (complex, parity) in
    ``SixTermSequence.NODE_ORDER`` and its six arrows, arrow k from node k.

    Inclusions and projections are identities on the degrees both nodes
    stack.  The connecting arrows carry D_{m+1}, read from the (X_l, X_q)
    complex, the one of the three that does not zero it.
    """
    complexes = tuple(
        _build_complex(FilteredPair(poset, low, high), G) for low, high in ((q, m), (q, l), (m, l))
    )
    nodes = tuple((complex, parity) for parity in (1, 0) for complex in complexes)
    blocks = [_blocks(complex, parity) for complex, parity in nodes]
    connecting = {(m + 1, m): complexes[1].boundary[m + 1]} if q < m < l else {}
    arrows = []
    for k, src in enumerate(blocks):
        if k % 3 == 2:
            parts = connecting
        else:
            parts = {(p, p): IntegerHom.identity(n) for p, n in src}
        arrows.append(_block_map(src, blocks[(k + 1) % 6], parts))
    return complexes, nodes, tuple(arrows)


def six_term(poset: FacePoset, q: int, m: int, l: int, G: FGAbelianGroup) -> SixTermSequence:
    _check_triple(poset, q, m, l)
    complexes, nodes, arrows = _triple(poset, q, m, l, G)
    # one homology per pair; each node reads one parity of it
    periodized = [homology(complex).periodized for complex in complexes]
    groups = dict(zip(SixTermSequence.NODE_ORDER, (h[parity] for parity in (1, 0) for h in periodized)))
    for c in sorted(set(G.cyclic_summands())):
        pres = [_presentation(complex, parity, c) for complex, parity in nodes]
        for k, name in enumerate(SixTermSequence.NODE_ORDER):
            if not _exact_at(k, pres, arrows):
                raise InternalConsistencyError(
                    f"six-term sequence fails exactness at {name} with cyclic coefficient {c}"
                )
    return SixTermSequence(poset, q, m, l, G, groups, dict(zip(SixTermSequence.ARROW_ORDER, arrows)))


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
    if d < 1 or not poset.faces_of_codim(1):
        raise ValueError("the boundary sequence requires a nonempty boundary")

    # nodes 1-3 of the triple (-1, 0, d) are the three terms of the sequence;
    # node 0, H_1^pcn(X_0), is zero, so exactness at node 1 is injectivity
    complexes, nodes, arrows = _triple(poset, -1, 0, d, G)
    boundary_part, absolute, relative = (homology(complex).periodized for complex in complexes)
    for c in sorted(set(G.cyclic_summands())):
        pres = [_presentation(complex, parity, c) for complex, parity in nodes[:4]]
        onto = IntegerHom.zero(0, pres[3].n)
        checks = (
            _exact_at(1, pres, arrows),
            _exact_at(2, pres, arrows),
            _node_exact(arrows[2], pres[2], pres[3], onto, _EMPTY_PRES),
        )
        if not all(checks):
            raise InternalConsistencyError(
                f"boundary short exact sequence fails with cyclic coefficient {c}"
            )
    return BoundarySESReport(absolute[1], relative[1], boundary_part[0], True)
