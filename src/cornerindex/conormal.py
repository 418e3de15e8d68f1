"""Conormal chain complexes with coefficients and their exact homology.

A complex is built from a filtered pair (X_l, X_m): chain modules are free on
the faces of each codimension p in (m, l], the differential is the signed
incidence matrix, and degrees that fall into the quotiented range are zeroed.

Homology over a coefficient group G is computed twice on purpose: directly,
summand by summand, and through the universal-coefficient assembly from
integer homology.  Disagreement raises :class:`InternalConsistencyError`,
which always indicates a bug rather than bad input.  The same philosophy
applies to six-term sequences: exactness is a theorem, so a failed check
raises instead of reporting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    lattice_column_basis,
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


def _from_columns(cols: list[list[int]], rows: int) -> IntegerHom:
    return IntegerHom.from_rows(
        [[c[i] for c in cols] for i in range(rows)], width=len(cols)
    )


def _hstack_hom(a: IntegerHom, b: IntegerHom) -> IntegerHom:
    if a.rows != b.rows:
        raise ValueError("row mismatch")
    return IntegerHom.from_rows(
        [list(ra) + list(rb) for ra, rb in zip(a.entries, b.entries)],
        width=a.cols + b.cols,
    )


def _scaled_identity(n: int, c: int) -> IntegerHom:
    return IntegerHom.from_rows(
        [[c if i == j else 0 for j in range(n)] for i in range(n)], width=n
    )


def _integer_homology_gens(Dp: IntegerHom, Dp1: IntegerHom):
    """Homology ker(Dp)/im(Dp1) over Z, with generating cycles and orders."""
    kernel = integer_kernel_basis(Dp)
    factored = Factorization(kernel)
    cols = []
    for b in Dp1.columns():
        y = factored.solve(b)
        if y is None:
            raise InternalConsistencyError("a boundary column is not a cycle")
        cols.append(y)
    presentation = _from_columns(cols, kernel.cols)
    group, gens = cokernel_presentation(presentation)
    reps = [(kernel.apply_int(g), order) for g, order in gens]
    return group, reps


def _mod_cycle_basis(Dp: IntegerHom, c: int) -> IntegerHom:
    """Basis of the lattice {x : Dp x = 0 mod c}; always full rank."""
    lifted = _hstack_hom(Dp, _scaled_identity(Dp.rows, c))
    full = integer_kernel_basis(lifted)
    top = IntegerHom.from_rows([list(full.entries[i]) for i in range(Dp.cols)], width=full.cols)
    basis = lattice_column_basis(top)
    if basis.cols != Dp.cols:
        raise InternalConsistencyError("cycle lattice mod c is not full rank")
    return basis


def _modular_homology_gens(Dp: IntegerHom, Dp1: IntegerHom, c: int):
    """Homology over Z/c via integer lattices: cycles mod c over boundaries + c."""
    n = Dp.cols
    basis = _mod_cycle_basis(Dp, c)
    kill = _hstack_hom(Dp1, _scaled_identity(n, c))
    factored = Factorization(basis)
    cols = []
    for b in kill.columns():
        y = factored.solve(b)
        if y is None:
            raise InternalConsistencyError("boundary lattice escapes the cycle lattice")
        cols.append(y)
    presentation = _from_columns(cols, basis.cols)
    group, gens = cokernel_presentation(presentation)
    reps = [([x % c for x in basis.apply_int(g)], order) for g, order in gens]
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
        integer_results[p] = _integer_homology_gens(
            complex.boundary[p], complex.boundary_or_zero(p + 1)
        )
    groups: dict[int, FGAbelianGroup] = {}
    representatives: dict[int, list[ChainVector]] = {}
    for p in complex.degrees:
        by_modulus = {0: integer_results[p]}
        for c in set(G.torsion):
            by_modulus[c] = _modular_homology_gens(
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
class _Layout:
    blocks: tuple[tuple[int, int], ...]  # (degree, size)
    n: int


@dataclass
class _Presentation(_Layout):
    cycles: IntegerHom  # n x k basis
    relations: IntegerHom  # n x g generators


def _block_diag(parts: list[IntegerHom], sizes: list[int]) -> IntegerHom:
    total_rows = sum(sizes)
    total_cols = sum(p.cols for p in parts)
    entries = [[0] * total_cols for _ in range(total_rows)]
    r_off = 0
    c_off = 0
    for part, size in zip(parts, sizes):
        for i in range(part.rows):
            row = entries[r_off + i]
            for j in range(part.cols):
                row[c_off + j] = part.entries[i][j]
        r_off += size
        c_off += part.cols
    return IntegerHom.from_rows(entries, width=total_cols)


def _layout(poset: FacePoset, low: int, high: int, parity: int) -> _Layout:
    """The chain modules of the pair in one parity, stacked."""
    blocks = tuple(
        (p, len(poset.faces_of_codim(p))) for p in range(low + 1, high + 1) if p % 2 == parity
    )
    return _Layout(blocks, sum(size for _, size in blocks))


def _presentation(poset: FacePoset, low: int, high: int, parity: int, c: int) -> _Presentation:
    layout = _layout(poset, low, high, parity)
    cycle_parts = []
    relation_parts = []
    for p, n_p in layout.blocks:
        Dp = incidence_matrix(poset, p)
        if p - 1 <= low:
            Dp = IntegerHom.zero(Dp.rows, Dp.cols)
        Dp1 = incidence_matrix(poset, p + 1) if p + 1 <= high else IntegerHom.zero(n_p, 0)
        if c == 0:
            cycle_parts.append(integer_kernel_basis(Dp))
            relation_parts.append(Dp1)
        else:
            cycle_parts.append(_mod_cycle_basis(Dp, c))
            relation_parts.append(_hstack_hom(Dp1, _scaled_identity(n_p, c)))
    sizes = [s for _, s in layout.blocks]
    return _Presentation(
        blocks=layout.blocks,
        n=layout.n,
        cycles=_block_diag(cycle_parts, sizes),
        relations=_block_diag(relation_parts, sizes),
    )


def _degree_identity_map(src: _Layout, tgt: _Layout) -> IntegerHom:
    entries = [[0] * src.n for _ in range(tgt.n)]
    src_off = 0
    for degree, size in src.blocks:
        tgt_off = 0
        for t_degree, t_size in tgt.blocks:
            if t_degree == degree:
                for i in range(size):
                    entries[tgt_off + i][src_off + i] = 1
            tgt_off += t_size
        src_off += size
    return IntegerHom.from_rows(entries, width=src.n)


def _connecting_chain_map(src: _Layout, tgt: _Layout, poset: FacePoset, m: int) -> IntegerHom:
    entries = [[0] * src.n for _ in range(tgt.n)]
    src_off = 0
    for degree, size in src.blocks:
        if degree == m + 1:
            tgt_off = 0
            for t_degree, t_size in tgt.blocks:
                if t_degree == m:
                    mat = incidence_matrix(poset, m + 1)
                    for i in range(mat.rows):
                        for j in range(mat.cols):
                            entries[tgt_off + i][src_off + j] = mat.entries[i][j]
                tgt_off += t_size
        src_off += size
    return IntegerHom.from_rows(entries, width=src.n)


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
    image = _hstack_hom(f_in.compose(src.cycles), node.relations)
    moved = f_out.compose(node.cycles)
    negated = IntegerHom.from_rows(
        [[-x for x in row] for row in tgt.relations.entries], width=tgt.relations.cols
    )
    combined = _hstack_hom(moved, negated)
    combo_kernel = integer_kernel_basis(combined)
    a_part = IntegerHom.from_rows(
        [list(combo_kernel.entries[i]) for i in range(node.cycles.cols)],
        width=combo_kernel.cols,
    )
    kernel = _hstack_hom(node.cycles.compose(a_part), node.relations)
    return _lattice_subset(image, kernel) and _lattice_subset(kernel, image)


_EMPTY_PRES = _Presentation((), 0, IntegerHom.zero(0, 0), IntegerHom.zero(0, 0))


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


def six_term(poset: FacePoset, q: int, m: int, l: int, G: FGAbelianGroup) -> SixTermSequence:
    require_valid(poset)
    d = poset.codimension()
    if not (-1 <= q <= m <= l <= d):
        raise ValueError(f"triple ({q}, {m}, {l}) violates -1 <= q <= m <= l <= {d}")

    pairs = {"mq": (q, m), "lq": (q, l), "lm": (m, l)}
    # one homology per pair; each node reads one parity of it
    periodized = {tag: _periodized(poset, low, high, G) for tag, (low, high) in pairs.items()}
    groups = {f"h{parity}_{tag}": periodized[tag][parity] for parity in (1, 0) for tag in pairs}

    # the chain-level matrices depend only on the block layout, not on G
    layouts = {(tag, parity): _layout(poset, *pairs[tag], parity) for parity in (1, 0) for tag in pairs}
    arrows = {
        "i1": (("mq", 1), ("lq", 1), _degree_identity_map(layouts[("mq", 1)], layouts[("lq", 1)])),
        "p1": (("lq", 1), ("lm", 1), _degree_identity_map(layouts[("lq", 1)], layouts[("lm", 1)])),
        "d1": (("lm", 1), ("mq", 0), _connecting_chain_map(layouts[("lm", 1)], layouts[("mq", 0)], poset, m)),
        "i0": (("mq", 0), ("lq", 0), _degree_identity_map(layouts[("mq", 0)], layouts[("lq", 0)])),
        "p0": (("lq", 0), ("lm", 0), _degree_identity_map(layouts[("lq", 0)], layouts[("lm", 0)])),
        "d0": (("lm", 0), ("mq", 1), _connecting_chain_map(layouts[("lm", 0)], layouts[("mq", 1)], poset, m)),
    }
    maps = {name: mat for name, (_, _, mat) in arrows.items()}

    node_wiring = {
        ("mq", 1): ("d0", "i1"),
        ("lq", 1): ("i1", "p1"),
        ("lm", 1): ("p1", "d1"),
        ("mq", 0): ("d1", "i0"),
        ("lq", 0): ("i0", "p0"),
        ("lm", 0): ("p0", "d0"),
    }
    for c in sorted(set(G.cyclic_summands())):
        pres = {key: _presentation(poset, *pairs[key[0]], key[1], c) for key in layouts}
        for node_key, (in_name, out_name) in node_wiring.items():
            in_src, _, in_mat = arrows[in_name]
            _, out_tgt, out_mat = arrows[out_name]
            if not _node_exact(in_mat, pres[in_src], pres[node_key], out_mat, pres[out_tgt]):
                raise InternalConsistencyError(
                    f"six-term sequence fails exactness at {node_key} with cyclic coefficient {c}"
                )
    return SixTermSequence(poset, q, m, l, G, groups, maps)


def connecting_map(poset: FacePoset, q: int, m: int, l: int, G: FGAbelianGroup) -> IntegerHom:
    """Chain-level realization of the connecting homomorphism of the triple.

    Nonzero only from degree m+1 to degree m, where it is the signed incidence
    matrix; the coefficient group does not change the matrix.
    """
    require_valid(poset)
    d = poset.codimension()
    if not (-1 <= q <= m <= l <= d):
        raise ValueError(f"triple ({q}, {m}, {l}) violates -1 <= q <= m <= l <= {d}")
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

    left = _periodized(poset, -1, d, G)[1]
    middle = _periodized(poset, 0, d, G)[1]
    right = _periodized(poset, -1, 0, G)[0]

    include = _degree_identity_map(_layout(poset, -1, d, 1), _layout(poset, 0, d, 1))
    connect = _connecting_chain_map(_layout(poset, 0, d, 1), _layout(poset, -1, 0, 0), poset, 0)
    for c in sorted(set(G.cyclic_summands())):
        absolute = _presentation(poset, -1, d, 1, c)
        relative = _presentation(poset, 0, d, 1, c)
        boundary_part = _presentation(poset, -1, 0, 0, c)
        into_left = IntegerHom.zero(absolute.n, 0)
        out_of_right = IntegerHom.zero(0, boundary_part.n)
        checks = (
            _node_exact(into_left, _EMPTY_PRES, absolute, include, relative),
            _node_exact(include, absolute, relative, connect, boundary_part),
            _node_exact(connect, relative, boundary_part, out_of_right, _EMPTY_PRES),
        )
        if not all(checks):
            raise InternalConsistencyError(
                f"boundary short exact sequence fails with cyclic coefficient {c}"
            )
    return BoundarySESReport(left, middle, right, True)
