"""Obstruction groups and vanishing decisions for codimension 1 and 2.

Face indices are inputs: computing them would take analytic index theory.
What is decided here is the reduction — pointwise vanishing in the top
codimension, plus (in codimension 2) vanishing of the codimension-1 index
vector as a relative homology class, certified either way: by an explicit
preimage chain, or by a functional that kills every boundary but not the
index vector.

Codimension 2 is a graph problem.  A valid corner with sorted tuple (i, j)
has two distinct codim-1 parents, and in the relative complex (X_2, X_0)
its column of D_2 holds +1 at the parent dropping i, -1 at the parent
dropping j and 0 elsewhere.  So D_2 is the incidence matrix of a directed
graph Γ, the corner graph: its vertices are the codim-1 faces and its edges
the corners.  Such a matrix is totally unimodular (Schrijver, *Theory of
Linear and Integer Programming*, §19.3), and for every coefficient group G

    H_1(X_2, X_0; G) = G^c(Γ),   c(Γ) the number of components of Γ,
    H_2(X_2, X_0; G) = G^b_1(Γ), b_1(Γ) = E - V + c(Γ).

The codim-1 index vector b is a boundary iff on every component of Γ the
indices sum to 0 in K^1(B).  :func:`codim2_vanishes` decides this by a
spanning-forest solve: in each slot of K^1 a sweep from the leaves to the
root fixes the tree edges one by one, and the root is left holding its
component's sum.  A positive verdict's chain x is checked by D_2 x = b over
the corners' parent pairs; a negative verdict's functional, the indicator
of the failing component, is checked to vanish on every column of D_2 and
not on b.  Both checks are plain integer sums.  The graph and its forest
depend on the poset alone, so they are built once per poset object and kept
on it, as is D_2 (see ``conormal.incidence_matrix``); nothing of a verdict
is kept, and both certificate checks run on every verdict.  Whether every
codim-2 index is zero is one test over all their coordinates; the failing
corners are listed, in declaration order, only when it fails.

Codimension 3 and higher is out of reach for this reduction strategy because
torsion can enter the relevant homology groups; callers get a clean error.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple

from .abelian import (
    FGAbelianGroup,
    GroupElement,
    IntegerHom,
    congruent,
    direct_sum,
    in_group,
    power,
)
from .conormal import (
    ChainVector,
    InternalConsistencyError,
    _periodized,
    build_complex,
    incidence_matrix,
)
from .faces import FacePoset, FilteredPair, require_valid

MIDDLE_EXACT_SPLITS = "exact_splits"
MIDDLE_LEFT_TRIVIAL = "left_trivial"
MIDDLE_UNDETERMINED = "undetermined_extension"


class UnsupportedCodimensionError(ValueError):
    """The poset's codimension is outside the supported range {1, 2}."""


@dataclass(frozen=True)
class KTheoryInput:
    """K-theory of the base in both degrees; values are caller-supplied.

    The point and circle presets carry the textbook values; they are declared
    constants, not computed.
    """

    k0: FGAbelianGroup
    k1: FGAbelianGroup
    label: str = ""

    @classmethod
    def point(cls) -> "KTheoryInput":
        return cls(FGAbelianGroup(1), FGAbelianGroup(0), "point")

    @classmethod
    def circle(cls) -> "KTheoryInput":
        return cls(FGAbelianGroup(1), FGAbelianGroup(1), "circle")

    def by_degree(self, i: int) -> FGAbelianGroup:
        return self.k0 if i % 2 == 0 else self.k1


@dataclass(frozen=True)
class SymbolDatum:
    """Face-restricted index values of a symbol: one element of K^1(B) per
    codim-1 face and one element of K^0(B) per codim-2 face."""

    codim1_indices: tuple[tuple[str, GroupElement], ...]
    codim2_indices: tuple[tuple[str, GroupElement], ...] = ()

    @classmethod
    def build(cls, codim1: dict, codim2: dict | None = None) -> "SymbolDatum":
        return cls(
            tuple(sorted(codim1.items())),
            tuple(sorted((codim2 or {}).items())),
        )

    def codim1(self) -> dict[str, GroupElement]:
        return dict(self.codim1_indices)

    def codim2(self) -> dict[str, GroupElement]:
        return dict(self.codim2_indices)


def _check_datum(poset: FacePoset, ktheory: KTheoryInput, codim1: dict, codim2: dict) -> None:
    want1 = {f.id for f in poset.faces_of_codim(1)}
    want2 = {f.id for f in poset.faces_of_codim(2)}
    if set(codim1) != want1:
        raise ValueError("codim-1 index keys must be exactly the codim-1 faces")
    if set(codim2) != want2:
        raise ValueError("codim-2 index keys must be exactly the codim-2 faces")
    if not in_group(codim1.values(), ktheory.k1):
        raise ValueError("codim-1 indices must live in K^1 of the base")
    if not in_group(codim2.values(), ktheory.k0):
        raise ValueError("codim-2 indices must live in K^0 of the base")


@dataclass(frozen=True)
class VanishingVerdict:
    """``certificate`` is the preimage chain of a vanishing codim-1 class;
    ``witness`` lists the codim-1 faces of a corner-graph component whose
    indices do not sum to zero when the class does not vanish."""

    vanishes: bool
    failing_codim2: tuple[str, ...]
    failing_codim1: tuple[str, ...]
    codim1_class_vanishes: bool
    certificate: ChainVector | None
    witness: tuple[str, ...] | None = None


@dataclass(frozen=True)
class ObstructionReport:
    left: FGAbelianGroup
    right: FGAbelianGroup
    middle: FGAbelianGroup | None
    middle_status: str


@dataclass(frozen=True)
class Codim1Groups:
    """Obstruction groups of a connected codimension-1 family, per K-degree."""

    ka0: tuple[FGAbelianGroup, FGAbelianGroup]
    ka1_over_a0: tuple[FGAbelianGroup, FGAbelianGroup]
    ka1: tuple[FGAbelianGroup, FGAbelianGroup]


def codim1_groups(poset: FacePoset, ktheory: KTheoryInput) -> Codim1Groups:
    """Closed formulas for K_*(A_0), K_*(A_1/A_0), K_*(A_1), cross-checked
    against the homology computation they are isomorphic to."""
    require_valid(poset)
    if not poset.connected:
        raise ValueError("the codimension-1 formulas require a connected poset")
    if poset.codimension() != 1:
        raise UnsupportedCodimensionError("codim1_groups needs a codimension-1 poset")
    n0 = len(poset.faces_of_codim(0))
    n1 = len(poset.faces_of_codim(1))

    ka0 = tuple(power(ktheory.by_degree(i), n0) for i in (0, 1))
    ka1_over_a0 = tuple(power(ktheory.by_degree(1 - i), n1) for i in (0, 1))
    ka1 = tuple(power(ktheory.by_degree(1 - i), n1 - 1) for i in (0, 1))

    # one homology per (pair, group); K^0 and K^1 often coincide
    periodized = {
        (low, high, G): _periodized(poset, low, high, G)
        for low, high in ((-1, 0), (0, 1), (-1, 1))
        for G in {ktheory.k0, ktheory.k1}
    }
    for i in (0, 1):
        checks = (
            (ka0[i], periodized[(-1, 0, ktheory.by_degree(i))][0]),
            (ka1_over_a0[i], periodized[(0, 1, ktheory.by_degree(1 - i))][1]),
            (ka1[i], periodized[(-1, 1, ktheory.by_degree(1 - i))][1]),
        )
        for formula, computed in checks:
            if formula != computed:
                raise InternalConsistencyError(
                    f"codimension-1 formula {formula} disagrees with homology {computed}"
                )
    return Codim1Groups(ka0, ka1_over_a0, ka1)


def codim1_vanishes(
    poset: FacePoset, ktheory: KTheoryInput, datum: SymbolDatum
) -> VanishingVerdict:
    """The boundary index vanishes iff every codim-1 face index is zero."""
    require_valid(poset)
    if poset.codimension() != 1:
        raise UnsupportedCodimensionError("codim1_vanishes needs a codimension-1 poset")
    codim1 = datum.codim1()
    _check_datum(poset, ktheory, codim1, datum.codim2())
    failing = tuple(
        f.id for f in poset.faces_of_codim(1) if not codim1[f.id].is_zero()
    )
    ok = not failing
    return VanishingVerdict(
        vanishes=ok,
        failing_codim2=(),
        failing_codim1=failing,
        codim1_class_vanishes=ok,
        certificate=None,
        witness=None,
    )


def codim2_obstruction_space(poset: FacePoset, ktheory: KTheoryInput) -> ObstructionReport:
    """End terms of the obstruction-space extension, and the middle when it
    is determined.

    The middle is reported when the left term is trivial (middle = right) or
    when the right term is free, in which case the extension splits - a
    standard fact about extensions by a free group, used here as a lemma.
    Otherwise the extension class is genuinely undetermined and the report
    says so instead of guessing.
    """
    require_valid(poset)
    if not poset.connected:
        raise ValueError("the codimension-2 theorem requires a connected poset")
    if poset.codimension() != 2:
        raise UnsupportedCodimensionError("codim2_obstruction_space needs codimension 2")
    periodized = {G: _periodized(poset, 0, 2, G) for G in {ktheory.k0, ktheory.k1}}
    left = periodized[ktheory.k1][1]
    right = periodized[ktheory.k0][0]
    graph = _corner_graph(poset)
    for formula, computed in (
        (power(ktheory.k1, len(graph.roots)), left),
        (power(ktheory.k0, graph.betti1), right),
    ):
        if formula != computed:
            raise InternalConsistencyError(
                f"corner-graph closed form {formula} disagrees with homology {computed}"
            )
    if left.is_trivial():
        return ObstructionReport(left, right, right, MIDDLE_LEFT_TRIVIAL)
    if not right.torsion:
        return ObstructionReport(left, right, direct_sum(left, right), MIDDLE_EXACT_SPLITS)
    return ObstructionReport(left, right, None, MIDDLE_UNDETERMINED)


def codim2_vanishes(
    poset: FacePoset,
    ktheory: KTheoryInput,
    datum: SymbolDatum,
    cancel=None,
) -> VanishingVerdict:
    """Boundary-index vanishing for codimension 2.

    Requires every codim-2 index to be zero and the codim-1 index vector,
    read as a 1-chain with K^1(B) coefficients, to be a boundary of the
    relative complex (every 1-chain is a relative cycle there).  On success
    the preimage 2-chain is returned; applying the boundary to it reproduces
    the codim-1 vector exactly.  Otherwise ``witness`` names the codim-1
    faces of the first corner-graph component, in the order of their first
    faces, whose indices do not sum to zero.  ``cancel``, when given, is
    polled once per slot of K^1 and once per component read, and aborts by
    raising the callable's exception.
    """
    require_valid(poset)
    if poset.codimension() != 2:
        raise UnsupportedCodimensionError("codim2_vanishes needs a codimension-2 poset")
    codim1, codim2 = datum.codim1(), datum.codim2()
    _check_datum(poset, ktheory, codim1, codim2)

    failing2 = ()
    if any(chain.from_iterable([e.free + e.tors for e in codim2.values()])):
        failing2 = tuple(
            f.id for f in poset.faces_of_codim(2) if not codim2[f.id].is_zero()
        )

    graph = _corner_graph(poset)
    coords, witness = _forest_solve(graph, ktheory.k1, [codim1[v] for v in graph.vertices], cancel)
    class_vanishes = coords is not None
    certificate = (
        ChainVector(build_complex(FilteredPair(poset, 0, 2), ktheory.k1), 2, coords)
        if class_vanishes
        else None
    )
    return VanishingVerdict(
        vanishes=(not failing2) and class_vanishes,
        failing_codim2=failing2,
        failing_codim1=(),
        codim1_class_vanishes=class_vanishes,
        certificate=certificate,
        witness=witness,
    )


class _CornerGraph(NamedTuple):
    """The corner graph Γ of a codimension-2 poset and its BFS forest.

    Vertex v is the v-th codim-1 face and edge e the e-th corner, both in
    declaration order; edge e runs from ``ends[e][0]`` (D_2 entry +1) to
    ``ends[e][1]`` (entry -1).  The forest is found by BFS in declaration
    order from the first face of each component, its root.  ``sweep`` holds
    (v, e, s, u) for every non-root vertex v, leaves first: e is the tree
    edge joining v to its BFS parent u and s = D_2[v, e].
    """

    vertices: tuple[str, ...]
    ends: tuple[tuple[int, int], ...]
    roots: tuple[int, ...]
    component: tuple[int, ...]  # component number of each vertex
    sweep: tuple[tuple[int, int, int, int], ...]

    @property
    def betti1(self) -> int:
        return len(self.ends) - len(self.vertices) + len(self.roots)


def _corner_graph(poset: FacePoset) -> _CornerGraph:
    """The corner graph, built on the first read and kept in the poset's
    derived-structure memo; a poset it rejects stores nothing."""
    memo = poset._derived_memo
    if "corner_graph" not in memo:
        memo["corner_graph"] = _build_corner_graph(poset)
    return memo["corner_graph"]


def _build_corner_graph(poset: FacePoset) -> _CornerGraph:
    vertices = poset.faces_of_codim(1)
    position = {f.id: v for v, f in enumerate(vertices)}
    ends = []
    adjacent: list[list[tuple[int, int, int]]] = [[] for _ in vertices]
    for e, f in enumerate(poset.faces_of_codim(2)):
        # the sign rule of incidence_matrix: parent 0 carries +1, parent 1 -1
        try:
            (_, plus), (_, minus) = f.parents
            a, b = position[plus], position[minus]
        except (ValueError, KeyError):
            a = b = None
        if a is None or a == b:
            raise InternalConsistencyError(
                f"the D_2 column of corner {f.id} is not one +1 and one -1"
            )
        ends.append((a, b))
        adjacent[a].append((b, e, -1))
        adjacent[b].append((a, e, 1))
    component = [-1] * len(vertices)
    roots: list[int] = []
    down = []  # (v, e, s, u) in BFS order
    for r in range(len(vertices)):
        if component[r] >= 0:
            continue
        component[r] = len(roots)
        queue = [r]
        for u in queue:
            for v, e, s in adjacent[u]:
                if component[v] < 0:
                    component[v] = len(roots)
                    queue.append(v)
                    down.append((v, e, s, u))
        roots.append(r)
    return _CornerGraph(
        tuple(f.id for f in vertices), tuple(ends), tuple(roots), tuple(component), tuple(reversed(down))
    )


def _forest_solve(graph: _CornerGraph, group: FGAbelianGroup, target: list[GroupElement], cancel):
    """(x, None) with D_2 x = target in group^E, or (None, witness).

    Each slot of the group is one integer system, over Z for a free slot and
    mod d for an invariant factor d.  Solving vertex v's equation fixes its
    tree edge, x_e = s * r_v, and hands v's residual r_v on to its parent, so
    each root ends up holding its component's sum and x is 0 off the forest.
    """
    slots = group.split(target)
    solutions = []
    for values, d in slots:
        if cancel is not None:
            cancel()
        residual = list(values)
        x = [0] * len(graph.ends)
        for v, e, s, u in graph.sweep:
            x[e] = s * residual[v]
            residual[u] += residual[v]
        solutions.append((x, [residual[r] % d if d else residual[r] for r in graph.roots]))
    for c in range(len(graph.roots)):
        if cancel is not None:
            cancel()
        for (values, d), (_, sums) in zip(slots, solutions):
            if sums[c]:
                return None, _component_witness(graph, c, values, d)
    for (values, d), (x, _) in zip(slots, solutions):
        image = [0] * len(values)
        for (a, b), xe in zip(graph.ends, x):
            image[a] += xe
            image[b] -= xe
        if not congruent(image, values, d):
            raise InternalConsistencyError("forest solve produced x with D_2 x != target")
    return tuple(group.join([x for x, _ in solutions], len(graph.ends))), None


def _component_witness(graph: _CornerGraph, c: int, values: list[int], d: int) -> tuple[str, ...]:
    """The faces of component c, once its indicator phi is checked to kill
    every column of D_2 and not the slot ``values`` (mod d when d > 0)."""
    phi = [int(k == c) for k in graph.component]
    if any(phi[a] - phi[b] for a, b in graph.ends):
        raise InternalConsistencyError(f"component {c} indicator does not kill D_2")
    total = sum(p * w for p, w in zip(phi, values))
    if not (total % d if d else total):
        raise InternalConsistencyError(f"component {c} indicator kills the index vector")
    return tuple(fid for fid, p in zip(graph.vertices, phi) if p)


def connection_matrices(poset: FacePoset, p: int) -> IntegerHom:
    """The signed face-incidence matrix in codimension p, each column read
    off a codim-p face's own parents with every sign taken from
    ``Face.incidence_sign``, and asserted against the chain differential."""
    require_valid(poset)
    d = poset.codimension()
    if not 1 <= p <= d:
        raise ValueError(f"p must lie in [1, {d}]")
    rows = poset.faces_of_codim(p - 1)
    row_of = {g.id: (r, g) for r, g in enumerate(rows)}
    columns = []
    for f in poset.faces_of_codim(p):
        column = []
        for _, gid in f.parents:
            r, g = row_of[gid]
            sign = f.incidence_sign(g)
            if sign:
                column.append((r, sign))
        columns.append(tuple(sorted(column)))
    mat = IntegerHom(len(rows), len(columns), tuple(columns))
    if mat != incidence_matrix(poset, p):
        raise InternalConsistencyError(
            "pairwise relative signs disagree with the chain differential"
        )
    return mat
