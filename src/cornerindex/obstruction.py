"""Obstruction groups and vanishing decisions for codimension 1 and 2.

Face indices are inputs: computing them would take analytic index theory.
What is decided here is the reduction — pointwise vanishing in the top
codimension, plus (in codimension 2) vanishing of the codimension-1 index
vector as a relative homology class, certified by an explicit preimage chain.

Codimension 3 and higher is out of reach for this reduction strategy because
torsion can enter the relevant homology groups; callers get a clean error.
"""

from __future__ import annotations

from dataclasses import dataclass

from .abelian import (
    FGAbelianGroup,
    GroupElement,
    IntegerHom,
    direct_sum,
    power,
    solve,
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
    for e in codim1.values():
        if e.group != ktheory.k1:
            raise ValueError("codim-1 indices must live in K^1 of the base")
    for e in codim2.values():
        if e.group != ktheory.k0:
            raise ValueError("codim-2 indices must live in K^0 of the base")


@dataclass(frozen=True)
class VanishingVerdict:
    vanishes: bool
    failing_codim2: tuple[str, ...]
    failing_codim1: tuple[str, ...]
    codim1_class_vanishes: bool
    certificate: ChainVector | None


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
    if n1 < 1:
        raise ValueError("no codimension-1 faces")

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
    the codim-1 vector exactly.
    """
    require_valid(poset)
    if poset.codimension() != 2:
        raise UnsupportedCodimensionError("codim2_vanishes needs a codimension-2 poset")
    codim1, codim2 = datum.codim1(), datum.codim2()
    _check_datum(poset, ktheory, codim1, codim2)

    failing2 = tuple(
        f.id for f in poset.faces_of_codim(2) if not codim2[f.id].is_zero()
    )

    complex = build_complex(FilteredPair(poset, 0, 2), ktheory.k1)
    target = [codim1[fid] for fid in complex.bases[1]]
    coords = solve(complex.boundary[2], ktheory.k1, target, cancel=cancel)
    class_vanishes = coords is not None
    certificate = (
        ChainVector(complex, 2, tuple(coords)) if class_vanishes else None
    )
    return VanishingVerdict(
        vanishes=(not failing2) and class_vanishes,
        failing_codim2=failing2,
        failing_codim1=(),
        codim1_class_vanishes=class_vanishes,
        certificate=certificate,
    )


def connection_matrices(poset: FacePoset, p: int) -> IntegerHom:
    """The signed face-incidence matrix in codimension p, built pairwise from
    the relative signs and asserted against the chain differential."""
    require_valid(poset)
    d = poset.codimension()
    if not 1 <= p <= d:
        raise ValueError(f"p must lie in [1, {d}]")
    rows = poset.faces_of_codim(p - 1)
    cols = poset.faces_of_codim(p)
    entries = [
        [f.incidence_sign(g) for f in cols]
        for g in rows
    ]
    mat = IntegerHom.from_rows(entries, width=len(cols))
    if mat != incidence_matrix(poset, p):
        raise InternalConsistencyError(
            "pairwise relative signs disagree with the chain differential"
        )
    return mat
