"""Exact calculators for corner structures: face combinatorics, conormal
homology with coefficients, and boundary-index obstruction spaces."""

from .abelian import (
    FGAbelianGroup,
    GroupElement,
    IntegerHom,
    SNFDecomposition,
    cokernel,
    direct_sum,
    kernel_group,
    power,
    smith_normal_form,
    solve,
    tensor,
    tor,
)
from .faces import FacePoset, Face, FilteredPair, filtration, incidence_sign, validate
from .families import (
    FamilySpec,
    FiberAutomorphism,
    QuotientResult,
    check_embeddable,
    gallery,
    GALLERY_NAMES,
    quotient_family,
)
from .conormal import (
    ChainVector,
    ConormalChainComplex,
    HomologyResult,
    SixTermSequence,
    build_complex,
    connected_boundary_ses,
    connecting_map,
    homology,
    orientation_sign,
    periodize,
    six_term,
)
from .obstruction import (
    KTheoryInput,
    ObstructionReport,
    SymbolDatum,
    VanishingVerdict,
    codim1_groups,
    codim1_vanishes,
    codim2_obstruction_space,
    codim2_vanishes,
    connection_matrices,
)

__all__ = [name for name in dir() if not name.startswith("_")]
