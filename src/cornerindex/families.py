"""Corner families as fiber posets with monodromy generators.

Only the discrete part of the transition data matters for the total face
structure: the group generated by the declared automorphisms acts on fiber
faces and hypersurfaces, and total faces are its orbits.  Whether the quotient
again carries embedded corners is a pure combinatorial test: a total face must
meet pairwise distinct total hypersurfaces.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from .abelian import InternalConsistencyError
from .faces import Face, FacePoset, require_valid, validate

GALLERY_NAMES = (
    "trivial_interval",
    "trivial_square",
    "mobius",
    "half_twist_square",
    "quarter_twist_square",
)


@dataclass(frozen=True)
class FiberAutomorphism:
    """A face bijection together with the hypersurface permutation it induces."""

    face_map: tuple[tuple[str, str], ...]
    hypersurface_map: tuple[tuple[str, str], ...]

    @classmethod
    def build(cls, face_map: dict, hypersurface_map: dict) -> "FiberAutomorphism":
        return cls(tuple(sorted(face_map.items())), tuple(sorted(hypersurface_map.items())))

    def faces(self) -> dict[str, str]:
        return dict(self.face_map)

    def hypersurfaces(self) -> dict[str, str]:
        return dict(self.hypersurface_map)


def validate_automorphism(fiber: FacePoset, aut: FiberAutomorphism) -> list[str]:
    """Violations of the automorphism axioms against the given fiber poset.

    The fiber must be valid (:func:`require_valid` raises otherwise), so
    each face's parents run in the order of its sorted index tuple."""
    require_valid(fiber)
    violations = []
    fmap = aut.faces()
    smap = aut.hypersurfaces()
    by_id = fiber._id_index
    face_ids = by_id.keys()
    if face_ids != set(fmap) or face_ids != set(fmap.values()):
        violations.append("face-map: not a bijection of the fiber faces")
        return violations
    hyps = set(fiber.hypersurfaces)
    if set(smap) != hyps or set(smap.values()) != hyps:
        violations.append("hypersurface-map: not a bijection of the hypersurfaces")
        return violations
    for f in fiber.faces:
        image = by_id[fmap[f.id]]
        if image.codim != f.codim:
            violations.append(f"codim-change: {f.id} -> {image.id}")
            continue
        if tuple(sorted(smap[i] for i in f.index_tuple)) != image.index_tuple:
            violations.append(f"tuple-mismatch: {f.id} -> {image.id}")
            continue
        for i, gid in f.parents:
            # the image's parent for smap[i] sits at that index's position
            image_parent = image.parents[bisect_left(image.index_tuple, smap[i])][1]
            if fmap[gid] != image_parent:
                violations.append(f"parent-mismatch: {f.id} at index {i}")
    return violations


@dataclass(frozen=True)
class FamilySpec:
    fiber: FacePoset
    generators: tuple[FiberAutomorphism, ...]
    base_label: str = ""


@dataclass(frozen=True)
class QuotientResult:
    """Total face poset of the family plus the orbit projections.

    The total poset may fail validation (repeated index entries) exactly when
    the family cannot be endowed with embedded corners.
    """

    total: FacePoset
    orbit_map: tuple[tuple[str, str], ...]
    hypersurface_orbit_map: tuple[tuple[str, str], ...]


def _orbits(items: list[str], maps: list[dict[str, str]]) -> dict[str, str]:
    """Breadth-first closure under the generators; representative = first item
    of the orbit in declaration order."""
    rep: dict[str, str] = {}
    for start in items:
        if start in rep:
            continue
        rep[start] = start
        frontier = [start]
        while frontier:
            nxt = []
            for x in frontier:
                for m in maps:
                    y = m[x]
                    if y not in rep:
                        rep[y] = start
                        nxt.append(y)
            frontier = nxt
    return rep


def quotient_family(spec: FamilySpec) -> QuotientResult:
    """Total faces and hypersurfaces as orbits of the generated group."""
    require_valid(spec.fiber)
    for aut in spec.generators:
        problems = validate_automorphism(spec.fiber, aut)
        if problems:
            raise ValueError("generator is not a fiber automorphism: " + "; ".join(problems))

    face_ids = [f.id for f in spec.fiber.faces]
    face_rep = _orbits(face_ids, [g.faces() for g in spec.generators])
    hyp_rep = _orbits(list(spec.fiber.hypersurfaces), [g.hypersurfaces() for g in spec.generators])

    total_hyps = []
    for h in spec.fiber.hypersurfaces:
        if hyp_rep[h] == h:
            total_hyps.append(h)

    total_faces = []
    for f in spec.fiber.faces:
        if face_rep[f.id] != f.id:
            continue
        tup = tuple(sorted(hyp_rep[i] for i in f.index_tuple))
        parents = {}
        for i, gid in f.parents:
            h = hyp_rep[i]
            if h not in parents:  # lowest fiber index wins when orbits repeat
                parents[h] = face_rep[gid]
        total_faces.append(Face(f.id, f.codim, tup, parents))

    total = FacePoset(tuple(total_hyps), tuple(total_faces), spec.fiber.connected)
    return QuotientResult(
        total=total,
        orbit_map=tuple(sorted((fid, face_rep[fid]) for fid in face_ids)),
        hypersurface_orbit_map=tuple(sorted((h, hyp_rep[h]) for h in spec.fiber.hypersurfaces)),
    )


@dataclass(frozen=True)
class EmbeddabilityVerdict:
    embeddable: bool
    witness: str | None


def check_embeddable(result: QuotientResult) -> EmbeddabilityVerdict:
    """Can the total space carry embedded corners?

    True exactly when every total face meets pairwise distinct total
    hypersurfaces; the first offending face (in declaration order) is the
    witness otherwise.  On success the total poset passes validation.
    """
    for f in result.total.faces:
        if len(set(f.index_tuple)) != len(f.index_tuple):
            return EmbeddabilityVerdict(False, f.id)
    problems = validate(result.total)
    if problems:
        # a valid fiber's orbits carry its parents, commutation and single
        # interior over to a total with distinct tuples, so this is a bug
        raise InternalConsistencyError(
            "embeddable total fails validation: " + "; ".join(problems)
        )
    return EmbeddabilityVerdict(True, None)


# ---------------------------------------------------------------------------
# gallery


def _interval_poset() -> FacePoset:
    return FacePoset.build(
        ["r1", "r2"],
        [
            ("int", 0, (), {}),
            ("e1", 1, ("r1",), {"r1": "int"}),
            ("e2", 1, ("r2",), {"r2": "int"}),
        ],
    )


def _square_poset() -> FacePoset:
    # s1/s2 bound the first coordinate, s3/s4 the second
    return FacePoset.build(
        ["s1", "s2", "s3", "s4"],
        [
            ("int", 0, (), {}),
            ("e1", 1, ("s1",), {"s1": "int"}),
            ("e2", 1, ("s2",), {"s2": "int"}),
            ("e3", 1, ("s3",), {"s3": "int"}),
            ("e4", 1, ("s4",), {"s4": "int"}),
            ("c13", 2, ("s1", "s3"), {"s1": "e3", "s3": "e1"}),
            ("c14", 2, ("s1", "s4"), {"s1": "e4", "s4": "e1"}),
            ("c23", 2, ("s2", "s3"), {"s2": "e3", "s3": "e2"}),
            ("c24", 2, ("s2", "s4"), {"s2": "e4", "s4": "e2"}),
        ],
    )


def gallery(name: str) -> FamilySpec:
    """Hand-built example families; every entry passes validation."""
    if name == "trivial_interval":
        return FamilySpec(_interval_poset(), (), "any base")
    if name == "trivial_square":
        return FamilySpec(_square_poset(), (), "any base")
    if name == "mobius":
        flip = FiberAutomorphism.build(
            {"int": "int", "e1": "e2", "e2": "e1"},
            {"r1": "r2", "r2": "r1"},
        )
        return FamilySpec(_interval_poset(), (flip,), "circle")
    if name == "half_twist_square":
        antipode = FiberAutomorphism.build(
            {
                "int": "int",
                "e1": "e2", "e2": "e1", "e3": "e4", "e4": "e3",
                "c13": "c24", "c24": "c13", "c14": "c23", "c23": "c14",
            },
            {"s1": "s2", "s2": "s1", "s3": "s4", "s4": "s3"},
        )
        return FamilySpec(_square_poset(), (antipode,), "circle")
    if name == "quarter_twist_square":
        rotation = FiberAutomorphism.build(
            {
                "int": "int",
                "e1": "e3", "e3": "e2", "e2": "e4", "e4": "e1",
                "c13": "c23", "c23": "c24", "c24": "c14", "c14": "c13",
            },
            {"s1": "s3", "s3": "s2", "s2": "s4", "s4": "s1"},
        )
        return FamilySpec(_square_poset(), (rotation,), "circle")
    raise ValueError(f"unknown gallery name {name!r}; available: {', '.join(GALLERY_NAMES)}")
