import dataclasses
import itertools
import random
from collections import Counter

import pytest

from cornerindex.conormal import incidence_matrix
from cornerindex.documents import poset_from_payload, poset_to_payload
from cornerindex.faces import Face, FacePoset, InvalidPosetError, validate
from cornerindex.families import (
    FamilySpec,
    FiberAutomorphism,
    check_embeddable,
    gallery,
    GALLERY_NAMES,
    quotient_family,
    validate_automorphism,
)

from helpers import (
    AUTOMORPHISM_CORRUPTIONS,
    corrupt_automorphism,
    cube,
    cube_automorphism,
    reference_validate,
    reference_validate_automorphism,
)


def test_gallery_names_and_validity():
    for name in GALLERY_NAMES:
        spec = gallery(name)
        assert validate(spec.fiber) == []
        for gen in spec.generators:
            assert validate_automorphism(spec.fiber, gen) == []
    with pytest.raises(ValueError):
        gallery("bogus")


def test_trivial_family_is_identity():
    spec = gallery("trivial_interval")
    q = quotient_family(spec)
    assert q.total == spec.fiber
    assert check_embeddable(q).embeddable


def test_mobius_quotient():
    q = quotient_family(gallery("mobius"))
    assert len(q.total.hypersurfaces) == 1
    assert len(q.total.faces_of_codim(1)) == 1
    verdict = check_embeddable(q)
    assert verdict.embeddable and verdict.witness is None
    assert validate(q.total) == []


def test_half_twist_quotient():
    q = quotient_family(gallery("half_twist_square"))
    assert len(q.total.hypersurfaces) == 2
    assert len(q.total.faces_of_codim(1)) == 2
    assert len(q.total.faces_of_codim(2)) == 2
    verdict = check_embeddable(q)
    assert verdict.embeddable
    assert validate(q.total) == []


def test_quarter_twist_quotient_not_embeddable():
    q = quotient_family(gallery("quarter_twist_square"))
    assert len(q.total.hypersurfaces) == 1
    assert len(q.total.faces_of_codim(1)) == 1
    assert len(q.total.faces_of_codim(2)) == 1
    verdict = check_embeddable(q)
    assert not verdict.embeddable
    assert verdict.witness == q.total.faces_of_codim(2)[0].id
    # the duplicate index is exactly what validation flags
    assert any(v.startswith("duplicate-index") for v in validate(q.total))


def test_orbit_map_constant_on_orbits():
    q = quotient_family(gallery("quarter_twist_square"))
    orbit = dict(q.orbit_map)
    gen = gallery("quarter_twist_square").generators[0].faces()
    for fid, image in gen.items():
        assert orbit[fid] == orbit[image]


def test_bad_generator_rejected():
    spec = gallery("mobius")
    broken = FiberAutomorphism.build(
        {"int": "int", "e1": "e1", "e2": "e2"},  # fixes faces
        {"r1": "r2", "r2": "r1"},  # but swaps hypersurfaces
    )
    assert validate_automorphism(spec.fiber, broken) != []
    with pytest.raises(ValueError):
        quotient_family(FamilySpec(spec.fiber, (broken,), "circle"))


def test_automorphism_of_an_invalid_fiber_raises_invalid_poset():
    # the interval with e1's parent left out, and the Mobius flip
    fiber = FacePoset.build(
        ["r1", "r2"],
        [("int", 0, (), {}), ("e1", 1, ("r1",), {}), ("e2", 1, ("r2",), {"r2": "int"})],
    )
    flip = gallery("mobius").generators[0]
    with pytest.raises(InvalidPosetError) as info:
        validate_automorphism(fiber, flip)
    assert info.value.violations == validate(fiber)


def test_orbit_counts_invariant_under_conjugation():
    # conjugating the quarter-twist generator by the half-twist automorphism
    spec = gallery("quarter_twist_square")
    conjugator = gallery("half_twist_square").generators[0]
    cf, ch = conjugator.faces(), conjugator.hypersurfaces()
    cf_inv = {v: k for k, v in cf.items()}
    ch_inv = {v: k for k, v in ch.items()}
    g = spec.generators[0]
    gf, gh = g.faces(), g.hypersurfaces()
    conj = FiberAutomorphism.build(
        {x: cf[gf[cf_inv[x]]] for x in cf},
        {h: ch[gh[ch_inv[h]]] for h in ch},
    )
    assert validate_automorphism(spec.fiber, conj) == []
    base = quotient_family(spec)
    twisted = quotient_family(FamilySpec(spec.fiber, (conj,), spec.base_label))
    for p in (0, 1, 2):
        assert len(base.total.faces_of_codim(p)) == len(twisted.total.faces_of_codim(p))
    assert len(base.total.hypersurfaces) == len(twisted.total.hypersurfaces)


def test_orbits_partition_faces():
    for name in GALLERY_NAMES:
        q = quotient_family(gallery(name))
        orbit = dict(q.orbit_map)
        reps = {f.id for f in q.total.faces}
        assert set(orbit.values()) == reps
        for fid in orbit:
            assert orbit[orbit[fid]] == orbit[fid]


def test_validate_automorphism_matches_frozen_reference():
    # seeded corruptions of gallery generators and of cube symmetries:
    # messages and their order agree with the old function
    rng = random.Random(3)
    cases = [(gallery(n).fiber, g) for n in GALLERY_NAMES for g in gallery(n).generators]
    for d in (2, 3, 4):
        for _ in range(3):
            perm = rng.sample(range(d), d)
            flips = [rng.random() < 0.5 for _ in range(d)]
            cases.append((cube(d), cube_automorphism(d, perm, flips)))
    kinds = Counter()
    for fiber, aut in cases:
        assert validate_automorphism(fiber, aut) == reference_validate_automorphism(fiber, aut) == []
        for kind in AUTOMORPHISM_CORRUPTIONS:
            for _ in range(4):
                broken = corrupt_automorphism(rng, aut, kind)
                problems = validate_automorphism(fiber, broken)
                assert problems == reference_validate_automorphism(fiber, broken)
                kinds.update(v.split(":")[0] for v in problems)
    assert set(kinds) == {
        "face-map", "hypersurface-map", "codim-change", "tuple-mismatch", "parent-mismatch",
    }


def test_embeddable_cube_totals_validate_like_the_reference():
    for d in (2, 3):
        embeddable = 0
        for perm in itertools.permutations(range(d)):
            for flips in itertools.product((False, True), repeat=d):
                aut = cube_automorphism(d, perm, flips)
                quotient = quotient_family(FamilySpec(cube(d), (aut,), "circle"))
                if check_embeddable(quotient).embeddable:
                    embeddable += 1
                    total = quotient.total
                    assert validate(total) == reference_validate(total) == []
        assert embeddable > 0


def test_parent_maps_are_built_only_by_the_grandparent_pass(monkeypatch):
    built = Counter()
    real = Face.parent_map

    def counting(face):
        built[face.id] += 1
        return real(face)

    monkeypatch.setattr(Face, "parent_map", counting)
    fiber = cube(3)
    aut = cube_automorphism(3, (1, 0, 2), (True, False, False))
    assert validate(fiber) == []
    assert validate_automorphism(fiber, aut) == []
    quotient_family(FamilySpec(fiber, (aut,), "circle"))
    for p in range(1, 4):
        incidence_matrix(fiber, p)
    # every face passes the one-test check and no tuple repeats, so no
    # reader builds a parent map
    assert built == Counter()
    # a second edge on x00 repeats a tuple: the pairwise grandparent pass
    # runs and builds each face's map once per poset object
    twin = FacePoset(fiber.hypersurfaces, fiber.faces + (Face("twin", 1, ("x00",), {"x00": "f***"}),))
    assert validate(twin) == validate(twin) == []
    assert built == Counter(f.id for f in twin.faces)
    # an equal but distinct object builds its own
    validate(dataclasses.replace(twin))
    assert set(built.values()) == {2}


def test_no_parent_map_outlives_the_readers():
    fiber = cube(3)
    aut = cube_automorphism(3, (1, 0, 2), (True, False, False))
    assert validate(fiber) == []
    assert validate_automorphism(fiber, aut) == []
    quotient_family(FamilySpec(fiber, (aut,), "circle"))
    for p in range(1, 4):
        incidence_matrix(fiber, p)
    assert "_parent_maps" not in vars(fiber)
    assert all(type(f) is Face for f in fiber._id_index.values())


def test_built_faces_key_their_parents_by_their_index_tuple():
    built = cube(3)
    payload = poset_to_payload(built)
    for entry in payload["faces"]:
        entry["parents"] = dict(reversed(entry["parents"].items()))
    parsed = poset_from_payload(payload)
    assert parsed == built
    totals = []
    for perm in itertools.permutations(range(3)):
        aut = cube_automorphism(3, perm, (True, False, False))
        quotient = quotient_family(FamilySpec(built, (aut,), "circle"))
        if check_embeddable(quotient).embeddable:
            totals.append(quotient.total)
    assert totals
    for poset in (parsed, built, *totals):
        for f in poset.faces:
            assert tuple(i for i, _ in f.parents) == f.index_tuple
