import dataclasses
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from cornerindex import faces
from cornerindex.abelian import FGAbelianGroup
from cornerindex.conormal import build_complex
from cornerindex.faces import (
    Face,
    FacePoset,
    FilteredPair,
    InvalidPosetError,
    filtration,
    incidence_sign,
    require_valid,
    validate,
)
from cornerindex.families import GALLERY_NAMES, gallery
from cornerindex.obstruction import KTheoryInput, SymbolDatum, codim2_obstruction_space, codim2_vanishes

from helpers import (
    count_calls,
    cube,
    gallery_posets,
    kgon,
    mutate_poset,
    random_codim2_poset,
    random_valid_poset,
    reference_validate,
    reference_violations,
)


def square():
    return gallery("trivial_square").fiber


def interval():
    return gallery("trivial_interval").fiber


def test_square_is_valid():
    assert validate(square()) == []


def test_unsorted_tuple_violation():
    p = FacePoset.build(
        ["s1", "s2"],
        [
            ("int", 0, (), {}),
            ("e1", 1, ("s1",), {"s1": "int"}),
            ("e2", 1, ("s2",), {"s2": "int"}),
            ("c", 2, ("s2", "s1"), {"s1": "e2", "s2": "e1"}),
        ],
    )
    assert any(v.startswith("unsorted-tuple") for v in validate(p))


def test_duplicate_index_violation():
    p = FacePoset.build(
        ["s1"],
        [
            ("int", 0, (), {}),
            ("e1", 1, ("s1",), {"s1": "int"}),
            ("c", 2, ("s1", "s1"), {"s1": "e1"}),
        ],
    )
    assert any(v.startswith("duplicate-index") for v in validate(p))


def test_missing_parent_violation():
    p = FacePoset.build(
        ["s1"],
        [("int", 0, (), {}), ("e1", 1, ("s1",), {})],
    )
    assert any(v.startswith("missing-parent") for v in validate(p))


def test_parent_tuple_violation():
    p = FacePoset.build(
        ["s1", "s2"],
        [
            ("int", 0, (), {}),
            ("e1", 1, ("s1",), {"s1": "int"}),
            ("e2", 1, ("s2",), {"s2": "int"}),
            ("c", 2, ("s1", "s2"), {"s1": "e1", "s2": "e1"}),
        ],
    )
    assert any(v.startswith("parent-tuple") for v in validate(p))


def test_grandparent_commutation_violation():
    # two interiors; the two drop orders reach different interiors
    p = FacePoset.build(
        ["s1", "s2"],
        [
            ("intA", 0, (), {}),
            ("intB", 0, (), {}),
            ("e1", 1, ("s1",), {"s1": "intA"}),
            ("e2", 1, ("s2",), {"s2": "intB"}),
            ("c", 2, ("s1", "s2"), {"s1": "e2", "s2": "e1"}),
        ],
        connected=False,
    )
    assert any(v.startswith("grandparent-mismatch") for v in validate(p))


def _twin_edge_poset(swapped: bool) -> FacePoset:
    # ec and ec2 both carry (c,), so tuples repeat; with the swap, the
    # vertex reaches ec dropping a then b and ec2 dropping b then a
    return FacePoset.build(
        ["a", "b", "c"],
        [
            ("int", 0, (), {}),
            ("ea", 1, ("a",), {"a": "int"}),
            ("eb", 1, ("b",), {"b": "int"}),
            ("ec", 1, ("c",), {"c": "int"}),
            ("ec2", 1, ("c",), {"c": "int"}),
            ("cab", 2, ("a", "b"), {"a": "eb", "b": "ea"}),
            ("cac", 2, ("a", "c"), {"a": "ec2" if swapped else "ec", "c": "ea"}),
            ("cbc", 2, ("b", "c"), {"b": "ec", "c": "eb"}),
            ("v", 3, ("a", "b", "c"), {"a": "cbc", "b": "cac", "c": "cab"}),
        ],
    )


def test_repeated_tuples_still_check_commutation_pair_by_pair():
    # every per-face check passes, so only the pairwise loop can see this
    swapped = _twin_edge_poset(swapped=True)
    expected = ["grandparent-mismatch: v dropping a,b in either order disagrees"]
    assert validate(swapped) == reference_validate(swapped) == expected
    consistent = _twin_edge_poset(swapped=False)
    assert validate(consistent) == reference_validate(consistent) == []


def test_distinct_tuple_posets_validate_like_the_reference():
    # the posets whose commutation is settled without the pairwise loop
    posets = [cube(d) for d in range(1, 6)] + [kgon(k) for k in (3, 4, 5, 8, 64)]
    for poset in posets:
        assert len({f.index_tuple for f in poset.faces}) == len(poset.faces)
    posets += [poset for _, poset in gallery_posets()] + [gallery(n).fiber for n in GALLERY_NAMES]
    for poset in posets:
        assert validate(poset) == reference_validate(poset) == []


def test_connected_single_interior():
    p = FacePoset.build(["s1"], [("a", 0, (), {}), ("b", 0, (), {})], connected=True)
    assert any(v.startswith("disconnected-interior") for v in validate(p))
    q = FacePoset.build(["s1"], [("a", 0, (), {}), ("b", 0, (), {})], connected=False)
    assert validate(q) == []


def test_empty_poset_is_valid():
    assert validate(FacePoset((), (), False)) == []


def test_filtration():
    sq = square()
    assert [f.id for f in filtration(sq, 0).faces] == ["int"]
    assert [f.id for f in filtration(sq, 1).faces] == ["int", "e1", "e2", "e3", "e4"]
    assert filtration(sq, 2) == sq
    assert filtration(sq, -1).is_empty()
    with pytest.raises(ValueError):
        filtration(sq, 3)
    with pytest.raises(ValueError):
        filtration(sq, -2)


def test_filtration_composition():
    sq = square()
    rng = random.Random(3)
    for _ in range(20):
        k = rng.randint(-1, 2)
        sub = filtration(sq, k)
        for kk in range(-1, sub.codimension() + 1):
            assert filtration(sub, kk) == filtration(sq, min(k, kk))


def test_incidence_sign_edge_interior():
    sq = square()
    for e in ["e1", "e2", "e3", "e4"]:
        assert incidence_sign(sq, e, "int") == 1


def test_incidence_sign_corner():
    # I_f = (s1, s3): dropping s1 (k=1) gives +1 on e3, dropping s3 (k=2) gives -1 on e1
    sq = square()
    assert incidence_sign(sq, "c13", "e3") == 1
    assert incidence_sign(sq, "c13", "e1") == -1
    assert incidence_sign(sq, "c13", "e2") == 0
    with pytest.raises(ValueError):
        incidence_sign(sq, "c13", "int")



def test_incidence_sign_reads_the_id_index(monkeypatch):
    rebuilt = count_calls(monkeypatch, FacePoset, "by_id")
    sq = square()
    signs = [incidence_sign(sq, f.id, g.id) for f in sq.faces_of_codim(2) for g in sq.faces_of_codim(1)]
    assert sorted(signs) == [-1] * 4 + [0] * 8 + [1] * 4
    assert rebuilt == []


def test_by_id_is_a_copy_of_the_id_index():
    sq = square()
    index = sq.by_id()
    assert index == {f.id: f for f in sq.faces} and index is not sq._id_index
    index.clear()
    assert sq.by_id() == {f.id: f for f in sq.faces}


def test_filtered_pair_ranges():
    sq = square()
    FilteredPair(sq, -1, 2)
    FilteredPair(sq, 0, 0)
    with pytest.raises(ValueError):
        FilteredPair(sq, 1, 0)
    with pytest.raises(ValueError):
        FilteredPair(sq, -2, 2)
    with pytest.raises(ValueError):
        FilteredPair(sq, 0, 3)


def test_random_posets_pass_validation():
    rng = random.Random(99)
    for _ in range(100):
        p = random_valid_poset(rng, connected=rng.random() < 0.7)
        assert validate(p) == [], p


@pytest.mark.parametrize("k", [999, 1000, 1001])
def test_kgon_helper_stays_valid_past_three_digits(k):
    # names are padded to the width of k - 1, so they sort as their indices
    assert validate(kgon(k)) == []


def _validation_bases() -> list[FacePoset]:
    rng = random.Random(11)
    bases = [cube(d) for d in range(4)] + [kgon(k) for k in (3, 4, 7)]
    bases += [poset for _, poset in gallery_posets()] + [gallery(n).fiber for n in GALLERY_NAMES]
    bases += [random_valid_poset(rng, max_codim=2, connected=c) for c in (True, True, False)]
    bases.append(random_codim2_poset(rng, 30))
    return bases


VALIDATION_BASES = _validation_bases()

VIOLATION_KINDS = {
    "duplicate-hypersurface", "duplicate-face-id", "missing-interior", "disconnected-interior",
    "negative-codim", "tuple-length", "unknown-hypersurface", "duplicate-index",
    "unsorted-tuple", "stray-parent", "missing-parent", "unknown-parent", "parent-codim",
    "parent-tuple", "grandparent-mismatch",
}


@settings(derandomize=True, database=None, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    base=st.sampled_from(VALIDATION_BASES),
    rng=st.randoms(use_true_random=False),
    n_edits=st.integers(1, 3),
)
def test_validate_matches_frozen_reference(base, rng, n_edits):
    # messages and their order, on a valid poset after 1-3 random edits
    poset = mutate_poset(rng, base, n_edits)
    assert validate(poset) == reference_validate(poset)


def test_validate_matches_frozen_reference_on_seeded_mutants():
    # a fixed corpus wider than the property test's; it also shows the
    # edits reach every kind of violation
    for poset in VALIDATION_BASES:
        assert validate(poset) == reference_validate(poset) == []
    rng = random.Random(5)
    seen = set()
    for t in range(1500):
        poset = mutate_poset(rng, VALIDATION_BASES[t % len(VALIDATION_BASES)], rng.randint(1, 3))
        violations = validate(poset)
        assert violations == reference_validate(poset)
        seen.update(v.split(":")[0] for v in violations)
    assert seen == VIOLATION_KINDS


def test_validate_matches_the_indexed_pass_on_corrupted_posets():
    # a passing face is settled by one test; every other face goes through
    # the per-message checks of the frozen indexed pass, so each message and
    # its order must match, on posets with one fault and with several
    rng = random.Random(18)
    bases = [cube(d) for d in (1, 2, 3, 4)] + [kgon(k) for k in (3, 4, 6, 9)]
    bases += [random_valid_poset(rng, max_codim=2, connected=c) for c in (True, True, False)]
    bases += [random_codim2_poset(rng, n) for n in (12, 25)]
    seen = set()
    several = 0
    for t in range(1200):
        poset = mutate_poset(rng, bases[t % len(bases)], rng.randint(1, 4))
        violations = validate(poset)
        assert violations == reference_violations(poset)
        kinds = {v.split(":")[0] for v in violations}
        seen |= kinds
        several += len(kinds) >= 2
    assert seen == VIOLATION_KINDS
    assert several >= 600


# ---------------------------------------------------------------------------
# the verdict and the codimension index live on the poset


def _list_built_poset() -> FacePoset:
    return FacePoset(
        ["s1", "s2"],
        [
            Face("int", 0, (), ()),
            Face("e1", 1, ["s1"], (("s1", "int"),)),
            Face("e2", 1, ("s2",), [["s2", "int"]]),
        ],
    )


def test_face_parents_take_one_canonical_form():
    canonical = Face("c13", 2, ("s1", "s3"), (("s1", "e3"), ("s3", "e1")))
    for parents in (
        {"s3": "e1", "s1": "e3"},
        [["s3", "e1"], ["s1", "e3"]],
        (("s3", "e1"), ("s1", "e3")),
        [("s1", "e2"), ("s3", "e1"), ("s1", "e3")],  # the last pair wins, as in dict
    ):
        face = Face("c13", 2, ("s1", "s3"), parents)
        assert face == canonical and hash(face) == hash(canonical)
        assert face.parent_map() == {"s1": "e3", "s3": "e1"}
    # a dict's single entry is one pair, not the characters of its key
    edge = Face("e1", 1, ("s1",), {"s1": "int"})
    assert edge.parents == (("s1", "int"),)
    assert validate(FacePoset(("s1",), (Face("int", 0, (), {}), edge))) == []


def test_list_built_poset_holds_tuples_and_equals_its_twin():
    poset = _list_built_poset()
    twin = FacePoset(
        ("s1", "s2"),
        (
            Face("int", 0, (), ()),
            Face("e1", 1, ("s1",), (("s1", "int"),)),
            Face("e2", 1, ("s2",), (("s2", "int"),)),
        ),
    )
    assert validate(poset) == []
    assert poset == twin and hash(poset) == hash(twin)
    assert type(poset.faces[2].parents[0]) is tuple


def test_validation_pass_runs_once_per_poset_object(monkeypatch):
    passes = count_calls(monkeypatch, faces, "_violations")
    square = cube(2)
    K = KTheoryInput.point()
    datum = SymbolDatum.build(
        {f.id: K.k1.zero() for f in square.faces_of_codim(1)},
        {f.id: K.k0.zero() for f in square.faces_of_codim(2)},
    )
    assert validate(square) == []
    require_valid(square)
    build_complex(FilteredPair(square, -1, 2), FGAbelianGroup(1))
    codim2_obstruction_space(square, K)
    assert codim2_vanishes(square, K, datum).vanishes
    assert passes == [(square,)]
    # an equal but distinct object keeps its own verdict
    validate(cube(2))
    assert len(passes) == 2


TWO_INTERIORS = ["disconnected-interior: connected poset has several codimension-0 faces"]


def _two_interiors() -> FacePoset:
    return FacePoset.build([], [("a", 0, (), {}), ("b", 0, (), {})])


def test_invalid_poset_raises_the_same_violations_each_call():
    poset = _two_interiors()
    raised = []
    for _ in range(3):
        with pytest.raises(InvalidPosetError) as info:
            require_valid(poset)
        raised.append(info.value.violations)
    assert raised == [TWO_INTERIORS] * 3


def test_validate_returns_a_fresh_list():
    poset = _two_interiors()
    first = validate(poset)
    first.append("stray")
    assert validate(poset) == TWO_INTERIORS
    assert validate(poset) is not validate(poset)


def test_cached_verdict_leaves_equality_hash_and_repr_alone():
    validated, twin = cube(2), cube(2)
    validate(validated)
    validated.codimension()
    assert validated == twin
    assert hash(validated) == hash(twin)
    assert repr(validated) == repr(twin)


def test_replace_gets_its_own_verdict():
    poset = _two_interiors()
    assert validate(poset) == TWO_INTERIORS
    assert validate(dataclasses.replace(poset, connected=False)) == []


def test_codimension_index_matches_a_plain_scan():
    rng = random.Random(23)
    posets = [FacePoset((), ())] + [cube(d) for d in range(4)]
    posets += [poset for _, poset in gallery_posets()]
    posets += [random_valid_poset(rng, connected=rng.random() < 0.7) for _ in range(20)]
    posets += [mutate_poset(rng, random_codim2_poset(rng, 20), 3) for _ in range(20)]
    for poset in posets:
        codims = {f.codim for f in poset.faces}
        assert poset.codimension() == max(codims, default=0)
        for p in codims | {-1, 0, 1, 2, 5}:
            expected = [f for f in poset.faces if f.codim == p]
            assert poset.faces_of_codim(p) == expected
            assert poset.faces_of_codim(p) is not poset.faces_of_codim(p)
