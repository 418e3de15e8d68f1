import dataclasses
import random
from math import gcd

import pytest

from cornerindex import abelian, conormal, faces, obstruction
from cornerindex.abelian import FGAbelianGroup, IntegerHom, InternalConsistencyError, direct_sum, power
from cornerindex.conormal import build_complex, incidence_matrix
from cornerindex.faces import FacePoset, FilteredPair, require_valid
from cornerindex.families import gallery, quotient_family
from cornerindex.obstruction import (
    KTheoryInput,
    MIDDLE_EXACT_SPLITS,
    MIDDLE_LEFT_TRIVIAL,
    MIDDLE_UNDETERMINED,
    SymbolDatum,
    UnsupportedCodimensionError,
    codim1_groups,
    codim1_vanishes,
    codim2_obstruction_space,
    codim2_vanishes,
    connection_matrices,
)

from helpers import (
    count_calls,
    cube,
    exhaustive_solve,
    gallery_posets,
    kgon,
    random_codim2_poset,
    random_valid_poset,
)

Z = FGAbelianGroup(1)
TRIVIAL = FGAbelianGroup(0)


def zmod(*ds):
    return FGAbelianGroup.from_cyclics(list(ds))


def interval():
    return gallery("trivial_interval").fiber


def square():
    return gallery("trivial_square").fiber


def mobius_total():
    return quotient_family(gallery("mobius")).total


def datum_for(poset, ktheory, codim1=None, codim2=None):
    ones = {f.id: ktheory.k1.zero() for f in poset.faces_of_codim(1)}
    twos = {f.id: ktheory.k0.zero() for f in poset.faces_of_codim(2)}
    ones.update(codim1 or {})
    twos.update(codim2 or {})
    return SymbolDatum.build(ones, twos)


# ---------------------------------------------------------------------------
# codimension 1


def test_codim1_groups_interval_over_point():
    g = codim1_groups(interval(), KTheoryInput.point())
    assert g.ka1[0] == TRIVIAL  # K^1(pt)^(2-1)
    assert g.ka1_over_a0[0] == TRIVIAL
    assert g.ka0[0] == Z


def test_codim1_groups_interval_over_circle():
    g = codim1_groups(interval(), KTheoryInput.circle())
    assert g.ka1[0] == Z  # Z^(2-1)
    assert g.ka1_over_a0[0] == FGAbelianGroup(2)
    assert g.ka1[1] == Z


def test_codim1_groups_mobius_over_circle():
    g = codim1_groups(mobius_total(), KTheoryInput.circle())
    assert g.ka1[0] == TRIVIAL  # Z^(1-1)
    assert g.ka1_over_a0[0] == Z


@pytest.mark.parametrize("ktheory, pairs_times_groups", [(KTheoryInput.circle(), 3), (KTheoryInput.point(), 6)])
def test_codim1_groups_homology_once_per_pair_and_group(monkeypatch, ktheory, pairs_times_groups):
    # one homology per (pair, group) and one validation pass per poset object
    homologies = count_calls(monkeypatch, conormal, "homology")
    validations = count_calls(monkeypatch, faces, "_violations")
    codim1_groups(interval(), ktheory)
    assert (len(homologies), len(validations)) == (pairs_times_groups, 1)


@pytest.mark.parametrize("ktheory", [KTheoryInput.point(), KTheoryInput.circle()], ids=["point", "circle"])
def test_codim1_groups_raise_when_homology_loses_its_boundary(monkeypatch, ktheory):
    # mutation control: with every incidence matrix zeroed, H_1(X) gains a
    # summand that the closed formula for K_*(A_1) does not have
    codim1_groups(interval(), ktheory)

    def zeroed(poset, p):
        return IntegerHom.zero(len(poset.faces_of_codim(p - 1)), len(poset.faces_of_codim(p)))

    monkeypatch.setattr(conormal, "incidence_matrix", zeroed)
    with pytest.raises(InternalConsistencyError, match="codimension-1 formula .* disagrees with homology"):
        codim1_groups(interval(), ktheory)


def test_codim1_groups_rejects_wrong_codim():
    with pytest.raises(UnsupportedCodimensionError):
        codim1_groups(square(), KTheoryInput.point())


def test_codim1_groups_formula_on_fuzzed_posets():
    # codim1_groups itself re-derives every slot from homology and raises on
    # any disagreement, so this loop is the formula-vs-homology cross-check
    rng = random.Random(61)
    from cornerindex.abelian import power

    for i in range(100):
        poset = random_valid_poset(rng, max_codim=1, connected=True)
        n1 = len(poset.faces_of_codim(1))
        K = [KTheoryInput.point(), KTheoryInput.circle(),
             KTheoryInput(zmod(2), FGAbelianGroup(1, (4,)), "test base")][i % 3]
        g = codim1_groups(poset, K)
        assert g.ka1[0] == power(K.k1, n1 - 1)
        assert g.ka1_over_a0[1] == power(K.k0, n1)


def test_codim1_vanishes_all_zero():
    K = KTheoryInput.circle()
    verdict = codim1_vanishes(interval(), K, datum_for(interval(), K))
    assert verdict.vanishes and not verdict.failing_codim1


def test_codim1_vanishes_trivial_k1():
    # with K^1(B) = 0 every datum is accepted
    K = KTheoryInput.point()
    verdict = codim1_vanishes(interval(), K, datum_for(interval(), K))
    assert verdict.vanishes


def test_codim1_vanishes_failing_face():
    K = KTheoryInput.circle()
    datum = datum_for(interval(), K, codim1={"e1": K.k1.element([1], [])})
    verdict = codim1_vanishes(interval(), K, datum)
    assert not verdict.vanishes
    assert verdict.failing_codim1 == ("e1",)


def test_datum_validation():
    K = KTheoryInput.circle()
    with pytest.raises(ValueError):
        codim1_vanishes(interval(), K, SymbolDatum.build({"e1": K.k1.zero()}))
    wrong_parent = SymbolDatum.build(
        {"e1": zmod(2).zero(), "e2": zmod(2).zero()}
    )
    with pytest.raises(ValueError):
        codim1_vanishes(interval(), K, wrong_parent)


def test_codim2_datum_validation():
    K = KTheoryInput.circle()
    ones = {f.id: K.k1.zero() for f in square().faces_of_codim(1)}
    with pytest.raises(ValueError, match="codim-2 index keys"):
        codim2_vanishes(square(), K, SymbolDatum.build(ones, {"c13": K.k0.zero()}))
    twos = {f.id: zmod(2).zero() for f in square().faces_of_codim(2)}
    with pytest.raises(ValueError, match="codim-2 indices must live in K\\^0"):
        codim2_vanishes(square(), K, SymbolDatum.build(ones, twos))


@pytest.mark.parametrize("position", ["first", "middle", "last"])
def test_chain_vectors_and_data_reject_a_stray_element_anywhere(position):
    # each caller of abelian.in_group keeps its own error type and message
    poset = kgon(8)
    K = KTheoryInput(FGAbelianGroup(1, (2,)), FGAbelianGroup(1, (2,)))
    stray = FGAbelianGroup(0, (2,)).zero()
    corners = [f.id for f in poset.faces_of_codim(2)]
    edges = [f.id for f in poset.faces_of_codim(1)]
    k = {"first": 0, "middle": len(corners) // 2, "last": len(corners) - 1}[position]
    coords = [FGAbelianGroup(1, (2,)).zero() for _ in corners]
    coords[k] = stray
    complex_ = build_complex(FilteredPair(poset, 0, 2), K.k1)
    with pytest.raises(abelian.GroupMismatchError, match="^coordinate parent differs from the coefficient group$"):
        conormal.ChainVector(complex_, 2, tuple(coords))
    with pytest.raises(ValueError, match="^codim-1 indices must live in K\\^1 of the base$"):
        codim2_vanishes(poset, K, datum_for(poset, K, codim1={edges[k]: stray}))
    with pytest.raises(ValueError, match="^codim-2 indices must live in K\\^0 of the base$"):
        codim2_vanishes(poset, K, datum_for(poset, K, codim2={corners[k]: stray}))


@pytest.mark.parametrize("k0", [Z, FGAbelianGroup(1, (2,))], ids=["Z", "Z+Z/2"])
def test_failing_codim2_faces_are_those_of_the_per_face_scan(k0):
    # the one zero test over every coordinate lists, when it fails, the faces
    # a per-face is_zero scan lists, in declaration order
    rng = random.Random(2022)
    K = KTheoryInput(k0, Z)
    # a third poset declares its corners out of id order
    shuffled = list(kgon(9).faces)
    tail = [f for f in shuffled if f.codim == 2]
    rng.shuffle(tail)
    shuffled = [f for f in shuffled if f.codim != 2] + tail
    unsorted = FacePoset(kgon(9).hypersurfaces, tuple(shuffled))
    for poset in (kgon(12), random_codim2_poset(rng, 60), unsorted):
        require_valid(poset)
        corners = [f.id for f in poset.faces_of_codim(2)]
        last = len(corners) - 1
        picks = [{0}, {last // 2}, {last}, {0, last // 2, last}, set(rng.sample(range(last + 1), 5))]
        for pick in picks:
            # over Z + Z/2 only the torsion coordinate is nonzero
            value = k0.element([3], []) if not k0.torsion else k0.element([0], [1])
            datum = datum_for(poset, K, codim2={corners[i]: value for i in pick})
            verdict = codim2_vanishes(poset, K, datum)
            twos = datum.codim2()
            scan = tuple(f.id for f in poset.faces_of_codim(2) if not twos[f.id].is_zero())
            assert verdict.failing_codim2 == scan == tuple(corners[i] for i in sorted(pick))
            assert not verdict.vanishes and verdict.codim1_class_vanishes
        assert codim2_vanishes(poset, K, datum_for(poset, K)).failing_codim2 == ()


def test_vanishing_and_space_reject_wrong_codimension():
    K = KTheoryInput.circle()
    with pytest.raises(UnsupportedCodimensionError):
        codim1_vanishes(square(), K, datum_for(square(), K))
    with pytest.raises(UnsupportedCodimensionError):
        codim2_obstruction_space(interval(), K)
    with pytest.raises(UnsupportedCodimensionError):
        codim2_vanishes(interval(), K, datum_for(interval(), K))


def test_formulas_reject_disconnected_posets():
    # two interiors: a with one edge, b with two edges that meet at corner c
    disconnected = FacePoset.build(
        ["s1", "s2"],
        [
            ("a", 0, (), {}),
            ("b", 0, (), {}),
            ("ea", 1, ("s1",), {"s1": "a"}),
            ("e1", 1, ("s1",), {"s1": "b"}),
            ("e2", 1, ("s2",), {"s2": "b"}),
            ("c", 2, ("s1", "s2"), {"s1": "e2", "s2": "e1"}),
        ],
        connected=False,
    )
    codim1 = FacePoset.build(
        ["s1"], [("a", 0, (), {}), ("b", 0, (), {}), ("e", 1, ("s1",), {"s1": "a"})], connected=False
    )
    assert require_valid(disconnected).codimension() == 2 and require_valid(codim1).codimension() == 1
    with pytest.raises(ValueError, match="connected poset"):
        codim1_groups(codim1, KTheoryInput.circle())
    with pytest.raises(ValueError, match="connected poset"):
        codim2_obstruction_space(disconnected, KTheoryInput.circle())


# ---------------------------------------------------------------------------
# codimension 2 obstruction space


def test_obstruction_space_square_over_point():
    rep = codim2_obstruction_space(square(), KTheoryInput.point())
    assert rep.left == TRIVIAL
    assert rep.right == Z
    assert rep.middle == Z
    assert rep.middle_status == MIDDLE_LEFT_TRIVIAL


def test_obstruction_space_square_over_circle():
    rep = codim2_obstruction_space(square(), KTheoryInput.circle())
    assert rep.left == Z
    assert rep.right == Z
    assert rep.middle == FGAbelianGroup(2)
    assert rep.middle_status == MIDDLE_EXACT_SPLITS


def test_obstruction_space_trivial_ktheory():
    K = KTheoryInput(TRIVIAL, TRIVIAL, "zero")
    rep = codim2_obstruction_space(square(), K)
    assert rep.left == rep.right == rep.middle == TRIVIAL


@pytest.mark.parametrize("ktheory, groups", [(KTheoryInput.circle(), 1), (KTheoryInput.point(), 2)])
def test_obstruction_space_homology_once_per_group(monkeypatch, ktheory, groups):
    # one homology per group and one validation pass per poset object
    homologies = count_calls(monkeypatch, conormal, "homology")
    validations = count_calls(monkeypatch, faces, "_violations")
    codim2_obstruction_space(square(), ktheory)
    assert (len(homologies), len(validations)) == (groups, 1)


def test_obstruction_space_undetermined_extension():
    # torsion on the right with nontrivial left: the extension is not guessed
    K = KTheoryInput(zmod(2), Z, "torsion base")
    rep = codim2_obstruction_space(square(), K)
    assert rep.left == Z
    assert rep.right == zmod(2)
    assert rep.middle is None
    assert rep.middle_status == MIDDLE_UNDETERMINED


# ---------------------------------------------------------------------------
# codimension 2 vanishing


def test_codim2_vanishes_all_zero():
    K = KTheoryInput.circle()
    verdict = codim2_vanishes(square(), K, datum_for(square(), K))
    assert verdict.vanishes
    assert verdict.certificate is not None
    assert all(e.is_zero() for e in verdict.certificate.coords)


def test_codim2_vanishes_with_certificate():
    # codim-1 vector = boundary of the corner c13, so the class vanishes
    K = KTheoryInput.circle()
    one = K.k1.element([1], [])
    datum = datum_for(square(), K, codim1={"e3": one, "e1": -one})
    verdict = codim2_vanishes(square(), K, datum)
    assert verdict.vanishes
    cert = verdict.certificate
    complex = cert.complex
    target = [datum.codim1()[fid] for fid in complex.bases[1]]
    assert cert.boundary() == target


def test_codim2_all_ones_does_not_vanish():
    # the total-sum functional kills im(d2) but not (1,1,1,1)
    K = KTheoryInput.circle()
    one = K.k1.element([1], [])
    datum = datum_for(
        square(), K, codim1={"e1": one, "e2": one, "e3": one, "e4": one}
    )
    verdict = codim2_vanishes(square(), K, datum)
    assert not verdict.vanishes
    assert not verdict.codim1_class_vanishes
    assert verdict.certificate is None
    assert verdict.witness == ("e1", "e2", "e3", "e4")  # the corner graph is one 4-cycle


def test_codim2_failing_codim2_entries():
    K = KTheoryInput.circle()
    datum = datum_for(square(), K, codim2={"c13": K.k0.element([2], [])})
    verdict = codim2_vanishes(square(), K, datum)
    assert not verdict.vanishes
    assert verdict.failing_codim2 == ("c13",)
    assert verdict.codim1_class_vanishes  # the codim-1 vector is still zero


def test_codim2_verdict_matches_enumeration_over_finite_k1():
    rng = random.Random(77)
    sq = square()
    for modulus in (2, 3):
        K = KTheoryInput(Z, zmod(modulus), f"Z/{modulus} base")
        complex = build_complex(FilteredPair(sq, 0, 2), K.k1)
        d2 = complex.boundary[2]
        for _ in range(20):
            vec = {
                f.id: K.k1.element([], [rng.randrange(modulus)])
                for f in sq.faces_of_codim(1)
            }
            datum = datum_for(sq, K, codim1=vec)
            verdict = codim2_vanishes(sq, K, datum)
            target = [datum.codim1()[fid] for fid in complex.bases[1]]
            brute = exhaustive_solve(d2, K.k1, target)
            assert verdict.codim1_class_vanishes == (brute is not None)


def test_codim2_k1_trivial_shortcut():
    rng = random.Random(88)
    K = KTheoryInput.point()
    sq = square()
    for _ in range(30):
        codim2 = {
            f.id: K.k0.element([rng.randint(-2, 2)], [])
            for f in sq.faces_of_codim(2)
        }
        datum = datum_for(sq, K, codim2=codim2)
        verdict = codim2_vanishes(sq, K, datum)
        assert verdict.codim1_class_vanishes
        assert verdict.vanishes == all(e.is_zero() for e in codim2.values())


def test_codim2_monotone_under_zeroing():
    rng = random.Random(99)
    K = KTheoryInput.circle()
    sq = square()
    for _ in range(30):
        datum = datum_for(
            sq,
            K,
            codim1={f.id: K.k1.element([rng.randint(-2, 2)], []) for f in sq.faces_of_codim(1)},
            codim2={f.id: K.k0.element([rng.randint(-1, 1)], []) for f in sq.faces_of_codim(2)},
        )
        before = codim2_vanishes(sq, K, datum)
        zeroed = datum.codim2()
        for fid in before.failing_codim2:
            zeroed[fid] = K.k0.zero()
        after = codim2_vanishes(sq, K, datum_for(sq, K, codim1=datum.codim1(), codim2=zeroed))
        if before.vanishes:
            assert after.vanishes


def test_codim2_cancellation_token():
    calls = []

    def cancel():
        calls.append(1)
        if len(calls) > 1:
            raise TimeoutError("cancelled")

    K = KTheoryInput(Z, FGAbelianGroup(2), "rank-2 K^1")
    with pytest.raises(TimeoutError):
        codim2_vanishes(square(), K, datum_for(square(), K), cancel=cancel)



def test_codim2_cancel_polls_once_per_slot_and_component(monkeypatch):
    # the forest solve has no pivot steps: cancel is polled before each
    # slot's sweep of K^1 and before each component's sums are read, and a
    # raising cancel aborts before the certificate is built
    poset = two_component_poset()
    K = KTheoryInput(Z, zmod(0, 0, 4), "K^1 = Z^2 + Z/4")
    datum = boundary_datum(poset, K, random.Random(48))
    verdict = codim2_vanishes(poset, K, datum)
    assert verdict.vanishes and verdict.certificate is not None

    polls = []
    assert codim2_vanishes(poset, K, datum, cancel=lambda: polls.append(1)) == verdict
    assert len(polls) == 3 + 2

    builds = count_calls(monkeypatch, obstruction, "build_complex")
    for n in range(1, len(polls) + 1):
        seen = []

        def cancel():
            seen.append(1)
            if len(seen) == n:
                raise TimeoutError("cancelled")

        with pytest.raises(TimeoutError):
            codim2_vanishes(poset, K, datum, cancel=cancel)
    assert builds == []


# ---------------------------------------------------------------------------
# the corner graph: D_2 of (X_2, X_0) is a signed incidence matrix


GROUPS = (Z, zmod(0, 4), zmod(2, 6), zmod(0, 0, 3), TRIVIAL)


def two_component_poset():
    """Edges e0, e1, e2 joined by two corners and e3, e4 by one: a corner
    graph with two components."""
    hyps = [f"h{i}" for i in range(5)]
    faces = [("int", 0, (), {})]
    faces += [(f"e{i}", 1, (h,), {h: "int"}) for i, h in enumerate(hyps)]
    for c, (a, b) in enumerate(((0, 1), (1, 2), (3, 4))):
        faces.append((f"c{c}", 2, (hyps[a], hyps[b]), {hyps[a]: f"e{b}", hyps[b]: f"e{a}"}))
    return FacePoset.build(hyps, faces)


def random_element(rng, group):
    return group.element(
        [rng.randint(-3, 3) for _ in range(group.rank)], [rng.randrange(d) for d in group.torsion]
    )


def generator(group):
    """The first canonical generator: 1 in the first slot."""
    slots = [0] * (group.rank + len(group.torsion))
    slots[0] = 1
    return group.element(slots[: group.rank], slots[group.rank :])


def codim1_datum(poset, K, vector):
    return datum_for(poset, K, codim1=dict(zip((f.id for f in poset.faces_of_codim(1)), vector)))


def boundary_datum(poset, K, rng):
    """A symbol whose codim-1 vector is D_2 of a random 2-chain."""
    D2 = incidence_matrix(poset, 2)
    return codim1_datum(poset, K, D2.apply([random_element(rng, K.k1) for _ in range(D2.cols)], K.k1))


def corner_graph_counts(poset) -> tuple[int, int]:
    """(c, b_1) of the corner graph, by union-find over the columns of D_2."""
    D2 = incidence_matrix(poset, 2)
    root = list(range(D2.rows))

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    for col in D2.columns():
        a, b = (i for i, x in enumerate(col) if x)
        root[find(a)] = find(b)
    c = sum(find(v) == v for v in range(D2.rows))
    return c, D2.cols - D2.rows + c


def test_codim2_boundary_is_a_signed_incidence_matrix():
    # every corner column of D_2 holds one +1 and one -1, nothing else
    rng = random.Random(2026)
    posets = [kgon(k) for k in (3, 4, 7, 12, 31)] + [cube(d) for d in range(2, 6)]
    posets += [random_codim2_poset(rng, rng.randint(6, 60)) for _ in range(200)]
    for poset in posets:
        require_valid(poset)
        for col in incidence_matrix(poset, 2).columns():
            assert sorted(x for x in col if x) == [-1, 1]


def test_obstruction_space_matches_the_corner_graph_closed_forms():
    rng = random.Random(153)
    posets = [square(), kgon(9), two_component_poset()]
    posets += [random_codim2_poset(rng, rng.randint(8, 40)) for _ in range(30)]
    for poset in posets:
        c, b1 = corner_graph_counts(poset)
        for _ in range(2):
            k0, k1 = rng.choice(GROUPS), rng.choice(GROUPS)
            rep = codim2_obstruction_space(poset, KTheoryInput(k0, k1))
            assert (rep.left, rep.right) == (power(k1, c), power(k0, b1))


def test_obstruction_space_raises_when_homology_leaves_the_closed_form(monkeypatch):
    real = obstruction._periodized

    def one_z_too_many(*args):
        even, odd = real(*args)
        return even, direct_sum(odd, Z)

    monkeypatch.setattr(obstruction, "_periodized", one_z_too_many)
    with pytest.raises(InternalConsistencyError):
        codim2_obstruction_space(square(), KTheoryInput.circle())


def test_codim2_verdict_agrees_with_the_smith_solve():
    # the SNF solve of D_2 x = b is the oracle of the forest solve, and
    # both kinds of certificate are checked here without the forest
    rng = random.Random(1103)
    n_posets, negatives = 40, 0
    for _ in range(n_posets):
        poset = random_codim2_poset(rng, rng.randint(8, 50))
        edges = [f.id for f in poset.faces_of_codim(1)]
        D2 = incidence_matrix(poset, 2)
        for group in GROUPS:
            K = KTheoryInput(Z, group)
            boundary = D2.apply([random_element(rng, group) for _ in range(D2.cols)], group)
            bumped = list(boundary)
            if not group.is_trivial():
                bumped[rng.randrange(len(edges))] += generator(group)
            noise = [random_element(rng, group) for _ in edges]
            for b in (boundary, bumped, noise):
                verdict = codim2_vanishes(poset, K, codim1_datum(poset, K, b))
                assert verdict.codim1_class_vanishes == (abelian.solve(D2, group, b) is not None)
                if verdict.codim1_class_vanishes:
                    assert verdict.witness is None
                    assert verdict.certificate.boundary() == b
                    continue
                negatives += 1
                assert verdict.certificate is None
                phi = [int(e in verdict.witness) for e in edges]
                assert all(sum(p * x for p, x in zip(phi, col)) == 0 for col in D2.columns())
                assert not sum((e for p, e in zip(phi, b) if p), group.zero()).is_zero()
    # every bumped boundary over a nontrivial group is negative
    assert negatives >= n_posets * 4


def test_codim2_witness_is_the_first_failing_component():
    poset = two_component_poset()
    K = KTheoryInput.circle()
    one = generator(K.k1)
    zero = K.k1.zero()
    # sums: e0 + e1 + e2 on the first component, e3 + e4 on the second
    for vector, witness in (
        ([one, zero, -one, one, zero], ("e3", "e4")),
        ([zero, one, zero, one, one], ("e0", "e1", "e2")),
        ([one, -one, zero, zero, zero], None),
    ):
        verdict = codim2_vanishes(poset, K, codim1_datum(poset, K, vector))
        assert verdict.witness == witness
        assert verdict.codim1_class_vanishes == (witness is None)
    verdict = codim1_vanishes(interval(), K, datum_for(interval(), K, codim1={"e1": one}))
    assert not verdict.vanishes and verdict.witness is None


def test_corner_graph_rejects_a_column_that_is_not_plus_minus_one():
    # unvalidated posets: a corner with one parent, with both parents the
    # same edge, or with the interior as a parent
    for parents in ({"h0": "e1"}, {"h0": "e1", "h1": "e1"}, {"h0": "int", "h1": "e0"}):
        poset = FacePoset.build(
            ["h0", "h1"],
            [
                ("int", 0, (), {}),
                ("e0", 1, ("h0",), {"h0": "int"}),
                ("e1", 1, ("h1",), {"h1": "int"}),
                ("c0", 2, ("h0", "h1"), parents),
            ],
        )
        with pytest.raises(InternalConsistencyError):
            obstruction._corner_graph(poset)
        assert "corner_graph" not in poset._derived_memo  # a rejected poset stores nothing


def test_forest_solve_raises_when_its_answer_misses_the_target():
    # negative control: a tree edge whose sign is flipped in the sweep gives
    # an x with D_2 x != target, which the solve's own check must refuse
    for poset in (square(), kgon(7), two_component_poset()):
        graph = obstruction._corner_graph(poset)
        (v, e, s, u), *rest = graph.sweep
        flipped = graph._replace(sweep=((v, e, -s, u), *rest))
        a, b = graph.ends[e]
        for group in (Z, zmod(4), zmod(0, 3)):
            # the leaf v's residual is its own entry, +-1 in the first slot
            target = [group.zero()] * len(graph.vertices)
            target[a], target[b] = generator(group), -generator(group)
            assert obstruction._forest_solve(graph, group, target, None)[1] is None
            with pytest.raises(InternalConsistencyError, match="forest solve produced x with D_2 x != target"):
                obstruction._forest_solve(flipped, group, target, None)


def test_component_witness_refuses_a_wrong_indicator():
    # negative controls: a component tuple that splits a corner's two
    # edges, and a component whose indices sum to 0 (mod d)
    graph = obstruction._corner_graph(two_component_poset())
    assert graph.component == (0, 0, 0, 1, 1)
    assert obstruction._component_witness(graph, 0, [1, 0, 0, 0, 0], 0) == ("e0", "e1", "e2")
    corrupted = graph._replace(component=(0, 1, 0, 1, 1))
    with pytest.raises(InternalConsistencyError, match="component 0 indicator does not kill D_2"):
        obstruction._component_witness(corrupted, 0, [1, 0, 0, 0, 0], 0)
    for values, d in (([1, -1, 0, 5, 0], 0), ([3, 0, 1, 0, 0], 4), ([0] * 5, 2)):
        with pytest.raises(InternalConsistencyError, match="component 0 indicator kills the index vector"):
            obstruction._component_witness(graph, 0, values, d)


# ---------------------------------------------------------------------------
# the derived-structure memo: corner graph and incidence matrices per poset


def test_corner_graph_and_incidence_matrices_are_built_once_per_poset(monkeypatch):
    graphs = count_calls(monkeypatch, obstruction, "_build_corner_graph")
    matrices = count_calls(monkeypatch, conormal, "_incidence")
    K = KTheoryInput(Z, zmod(0, 4))
    rng = random.Random(1900)
    poset = random_codim2_poset(rng, 40)
    shown = (repr(poset), hash(poset))
    for _ in range(3):
        codim2_vanishes(poset, K, boundary_datum(poset, K, rng))
        codim2_vanishes(poset, K, codim1_datum(poset, K, [generator(K.k1)] * len(poset.faces_of_codim(1))))
        codim2_obstruction_space(poset, K)
        build_complex(FilteredPair(poset, -1, 2), K.k1)
    assert len(graphs) == 1
    assert sorted(p for _, p in matrices) == [1, 2]
    assert (repr(poset), hash(poset)) == shown and poset == dataclasses.replace(poset)
    # an equal poset built anew, or a copy, starts with a memo of its own
    anew, copied = random_codim2_poset(random.Random(1900), 40), dataclasses.replace(poset)
    for other in (anew, copied):
        assert other == poset and (repr(other), hash(other)) == shown
        codim2_vanishes(other, K, boundary_datum(other, K, rng))
    assert len(graphs) == 3 and len(matrices) == 4
    # the memo keeps only immutable values: matrices, a graph of tuples and
    # the invariants homology reads off D_2 of (X_2, X_0), D_1 being zeroed
    # there: (rank, invariants > 1) over Z and mod 4
    assert set(poset._derived_memo) == {
        ("incidence", 1), ("incidence", 2), "corner_graph", ("invariants", 2, 0), ("invariants", 2, 4)
    }
    for key, value in poset._derived_memo.items():
        if key == "corner_graph":
            assert type(value) is obstruction._CornerGraph
            assert all(type(part) is tuple for part in value)
        elif key[0] == "incidence":
            assert type(value) is abelian.IntegerHom and value == incidence_matrix(anew, key[1])
    # the invariants mod 4 are gcd(d, 4) for the integer ones d, 4 meaning 0
    diagonal = abelian.smith_normal_form(incidence_matrix(anew, 2)).diagonal
    mod_4 = sorted(gcd(d, 4) for d in diagonal)
    assert poset._derived_memo[("invariants", 2, 0)] == (sum(1 for d in diagonal if d), tuple(d for d in diagonal if d > 1))
    assert poset._derived_memo[("invariants", 2, 4)] == (sum(e < 4 for e in mod_4), tuple(e for e in mod_4 if 1 < e < 4))


def test_a_warm_memo_still_checks_the_forest_solve():
    # negative control: a planted graph with one tree-edge sign flipped
    # makes the next verdict's D_2 x = b check fire, however warm the memo
    K = KTheoryInput(Z, zmod(0, 4))
    for poset in (square(), kgon(7), two_component_poset()):
        graph = obstruction._corner_graph(poset)
        (v, e, s, u), *rest = graph.sweep
        target = [K.k1.zero()] * len(graph.vertices)
        a, b = graph.ends[e]
        target[a], target[b] = generator(K.k1), -generator(K.k1)
        datum = codim1_datum(poset, K, target)
        assert codim2_vanishes(poset, K, datum).codim1_class_vanishes
        poset._derived_memo["corner_graph"] = graph._replace(sweep=((v, e, -s, u), *rest))
        with pytest.raises(InternalConsistencyError, match="forest solve produced x with D_2 x != target"):
            codim2_vanishes(poset, K, datum)


def test_a_warm_memo_still_checks_the_component_witness():
    # negative control: a planted graph whose component tuple splits a
    # corner's two edges makes the next negative verdict's witness check fire
    poset, K = two_component_poset(), KTheoryInput.circle()
    one, zero = generator(K.k1), K.k1.zero()
    datum = codim1_datum(poset, K, [one, zero, zero, zero, zero])
    assert codim2_vanishes(poset, K, datum).witness == ("e0", "e1", "e2")
    graph = obstruction._corner_graph(poset)
    poset._derived_memo["corner_graph"] = graph._replace(component=(0, 1, 0, 1, 1))
    with pytest.raises(InternalConsistencyError, match="component 0 indicator does not kill D_2"):
        codim2_vanishes(poset, K, datum)


# ---------------------------------------------------------------------------
# connection matrices


def test_connection_matrices_examples():
    assert connection_matrices(interval(), 1).entries == ((1, 1),)
    assert connection_matrices(mobius_total(), 1).entries == ((1,),)
    d2 = connection_matrices(square(), 2)
    assert d2.rows == 4 and d2.cols == 4
    for j in range(4):
        assert sum(d2.entries[i][j] for i in range(4)) == 0


def test_connection_matrices_match_differentials():
    for name, poset in gallery_posets():
        for p in range(1, poset.codimension() + 1):
            assert connection_matrices(poset, p) == incidence_matrix(poset, p)
    with pytest.raises(ValueError):
        connection_matrices(square(), 3)


def test_connection_matrices_index_the_poset_at_most_once(monkeypatch):
    # each sign is read off the two Face objects, not looked up entry by entry
    lookups = count_calls(monkeypatch, faces.FacePoset, "by_id")
    for p in (1, 2):
        before = len(lookups)
        connection_matrices(square(), p)
        assert len(lookups) - before <= 1


def test_connection_matrices_sign_only_the_nonzero_entries(monkeypatch):
    # each column is read off its face's own parents: one incidence_sign
    # call per nonzero entry, two per corner of a k-gon at p = 2
    signs = count_calls(monkeypatch, faces.Face, "incidence_sign")
    for k in (3, 8, 64):
        for p, per_face in ((1, 1), (2, 2)):
            before = len(signs)
            mat = connection_matrices(kgon(k), p)
            assert len(signs) - before == per_face * k == sum(map(len, mat.nonzero))
    before = len(signs)
    mat = connection_matrices(cube(3), 3)
    assert len(signs) - before == 3 * 8 == sum(map(len, mat.nonzero))


def test_connection_matrices_report_a_sign_that_disagrees(monkeypatch):
    monkeypatch.setattr(faces.Face, "incidence_sign", lambda face, parent: 1)
    connection_matrices(kgon(4), 1)  # every codim-1 sign is +1 anyway
    with pytest.raises(InternalConsistencyError, match="disagree with the chain differential"):
        connection_matrices(kgon(4), 2)


def test_a_warm_memo_still_checks_the_connection_matrices():
    # negative control: a planted D_2 with one sign flipped no longer
    # matches the signs read off the faces, warm memo or not
    poset = kgon(6)
    d2 = connection_matrices(poset, 2)
    (row, x), *rest = d2.nonzero[0]
    flipped = abelian.IntegerHom(d2.rows, d2.cols, (((row, -x), *rest), *d2.nonzero[1:]))
    poset._derived_memo[("incidence", 2)] = flipped
    with pytest.raises(InternalConsistencyError, match="pairwise relative signs disagree"):
        connection_matrices(poset, 2)
