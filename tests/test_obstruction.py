import random

import pytest

from cornerindex import abelian, conormal, faces
from cornerindex.abelian import FGAbelianGroup, smith_normal_form
from cornerindex.conormal import build_complex, incidence_matrix
from cornerindex.faces import FilteredPair
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

from helpers import count_calls, exhaustive_solve, gallery_posets, kgon, random_valid_poset

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
    homologies = count_calls(monkeypatch, conormal, "homology")
    validations = count_calls(monkeypatch, faces, "validate")
    codim1_groups(interval(), ktheory)
    assert (len(homologies), len(validations)) == (pairs_times_groups, 1)


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
    homologies = count_calls(monkeypatch, conormal, "homology")
    validations = count_calls(monkeypatch, faces, "validate")
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



def test_codim2_cancel_interrupts_the_factorization(monkeypatch):
    # the Smith normal form of D_2 is the one long step of a verdict; cancel
    # is polled at each of its pivot steps, not only after it returns
    poset = kgon(48)
    K = KTheoryInput(Z, Z, "K^1 = Z")
    D2 = incidence_matrix(poset, 2)
    rng = random.Random(48)
    values = D2.apply_int([rng.randint(-3, 3) for _ in range(D2.cols)])
    edges = [f.id for f in poset.faces_of_codim(1)]
    datum = datum_for(poset, K, codim1={e: Z.element([x], []) for e, x in zip(edges, values)})
    verdict = codim2_vanishes(poset, K, datum)
    assert verdict.vanishes and verdict.certificate is not None

    polls = []
    assert codim2_vanishes(poset, K, datum, cancel=lambda: polls.append(1)) == verdict
    assert len(polls) >= smith_normal_form(D2).rank

    returned = []
    real = abelian.smith_normal_form

    def recording(*args, **kwargs):
        result = real(*args, **kwargs)
        returned.append(result)
        return result

    def cancel():
        raise TimeoutError("cancelled")

    monkeypatch.setattr(abelian, "smith_normal_form", recording)
    with pytest.raises(TimeoutError):
        codim2_vanishes(poset, K, datum, cancel=cancel)
    assert returned == []

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
