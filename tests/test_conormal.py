import ast
import dataclasses
import itertools
import random
import tracemalloc
from functools import cached_property, partial
from math import gcd, prod
from pathlib import Path

import pytest

from cornerindex import abelian, conormal, faces
from cornerindex.abelian import FGAbelianGroup, IntegerHom, InternalConsistencyError, tensor
from cornerindex.conormal import (
    ChainVector,
    ConormalChainComplex,
    _Path,
    build_complex,
    connected_boundary_ses,
    connecting_map,
    homology,
    incidence_matrix,
    orientation_sign,
    periodize,
    six_term,
)
from cornerindex.faces import FacePoset, FilteredPair, InvalidPosetError
from cornerindex.families import gallery, quotient_family

from helpers import (
    bareiss_det,
    count_calls,
    cube,
    first_column,
    gallery_posets,
    homology_gens_by_solving,
    kgon,
    one_column,
    product,
    random_codim2_poset,
    random_valid_poset,
    random_torsion_pair,
    rebind,
    reference_homology,
    reference_six_term_maps,
    reference_smith_normal_form,
    torsion_complex,
    uct_assembly,
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


# ---------------------------------------------------------------------------
# orientation signs


def test_orientation_sign_examples():
    assert orientation_sign((1, 3)) == ((1, 3), 1)
    assert orientation_sign((3, 1)) == ((1, 3), -1)
    assert orientation_sign((2, 3, 1)) == ((1, 2, 3), 1)


def test_orientation_sign_rejects_duplicates():
    with pytest.raises(ValueError):
        orientation_sign((1, 1))


def test_orientation_sign_adjacent_swap_flips():
    rng = random.Random(31)
    for _ in range(100):
        n = rng.randint(2, 6)
        perm = rng.sample(range(10), n)
        _, sign = orientation_sign(perm)
        k = rng.randrange(n - 1)
        swapped = perm[:]
        swapped[k], swapped[k + 1] = swapped[k + 1], swapped[k]
        _, sign2 = orientation_sign(swapped)
        assert sign2 == -sign


# ---------------------------------------------------------------------------
# complexes


def test_interval_boundary_matrix():
    c = build_complex(FilteredPair(interval(), -1, 1), Z)
    assert c.boundary[1].entries == ((1, 1),)


def test_square_relative_boundary_matrix():
    c = build_complex(FilteredPair(square(), 0, 2), Z)
    assert c.boundary[1].is_zero()  # quotiented degree
    d2 = c.boundary[2]
    basis1 = c.bases[1]
    basis2 = c.bases[2]
    # column of corner (i, j): +1 at the edge missing i, -1 at the edge missing j
    expected = {
        "c13": {"e3": 1, "e1": -1},
        "c14": {"e4": 1, "e1": -1},
        "c23": {"e3": 1, "e2": -1},
        "c24": {"e4": 1, "e2": -1},
    }
    for j, corner in enumerate(basis2):
        for i, edge in enumerate(basis1):
            assert d2.entries[i][j] == expected[corner].get(edge, 0)


def test_incidence_matrix_is_stored_by_its_nonzero_entries():
    # D_2 of the 1000-gon holds 2000 entries; dense rows would keep 7.9 MB
    poset = kgon(1000)
    poset.faces_of_codim(1), poset.faces_of_codim(2)
    tracemalloc.start()
    try:
        d2 = incidence_matrix(poset, 2)
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept < 1 << 20
    assert sum(map(len, d2.nonzero)) == 2000


def test_empty_pair_complex():
    c = build_complex(FilteredPair(square(), 0, 0), Z)
    assert c.degrees == ()
    result = homology(c)
    assert result.periodized == (TRIVIAL, TRIVIAL)


def test_chain_vector_checks_degree_length_and_group():
    complex = build_complex(FilteredPair(square(), 0, 2), Z)
    ChainVector(complex, 2, (Z.zero(),) * complex.dim(2))
    with pytest.raises(abelian.DimensionError, match="outside the complex"):
        ChainVector(complex, 0, ())
    with pytest.raises(abelian.DimensionError, match="coordinate count"):
        ChainVector(complex, 2, (Z.zero(),) * (complex.dim(2) + 1))
    with pytest.raises(abelian.GroupMismatchError, match="coordinate parent"):
        ChainVector(complex, 2, (zmod(2).zero(),) * complex.dim(2))


def test_build_complex_rejects_invalid_poset():
    bad = FacePoset.build(
        ["s1"],
        [("int", 0, (), {}), ("e", 1, ("s1",), {})],
    )
    with pytest.raises(InvalidPosetError):
        build_complex(FilteredPair(bad, -1, 1), Z)


def test_boundary_squared_zero_fuzz():
    rng = random.Random(44)
    for _ in range(100):
        poset = random_valid_poset(rng, connected=rng.random() < 0.7)
        d = poset.codimension()
        c = build_complex(FilteredPair(poset, -1, d), Z)
        for p in c.degrees:
            if p + 1 in c.boundary:
                assert c.boundary[p].compose(c.boundary[p + 1]).is_zero()


# ---------------------------------------------------------------------------
# homology


def test_interval_absolute_homology():
    r = homology(build_complex(FilteredPair(interval(), -1, 1), Z))
    assert r.groups[1] == Z
    assert r.groups[0] == TRIVIAL
    assert r.periodized == (TRIVIAL, Z)


def test_mobius_absolute_homology():
    r = homology(build_complex(FilteredPair(mobius_total(), -1, 1), Z))
    assert r.groups[1] == TRIVIAL
    assert r.groups[0] == TRIVIAL


def test_square_relative_homology():
    r = homology(build_complex(FilteredPair(square(), 0, 2), Z))
    assert r.groups[1] == Z
    assert r.groups[2] == Z
    assert r.periodized == (Z, Z)


def test_square_corner_matrix_cokernel():
    from cornerindex.abelian import cokernel, kernel_group

    d2 = incidence_matrix(square(), 2)
    assert cokernel(d2, Z) == Z
    assert kernel_group(d2, Z) == Z


def test_representatives_are_cycles():
    rng = random.Random(91)
    for _ in range(30):
        poset = random_valid_poset(rng)
        d = poset.codimension()
        low = rng.randint(-1, d)
        high = rng.randint(low, d)
        G = rng.choice([Z, zmod(2), zmod(6), FGAbelianGroup(1, (4,))])
        c = build_complex(FilteredPair(poset, low, high), G)
        r = homology(c)
        for p, vectors in r.representatives.items():
            for v in vectors:
                assert all(e.is_zero() for e in v.boundary())


@pytest.mark.parametrize("c", [2, 3, 4, 6])
def test_representatives_generate_the_homology(c):
    # enumerative: the boundaries mod c, closed under adding each
    # representative, are exactly the cycles mod c
    G = FGAbelianGroup(0, (c,))
    rng = random.Random(400 + c)
    posets = [interval(), square(), mobius_total()] + [random_valid_poset(rng, max_faces=8) for _ in range(30)]
    checked = generators = 0
    for poset in posets:
        d = poset.codimension()
        for low, high in sorted({(-1, d), (0, d), (-1, d - 1), (rng.randint(-1, d), d)}):
            complex = build_complex(FilteredPair(poset, low, high), G)
            if any(c ** complex.dim(p) > 5000 for p in complex.degrees):
                continue
            r = homology(complex)
            for p in complex.degrees:
                n, dp = complex.dim(p), complex.boundary[p]
                cycles = {
                    x for x in itertools.product(range(c), repeat=n) if all(v % c == 0 for v in dp.apply_int(x))
                }
                reps = [[e.tors[0] for e in v.coords] for v in r.representatives[p]]
                reached = {(0,) * n}
                for g in complex.boundary_or_zero(p + 1).columns() + reps:
                    reached = {tuple((a + k * b) % c for a, b in zip(x, g)) for x in reached for k in range(c)}
                assert reached == cycles
                generators += len(reps)
            checked += 1
    assert checked >= 60 and generators >= 90


def _enumeration_order(complex, p):
    G = complex.coefficient
    n = complex.dim(p)
    dp = complex.boundary[p]
    dp1 = complex.boundary_or_zero(p + 1)
    elements = list(G.elements())
    zero = [G.zero()] * dp.rows
    cycles = sum(
        1
        for x in itertools.product(elements, repeat=n)
        if dp.apply(list(x), G) == zero
    )
    boundaries = {
        tuple(dp1.apply(list(y), G))
        for y in itertools.product(elements, repeat=dp1.cols)
    }
    return cycles // len(boundaries)


def test_homology_order_matches_enumeration():
    rng = random.Random(17)
    done = 0
    while done < 25:
        poset = random_valid_poset(rng, max_faces=8)
        d = poset.codimension()
        G = rng.choice([zmod(2), zmod(3), zmod(4)])
        low = rng.randint(-1, d)
        high = rng.randint(low, d)
        c = build_complex(FilteredPair(poset, low, high), G)
        if any(G.order() ** c.dim(p) > 4000 for p in c.degrees):
            continue
        r = homology(c)
        for p in c.degrees:
            assert r.groups[p].order() == _enumeration_order(c, p)
        done += 1


def test_direct_vs_uct_on_torsion_coefficients():
    rng = random.Random(202)
    coefficients = [zmod(2), zmod(6), FGAbelianGroup(1, (4,)), FGAbelianGroup(2, (2, 4))]
    for _ in range(60):
        poset = random_valid_poset(rng, connected=rng.random() < 0.7)
        d = poset.codimension()
        low = rng.randint(-1, d)
        high = rng.randint(low, d)
        G = rng.choice(coefficients)
        c = build_complex(FilteredPair(poset, low, high), G)
        r = homology(c)  # already asserts agreement internally
        assert r.groups == uct_assembly(c)


ENGINE_MODULI = (2, 3, 4, 6, 8, 9, 12, 10**18 + 3)


def _engine_posets():
    """Products, random codimension-2 posets and the gallery's totals."""
    rng = random.Random(2800)
    posets = [product(cube(1), kgon(3)), product(cube(1), kgon(5)), product(kgon(3), kgon(4))]
    posets += [product(cube(2), random_codim2_poset(rng, 9)), product(mobius_total(), cube(1))]
    posets += [random_codim2_poset(rng, rng.randint(8, 40)) for _ in range(10)]
    return posets + [poset for _, poset in gallery_posets()]


def test_split_degrees_present_the_group_the_cycle_path_finds():
    # in every degree, split or not, the group read off the invariants of
    # D_p and D_{p+1} mod c is the one the SNF path of the cycles over
    # [D_p | c*I] presents; the torsion complexes below reach the blocks
    # with no unit entry that these posets rarely leave
    checked = 0
    for poset in _engine_posets():
        d = poset.codimension()
        for low, high in itertools.combinations(range(-1, d + 1), 2):
            for c in ENGINE_MODULI:
                complex = build_complex(FilteredPair(poset, low, high), zmod(c))
                summands = homology(complex).summands
                for p in complex.degrees:
                    group, _ = _Path(c).homology(complex.boundary[p], complex.boundary_or_zero(p + 1))
                    assert FGAbelianGroup.from_cyclics(summands[p, c]) == group, (poset, low, high, p, c)
                    checked += 1
    assert checked > 2000, checked


TORSION_MODULI = (2, 3, 4, 6, 8, 9, 12, 36)


def test_every_degree_of_a_torsion_complex_presents_the_group_the_cycle_path_finds():
    # the oracle for the residual block: on complexes C_2 -A-> C_1 -B-> C_0
    # with B A = 0 and torsion over Z, each degree's group from the
    # invariants, over Z and over Z/c, is the one the SNF path presents,
    # including in the cases where B or A has an invariant mod c that is
    # neither 1 nor 0
    rng = random.Random(2901)
    residual = 0
    for _ in range(600):
        B, A = random_torsion_pair(rng)
        assert B.compose(A).is_zero()
        for c in (0,) + TORSION_MODULI:
            complex = torsion_complex(B, A, zmod(c))
            summands = homology(complex).summands
            for p in complex.degrees:
                group, _ = _Path(c).homology(complex.boundary[p], complex.boundary_or_zero(p + 1))
                assert FGAbelianGroup.from_cyclics(summands[p, c]) == group, (B, A, c, p)
            residual += bool(c) and any(complex.pair.base._derived_memo["invariants", q, c][1] for q in (1, 2))
    assert residual > 2000, residual


def test_invariants_mod_reads_a_block_with_no_unit_off_its_smith_diagonal():
    # [[2, 3]] mod 6 is onto Z/6, but no entry is a unit; [[2]] and [[6]]
    # mod 4 each leave the invariant 2; diag(2, 3) mod 6 is diag(1, 0).  A
    # unit met after a pivot, or in a row a pass has already gone by, is
    # still taken, and a prime modulus never leaves a block
    invariants = conormal._invariants_mod
    assert invariants(IntegerHom.from_rows([[2, 3]]), 6) == (1, ())
    assert invariants(IntegerHom.from_rows([[2]]), 4) == (1, (2,))
    assert invariants(IntegerHom.from_rows([[6]]), 4) == (1, (2,))
    assert invariants(IntegerHom.from_rows([[2, 0], [0, 3]]), 6) == (1, ())
    assert invariants(IntegerHom.from_rows([[4, 8], [12, -4]]), 4) == (0, ())
    assert invariants(IntegerHom.from_rows([[2]]), 10**18 + 3) == (1, ())
    assert invariants(IntegerHom.from_rows([[2, 0], [1, 1], [0, 3]]), 4) == (2, ())
    assert invariants(IntegerHom.from_rows([[2, 2], [1, 3]]), 4) == (1, ())
    assert invariants(IntegerHom.from_rows([[2, 0], [0, 6], [0, 0]]), 12) == (2, (2, 6))
    assert invariants(IntegerHom.from_rows([[1, 1], [1, 3]]), 4) == (2, (2,))
    assert invariants(IntegerHom.zero(3, 0), 4) == invariants(IntegerHom.zero(0, 3), 4) == (0, ())


def test_invariants_mod_are_the_integer_invariants_taken_mod_c():
    # the Smith invariants of A mod c are gcd(d, c) for the integer ones d,
    # c standing for 0: checked against the unoptimized dense kernel
    rng = random.Random(2902)
    for _ in range(300):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        A = IntegerHom.from_rows([[rng.choice((0, 0, 1, 2, 3, 4, -6, 9)) for _ in range(cols)] for _ in range(rows)])
        D = reference_smith_normal_form(A).D.row_list()
        for c in TORSION_MODULI:
            mod_c = sorted(gcd(D[i][i] if i < A.cols else 0, c) for i in range(A.rows))
            assert conormal._invariants_mod(A, c) == (sum(e < c for e in mod_c), tuple(e for e in mod_c if 1 < e < c))


@pytest.mark.parametrize("stuck", ["every", "odd widths"])
def test_homology_through_the_stuck_branch_matches_the_reference(monkeypatch, stuck):
    # with no unit taken as a pivot, on every boundary matrix or on every
    # one of odd width, those left stuck go mod c through the Smith
    # diagonal of [block | c*I]; groups, periodized groups and
    # representatives still equal the frozen reference's
    real = conormal._invariants_mod
    blocks = count_calls(monkeypatch, IntegerHom, "with_multiples")
    forced, unforced, inside = [], [], 0

    def no_unit_pivot(A, c):
        nonlocal inside
        if stuck == "odd widths" and not A.cols % 2:
            unforced.append(A)
            return real(A, c)
        forced.append(A)
        before = len(blocks)
        with monkeypatch.context() as m:
            m.setattr(conormal, "gcd", lambda x, c: 0)
            invariants = real(A, c)
        inside += len(blocks) - before
        return invariants

    monkeypatch.setattr(conormal, "_invariants_mod", no_unit_pivot)
    rng = random.Random(2900)
    posets = [cube(3), product(cube(1), kgon(4)), mobius_total()] + [random_codim2_poset(rng, 20) for _ in range(3)]
    for G in (zmod(4), FGAbelianGroup(1, (4,)), FGAbelianGroup(2, (2, 6)), zmod(12)):
        for poset in posets:
            d = poset.codimension()
            for low, high in ((-1, d), (0, d), (-1, d - 1)):
                complex = build_complex(FilteredPair(dataclasses.replace(poset), low, high), G)
                result = homology(complex)
                eager = reference_homology(complex)
                assert (result.groups, result.periodized) == (eager.groups, eager.periodized)
                assert result.representatives == eager.representatives
    assert inside == len(forced) > 30, (inside, len(forced))
    assert (stuck == "every") == (not unforced), len(unforced)


@pytest.mark.parametrize("off", [1, -1])
def test_a_unit_rank_off_by_one_raises_through_the_coefficient_check(monkeypatch, off):
    # mutation control: a rank r mod c one too high or too low changes a
    # Z/c summand, and the assembly from the Smith diagonals over Z says so
    real = conormal._invariants_mod

    def mutated(A, c):
        r, N = real(A, c)
        return max(0, r + off), N

    monkeypatch.setattr(conormal, "_invariants_mod", mutated)
    for G in (zmod(4), FGAbelianGroup(1, (4,)), zmod(10**18 + 3)):
        for poset in (cube(2), cube(3), kgon(5)):
            with pytest.raises(InternalConsistencyError, match="coefficient assembly"):
                homology(build_complex(FilteredPair(poset, -1, poset.codimension()), G))


def test_a_dropped_residual_invariant_raises_through_the_coefficient_check(monkeypatch):
    # mutation control: an invariant mod c strictly between 1 and c left
    # out loses its Z/e summand, which the Tor part of the assembly keeps
    real = conormal._invariants_mod

    def mutated(A, c):
        r, N = real(A, c)
        return r, N[1:]

    monkeypatch.setattr(conormal, "_invariants_mod", mutated)
    rng = random.Random(2903)
    raised = 0
    for _ in range(200):
        B, A = random_torsion_pair(rng)
        for c in TORSION_MODULI:
            if real(B, c)[1] or real(A, c)[1]:
                with pytest.raises(InternalConsistencyError, match="coefficient assembly"):
                    homology(torsion_complex(B, A, zmod(c)))
                raised += 1
    assert raised > 300, raised


def test_cycles_that_present_another_group_raise_when_read():
    # mutation control for the check on first read of the cycles: cyclic
    # orders that the cycle path of their degree does not present
    result = homology(build_complex(FilteredPair(cube(2), -1, 2), FGAbelianGroup(1, (4,))))
    key = next(key for key, orders in result.summands.items() if key[1] == 4 and any(e != 1 for e in orders))
    wrong = dataclasses.replace(result, summands={**result.summands, key: ()})
    with pytest.raises(InternalConsistencyError, match=f"presents another group in degree {key[0]}"):
        wrong.cycles
    assert result.cycles.keys() == result.groups.keys()


def _doubled(A: IntegerHom) -> IntegerHom:
    return IntegerHom(A.rows, A.cols, tuple(tuple((i, 2 * x) for i, x in column) for column in A.nonzero))


@pytest.mark.parametrize("G", [Z, zmod(4), FGAbelianGroup(1, (4,))], ids=["Z", "Z4", "Z+Z4"])
def test_a_hand_built_or_edited_complex_leaves_the_poset_invariants_alone(G):
    # the poset keeps the invariants of its own incidence matrices only: a
    # complex with D_1 doubled (D_1 D_2 is still 0), whether built by hand
    # on a cold poset or edited after build_complex on a warm one, reads
    # its own and stores nothing, and the poset's complexes keep theirs
    poset = cube(2)
    pair = FilteredPair(poset, -1, 2)
    built = build_complex(pair, G)
    doubled = {**built.boundary, 1: _doubled(built.boundary[1])}
    by_hand = ConormalChainComplex(pair, G, built.degrees, built.bases, doubled)
    assert homology(by_hand).groups[0] == tensor(zmod(2), G) != TRIVIAL
    assert not any(key[:2] == ("invariants", 1) for key in poset._derived_memo)
    assert homology(build_complex(pair, G)).groups[0] == TRIVIAL
    edited = build_complex(pair, G)
    edited.boundary[1] = _doubled(edited.boundary[1])
    for complex in (by_hand, edited, build_complex(pair, G)):
        result, reference = homology(complex), reference_homology(complex)
        assert (result.groups, result.periodized) == (reference.groups, reference.periodized)
        assert result.representatives == reference.representatives


def test_cycles_mod_c_short_of_full_rank_raise_when_read(monkeypatch):
    # mutation control: a kernel of [D_p | c*I] that lost a column is not
    # the full-rank cycle lattice mod c, and the first read of the cycles
    # says so
    result = homology(build_complex(FilteredPair(cube(2), -1, 2), zmod(4)))
    kernel_of = abelian.SNFDecomposition.kernel

    def short(self):
        kernel = kernel_of(self)
        return IntegerHom(kernel.rows, kernel.cols - 1, kernel.nonzero[:-1])

    monkeypatch.setattr(abelian.SNFDecomposition, "kernel", short)
    with pytest.raises(InternalConsistencyError, match="cycle lattice mod c is not full rank"):
        result.cycles


@pytest.mark.parametrize("G", [Z, zmod(4)], ids=["Z", "Z4"])
def test_a_relation_outside_the_cycles_raises_when_read(G):
    # mutation control: with one sign of D_2 flipped, D_1 D_2 is not 0, so
    # a relation of degree 1 is not a cycle, and the first read of the
    # cycles says so
    complex = build_complex(FilteredPair(cube(2), -1, 2), G)
    D2 = complex.boundary[2]
    (row, x), *rest = D2.nonzero[0]
    complex.boundary[2] = IntegerHom(D2.rows, D2.cols, (((row, -x), *rest), *D2.nonzero[1:]))
    with pytest.raises(InternalConsistencyError, match="a relation escapes the cycle lattice"):
        homology(complex).cycles


@pytest.mark.parametrize("c", [0, 4])
def test_boundary_ses_with_a_zeroed_connecting_map_raises(monkeypatch, c):
    # mutation control: with the connecting map D_1 of the triple (-1, 0, d)
    # zeroed, H_1(X, X_0) -> H_0(X_0) is not onto, and the sequence says so
    G = zmod(c)  # zmod(0) is Z
    connected_boundary_ses(square(), G)
    triple_of = conormal._triple

    def breaking(*args):
        complexes, arrow = triple_of(*args)

        def broken_arrow(j, p):
            part = arrow(j, p)
            return IntegerHom.zero(part.rows, part.cols) if j == 2 else part

        return complexes, broken_arrow

    monkeypatch.setattr(conormal, "_triple", breaking)
    message = f"boundary short exact sequence fails with cyclic coefficient {c}"
    with pytest.raises(InternalConsistencyError, match=message):
        connected_boundary_ses(square(), G)


@pytest.mark.parametrize(
    ("n_boundaries", "c", "snf_calls"),
    [pytest.param(n, 0, 2, id=str(n)) for n in (0, 1, 4, 12)]
    + [pytest.param(n, 3, 2, id=f"{n}-mod3") for n in (0, 1, 4, 12)],
)
def test_integer_homology_factors_each_matrix_once(monkeypatch, n_boundaries, c, snf_calls):
    # the boundary's factorization gives the kernel basis and each relation's
    # coordinates in it, and the presentation takes one more: two SNFs
    # however many columns; over Z/c the one factorization is of
    # [Dp | c*I], whose kernel's top block is the cycle basis mod c, so two
    rng = random.Random(n_boundaries)
    m = 5
    Dp = IntegerHom.from_rows([[1] * m])
    cycles = [[1 if i == j else -1 if i == j + 1 else 0 for i in range(m)] for j in range(m - 1)]
    columns = []
    for _ in range(n_boundaries):
        coeffs = [rng.randint(-2, 2) for _ in cycles]
        columns.append([sum(a * c[i] for a, c in zip(coeffs, cycles)) for i in range(m)])
    Dp1 = IntegerHom.from_rows(
        [[col[i] for col in columns] for i in range(m)], width=n_boundaries
    )
    calls = count_calls(monkeypatch, abelian, "smith_normal_form")
    group, reps = _Path(c).homology(Dp, Dp1)
    assert len(calls) == snf_calls
    assert group.rank + len(group.torsion) == len(reps)


@pytest.mark.parametrize("c", [0, 2, 3, 4, 6])
def test_homology_gens_reuse_the_cycle_factorization(c):
    # the cycle basis has full column rank, so the coordinates its own
    # factorization gives are the solutions a second factorization found
    rng = random.Random(300 + c)
    for _ in range(40):
        rows, cols = rng.randint(0, 5), rng.randint(0, 7)
        Dp = IntegerHom.from_rows(
            [[rng.choice((0, 0, 1, -1, 2)) for _ in range(cols)] for _ in range(rows)], width=cols
        )
        s = reference_smith_normal_form(Dp)
        n_cycles = cols - s.rank
        n_boundaries = rng.randint(0, 5)
        # Dp1 = (kernel basis of Dp) * R, so that Dp * Dp1 = 0
        combos = [[rng.randint(-2, 2) for _ in range(n_boundaries)] for _ in range(n_cycles)]
        Dp1 = IntegerHom.from_rows(
            [
                [sum(row[s.rank + k] * combos[k][j] for k in range(n_cycles)) for j in range(n_boundaries)]
                for row in s.V_inv.entries
            ],
            width=n_boundaries,
        )
        assert Dp.compose(Dp1).is_zero()
        assert _Path(c).homology(Dp, Dp1) == homology_gens_by_solving(Dp, Dp1, c)


@pytest.mark.parametrize("c", [2, 3, 4, 6])
def test_cycle_basis_mod_c_matches_an_independent_oracle(monkeypatch, c):
    # the cycles mod c are a lattice of index |im(Dp mod c)|, the product
    # of c / gcd(c, d) over the invariant factors d of Dp; the basis is
    # checked against that without the library's SNF, and the one SNF it
    # takes is of [Dp | c*I], never of Dp, so that the integer homology's
    # factorization and the one behind the mod-c side stay apart
    rng = random.Random(900 + c)
    snfs = count_calls(monkeypatch, abelian, "smith_normal_form")
    for _ in range(300):
        rows, cols = rng.randint(1, 5), rng.randint(1, 7)
        Dp = IntegerHom.from_rows(
            [[rng.choice((0, 0, 0, 1, -1, 2, -2, 3, 4, 6)) for _ in range(cols)] for _ in range(rows)]
        )
        snfs.clear()
        path = _Path(c)
        basis, _ = path.lattices(Dp, IntegerHom.zero(cols, 0))
        coordinates = partial(path.coordinates, Dp)
        # a zero Dp has the identity basis, with no SNF at all
        assert snfs == ([] if Dp.is_zero() else [(Dp.with_multiples(c),)])
        assert all(v % c == 0 for x in basis.columns() for v in Dp.apply_int(x))
        index = prod(c // gcd(c, d) for d in reference_smith_normal_form(Dp).diagonal if d)
        assert abs(bareiss_det(basis.row_list())) == index
        for _ in range(3):
            y = [rng.randint(-3, 3) for _ in range(cols)]
            assert coordinates(one_column(basis.apply_int(y))).column(0) == y
        for _ in range(3):
            x = [rng.randint(-3, 3) for _ in range(cols)]
            y = first_column(coordinates(one_column(x)))
            if any(v % c for v in Dp.apply_int(x)):
                assert y is None
            else:
                assert basis.apply_int(y) == x
        for j, column in enumerate(Dp.columns()):
            if any(v % c for v in column):
                assert coordinates(one_column([int(i == j) for i in range(cols)])) is None


@pytest.mark.parametrize("c", [0, 2, 4])
@pytest.mark.parametrize(("rows", "cols"), [(0, 3), (2, 3), (2, 0), (0, 0)])
def test_cycle_basis_of_a_zero_boundary_is_the_identity(monkeypatch, rows, cols, c):
    # every chain is a cycle, over Z and mod c: no SNF, and a batch of
    # cycles is its own coordinates; a matrix of the wrong height raises
    snfs = count_calls(monkeypatch, abelian, "smith_normal_form")
    path, Dp = _Path(c), IntegerHom.zero(rows, cols)
    basis, _ = path.lattices(Dp, IntegerHom.zero(cols, 0))
    assert snfs == [] and basis == IntegerHom.identity(cols)
    x = [3, -1, 4][:cols]
    assert path.coordinates(Dp, one_column(x)).column(0) == x
    assert path.coordinates(Dp, one_column(tuple(x))).column(0) == x
    with pytest.raises(abelian.DimensionError):
        path.coordinates(Dp, one_column(x + [0]))


def test_homology_and_exactness_walk_one_log_per_batch(monkeypatch):
    # the cycle basis, the relations' coordinates in it and the cokernel
    # generators of the representatives are one product each: three walks
    # in a degree with a nonzero D_p, only the generators' walk in a zeroed
    # one; an exactness check walks once for its kernel and once per
    # inclusion, and not for a kernel of a zero matrix, which takes no SNF
    walks = count_calls(monkeypatch, abelian, "_replay")
    per_call: dict[str, list] = {"homology": [], "exact": []}

    def counted(name):
        real = getattr(_Path, name)

        def counting(*args):
            before = len(walks)
            result = real(*args)
            per_call[name].append((args, len(walks) - before))
            return result

        monkeypatch.setattr(_Path, name, counting)

    counted("homology")
    counted("exact")
    poset, G = cube(3), FGAbelianGroup(1, (4,))
    six_term(poset, -1, 0, 3, G)
    # the six-term groups come from the boundary invariants; the cycles of
    # the triple's three pairs are built when read
    assert per_call["homology"] == []
    for low, high in ((-1, 0), (-1, 3), (0, 3)):
        homology(build_complex(FilteredPair(poset, low, high), G)).representatives
    gens, checks = per_call["homology"], per_call["exact"]
    assert {n for args, n in gens if not args[1].is_zero()} == {3}
    assert {n for args, n in gens if args[1].is_zero()} == {1}
    assert len(checks) > 10 and {n for _, n in checks} == {2, 3}
    for (_, _, _, (cycles, _), f_out, (_, tgt_relations)), n in checks:
        assert n == 2 + (not f_out.compose(cycles).hstack(tgt_relations).is_zero())


def _lift_cases():
    rng = random.Random(808)
    posets = [poset for _, poset in gallery_posets()] + [cube(d) for d in (1, 2, 3, 4)]
    posets += [kgon(7), kgon(16)] + [random_valid_poset(rng) for _ in range(20)]
    for poset in posets:
        d = poset.codimension()
        yield from (FilteredPair(poset, low, high) for low, high in ((-1, d), (0, d)))


@pytest.mark.parametrize(
    "G", [Z, zmod(4), FGAbelianGroup(1, (4,)), FGAbelianGroup(2, (2, 6))], ids=["Z", "Z4", "Z+Z4", "Z2+Z2+Z6"]
)
def test_lazy_representatives_match_eager_ones(G):
    # representatives lifted on first read are the ones the eager homology
    # built, in the same order; groups and periodized groups agree too
    for pair in _lift_cases():
        complex = build_complex(pair, G)
        lazy, eager = homology(complex), reference_homology(complex)
        assert (lazy.groups, lazy.periodized) == (eager.groups, eager.periodized)
        assert lazy.representatives == eager.representatives


def test_homology_lifts_representatives_only_when_read(monkeypatch):
    lifted = count_calls(monkeypatch, conormal, "ChainVector")
    results = [
        homology(build_complex(FilteredPair(poset, -1, poset.codimension()), FGAbelianGroup(2, (2, 6))))
        for poset in (square(), cube(3), mobius_total())
    ]
    assert lifted == []
    for r in results:
        first = r.representatives
        n = sum(len(vectors) for vectors in first.values())
        assert len(lifted) == n == sum(g.rank + len(g.torsion) for g in r.groups.values())
        assert r.representatives == first and len(lifted) == n
        lifted.clear()


def _elementary_divisors(group):
    out = []
    for d in group.torsion:
        n = d
        p = 2
        while p * p <= n:
            while n % p == 0:
                e = 1
                while n % (p ** (e + 1)) == 0:
                    e += 1
                out.append(p**e)
                n //= p**e
            p += 1
        if n > 1:
            out.append(n)
    return sorted(out)


def test_periodization_preserves_rank_and_torsion():
    rng = random.Random(55)
    for _ in range(40):
        poset = random_valid_poset(rng)
        d = poset.codimension()
        G = rng.choice([Z, zmod(4), FGAbelianGroup(1, (2,))])
        c = build_complex(FilteredPair(poset, -1, d), G)
        r = homology(c)
        even, odd = periodize(r)
        assert even.rank + odd.rank == sum(g.rank for g in r.groups.values())
        combined = sorted(
            _elementary_divisors(even) + _elementary_divisors(odd)
        )
        per_degree = sorted(
            sum((_elementary_divisors(g) for g in r.groups.values()), [])
        )
        assert combined == per_degree


# ---------------------------------------------------------------------------
# connecting maps and six-term sequences


def test_connecting_map_examples():
    assert connecting_map(interval(), -1, 0, 1, Z).entries == ((1, 1),)
    sq = square()
    d2 = connecting_map(sq, 0, 1, 2, Z)
    assert d2 == incidence_matrix(sq, 2)
    trivial_map = connecting_map(sq, 0, 1, 1, Z)
    assert trivial_map.cols == 0


def test_connecting_map_range_errors():
    with pytest.raises(ValueError):
        connecting_map(square(), -2, 0, 2, Z)
    with pytest.raises(ValueError):
        connecting_map(square(), 1, 0, 2, Z)


def test_pairing_connecting_equals_differential():
    for name, poset in gallery_posets():
        d = poset.codimension()
        c = build_complex(FilteredPair(poset, -1, d), Z)
        for p in range(1, d + 1):
            assert connecting_map(poset, p - 2, p - 1, p, Z) == c.boundary[p]


def test_six_term_codim2_zero_positions():
    for G in [Z, zmod(2), FGAbelianGroup(1, (4,))]:
        st = six_term(square(), 0, 1, 2, G)
        assert st.groups["h1_lm"].is_trivial()
        assert st.groups["h0_mq"].is_trivial()


def test_six_term_trivial_triple():
    st = six_term(square(), 1, 1, 1, Z)
    assert all(g.is_trivial() for g in st.groups.values())


def test_six_term_connected_boundary_triple():
    # triple (empty, X_0, X): the absolute odd part injects into the relative one
    st = six_term(interval(), -1, 0, 1, Z)
    assert st.groups["h1_lq"] == Z
    assert st.groups["h1_lm"] == FGAbelianGroup(2)
    assert st.groups["h0_mq"] == Z
    assert st.groups["h0_lq"] == TRIVIAL


def test_six_term_and_boundary_ses_compute_each_pair_once(monkeypatch):
    # one homology per pair and one validation pass per poset object
    homologies = count_calls(monkeypatch, conormal, "homology")
    validations = count_calls(monkeypatch, faces, "_violations")
    six_term(square(), -1, 0, 2, FGAbelianGroup(1, (4,)))
    assert (len(homologies), len(validations)) == (3, 1)
    connected_boundary_ses(square(), FGAbelianGroup(1, (4,)))
    assert (len(homologies), len(validations)) == (6, 2)


def test_six_term_and_boundary_ses_read_each_pair_complex(monkeypatch):
    # the three pairs of the triple build their incidence matrices once,
    # and none at a bottom degree, whose D_p is zero; homology's invariants
    # and the arrows read them from those complexes.  Homology factors D_1
    # and D_2 once for their Smith diagonals, and each exactness path of
    # one call factors each (c, matrix) once: 17 and 10 SNFs
    incidences = count_calls(monkeypatch, conormal, "incidence_matrix")
    snfs = count_calls(monkeypatch, abelian, "smith_normal_form")
    six_term(square(), -1, 0, 2, FGAbelianGroup(1, (4,)))
    assert (len(incidences), len(snfs)) == (3, 2 + 17)
    connected_boundary_ses(square(), FGAbelianGroup(1, (4,)))
    assert (len(incidences), len(snfs)) == (6, 19 + 2 + 10)


def _snf_split(monkeypatch):
    """``split(run)``: the SNFs ``run`` takes inside :func:`homology` and
    outside it, in the exactness checks."""
    snfs = count_calls(monkeypatch, abelian, "smith_normal_form")
    inside = []
    homology_of = conormal.homology

    def counted(complex):
        before = len(snfs)
        result = homology_of(complex)
        inside.append(len(snfs) - before)
        return result

    monkeypatch.setattr(conormal, "homology", counted)

    def split(run):
        before, seen = len(snfs), len(inside)
        run()
        in_homology = sum(inside[seen:])
        return in_homology, len(snfs) - before - in_homology

    return split


def test_exactness_memo_lives_for_one_call_and_the_invariants_on_the_poset(monkeypatch):
    G = FGAbelianGroup(1, (4,))
    split = _snf_split(monkeypatch)

    # the exactness memo is made inside each call and never reads the
    # poset's: a second call takes the same exactness SNFs, cold or warm;
    # homology's are the Smith diagonals of D_1 and D_2, once per poset
    poset = square()
    assert [split(lambda: six_term(poset, -1, 0, 2, G)) for _ in range(2)] == [(2, 17), (0, 17)]
    poset = square()
    assert [split(lambda: connected_boundary_ses(poset, G)) for _ in range(2)] == [(2, 10), (0, 10)]
    warm = square()
    six_term(warm, -1, 0, 2, G)
    assert split(lambda: connected_boundary_ses(warm, G)) == (0, 10)

    # the invariants live on the poset object; homology keeps nothing else
    poset = square()
    shown = (repr(poset), hash(poset))
    pair = FilteredPair(poset, -1, 2)
    assert [split(lambda: conormal.homology(build_complex(pair, G))) for _ in range(2)] == [(2, 0), (0, 0)]
    assert (repr(poset), hash(poset)) == shown and poset == square()
    anew, copied = square(), dataclasses.replace(poset)
    assert anew == poset == copied and (repr(copied), hash(copied)) == shown
    for other in (anew, copied):
        assert split(lambda: conormal.homology(build_complex(FilteredPair(other, -1, 2), G))) == (2, 0)


def test_homology_of_a_six_cube_pair_cold_and_warm(monkeypatch):
    # (X_6, X_4): both degrees read the groups off D_6 alone, D_5 being
    # zeroed, so one SNF for its Smith diagonal and none for its rank mod
    # 4; warm, none at all.  The cycles of each result, built when read:
    # the bottom degree 5 takes no SNF for its cycles, and its relations
    # are their own coordinates, the matrix the top degree 6 factors for
    # its cycles; so one SNF per modulus for that and one to present
    # degree 6
    snfs = count_calls(monkeypatch, abelian, "smith_normal_form")
    pair = FilteredPair(cube(6), 4, 6)
    cold = homology(build_complex(pair, FGAbelianGroup(1, (4,))))
    assert len(snfs) == 1
    warm = homology(build_complex(pair, FGAbelianGroup(1, (4,))))
    assert len(snfs) == 1
    assert warm.groups == cold.groups and len(snfs) == 1
    assert warm.cycles == cold.cycles and len(snfs) == 1 + 4 + 4


def _decompositions_by_path(monkeypatch, run):
    """Run ``run`` and return (made, reads, born, used, invariants).
    ``made`` lists (path, A, decomposition) for every Smith normal form
    taken and ``reads`` (path, decomposition) for every question asked of
    one, where the path is the ``_Path`` object at work, or "invariant"
    inside :func:`conormal._boundary_invariant`.  ``born`` maps each path
    to the call that made it, ("homology", k), ("exactness", k) or
    ("cycles", k) for the k-th call of :func:`homology`, of the exactness
    driver or of a first read of ``HomologyResult.cycles``; ``used`` lists
    (call, path) for every call of a path's method, and ``invariants`` the
    call at work for every call of the invariants helper."""
    call: list = [None]
    active: list = [None]
    made, reads, born, used, invariants = [], [], {}, [], []

    def within(slot, label, fn):
        def scoped(*args, **kwargs):
            outer, slot[0] = slot[0], label(args)
            try:
                return fn(*args, **kwargs)
            finally:
                slot[0] = outer

        return scoped

    real_snf = abelian.smith_normal_form

    def recording(A, cancel=None):
        made.append((active[0], A, real_snf(A, cancel=cancel)))
        return made[-1][2]

    rebind(monkeypatch, abelian, "smith_normal_form", recording)
    for name in ("kernel", "kernel_coordinates", "contains", "column_coordinates", "cokernel_presentation"):
        method = getattr(abelian.SNFDecomposition, name)

        def reading(self, *args, method=method):
            reads.append((active[0], self))
            return method(self, *args)

        rebind(monkeypatch, abelian.SNFDecomposition, name, reading)

    init = conormal._Path.__init__

    def making(self, c):
        init(self, c)
        born[self] = call[0]

    monkeypatch.setattr(conormal._Path, "__init__", making)
    for name, method in list(vars(conormal._Path).items()):
        if callable(method) and not name.startswith("__"):

            def working(self, *args, method=method):
                used.append((call[0], self))
                return within(active, lambda _: self, method)(self, *args)

            monkeypatch.setattr(conormal._Path, name, working)
    invariant = conormal._boundary_invariant

    def reading_invariants(*args):
        invariants.append(call[0])
        return within(active, lambda _: "invariant", invariant)(*args)

    monkeypatch.setattr(conormal, "_boundary_invariant", reading_invariants)
    calls = itertools.count()
    for kind, name in (("homology", "homology"), ("exactness", "_first_inexact")):
        monkeypatch.setattr(
            conormal, name, within(call, lambda _, kind=kind: (kind, next(calls)), getattr(conormal, name))
        )
    cycles = cached_property(
        within(call, lambda _: ("cycles", next(calls)), conormal.HomologyResult.cycles.func)
    )
    cycles.__set_name__(conormal.HomologyResult, "cycles")
    monkeypatch.setattr(conormal.HomologyResult, "cycles", cycles)
    run()
    return made, reads, born, used, invariants


def _then_cycles(check):
    """``check`` on the 3-cube at Z + Z/4, then the cycles of (X_3, X_-1)."""

    def run():
        poset, G = cube(3), FGAbelianGroup(1, (4,))
        check(poset, G)
        conormal.homology(build_complex(FilteredPair(poset, -1, 3), G)).cycles

    return run


@pytest.mark.parametrize("run", [
    pytest.param(_then_cycles(lambda poset, G: six_term(poset, -1, 0, 3, G)), id="six_term"),
    pytest.param(_then_cycles(connected_boundary_ses), id="boundary_ses"),
])
def test_each_path_reads_only_the_decompositions_it_made(monkeypatch, run):
    # the cycles of a result and the exactness checks, each such call,
    # and the Z and Z/4 halves of each, are paths of their own: every
    # question goes to a decomposition its own path made, a path works only
    # inside the call that made it, and no path factors a matrix twice
    made, reads, born, used, invariants = _decompositions_by_path(monkeypatch, run)
    maker = {id(s): path for path, _, s in made}
    assert None not in maker.values() and None not in {path for path, _ in reads}
    assert None not in born.values()
    assert all(maker[id(s)] is path for path, s in reads)
    assert all(born[path] == where for where, path in used)
    for path in born:
        matrices = [A for made_by, A, _ in made if made_by is path]
        assert len(matrices) == len(set(matrices)), born[path]
    # the invariants are read inside homology only, never by the exactness
    # driver nor by a path; they factor each incidence matrix once, for its
    # diagonal, and no question is asked of that decomposition
    assert invariants and {kind for kind, _ in invariants} == {"homology"}
    diagonals = [A for path, A, _ in made if path == "invariant"]
    assert sorted(A.cols for A in diagonals) == sorted(len(cube(3).faces_of_codim(p)) for p in (1, 2, 3))
    assert "invariant" not in {path for path, _ in reads}
    # not vacuous: both kinds of path and both moduli take part, each path
    # asks some decomposition a second question, and some matrix factored
    # for the cycles is factored again, apart, by the exactness checks
    paths = {path for path in maker.values() if path != "invariant"}
    assert {(born[path][0], path.c) for path in paths} == {
        (kind, c) for kind in ("cycles", "exactness") for c in (0, 4)
    }
    assert len(reads) > len({id(s) for _, s in reads})
    by_kind = {kind: {A for path, A, _ in made if path in paths and born[path][0] == kind} for kind in ("cycles", "exactness")}
    assert by_kind["cycles"] & by_kind["exactness"]


def test_paths_are_made_only_by_the_cycles_and_the_exactness_driver():
    # the package names _Path only to make one in the cycles of a homology
    # result and in the exactness driver, and in annotations, so no two of
    # them can share one, and homology itself makes none
    makers = []
    for file in sorted(Path(conormal.__file__).parent.glob("*.py")):
        for top in ast.parse(file.read_text(encoding="utf-8")).body:
            nodes = list(ast.walk(top))
            annotations = {
                id(inner)
                for node in nodes
                for note in (getattr(node, "annotation", None), getattr(node, "returns", None))
                if note is not None
                for inner in ast.walk(note)
            }
            calls = {id(node.func) for node in nodes if isinstance(node, ast.Call)}
            for node in nodes:
                named = isinstance(node, ast.Name) and node.id == "_Path" and isinstance(node.ctx, ast.Load)
                if (named or isinstance(node, ast.Attribute) and node.attr == "_Path") and id(node) not in annotations:
                    makers.append((file.name, getattr(top, "name", ""), id(node) in calls))
    assert sorted(makers) == [
        ("conormal.py", "HomologyResult", True),
        ("conormal.py", "_first_inexact", True),
    ]


def test_six_term_on_the_five_cube_factors_each_matrix_once_per_call_and_path(monkeypatch):
    # six_term(-1, 0, 5) at Z + Z/4: one path per call and modulus factors
    # each matrix once, and a zero one not at all, so the exactness checks
    # take 35 distinct SNFs; the groups take the Smith diagonals of D_1,
    # ..., D_5, which the Z path of the checks factors too
    snfs = count_calls(monkeypatch, abelian, "smith_normal_form")
    six_term(cube(5), -1, 0, 5, FGAbelianGroup(1, (4,)))
    assert (len(snfs), len(set(snfs))) == (5 + 35, 35)


def test_no_path_factors_a_zero_matrix_for_its_kernel(monkeypatch):
    # the kernel of a zero matrix is the identity, taken with no SNF on any
    # path, so the exactness checks no longer factor the 0 x k matrices of
    # a zero target; n x 0 presentations and inclusions still take one
    snfs = count_calls(monkeypatch, abelian, "smith_normal_form")
    kernel_of, zero_kernels = _Path.kernel, []

    def kernel(self, A):
        before = len(snfs)
        result = kernel_of(self, A)
        if A.is_zero():
            zero_kernels.append(len(snfs) - before)
        return result

    monkeypatch.setattr(_Path, "kernel", kernel)
    six_term(cube(5), -1, 0, 5, FGAbelianGroup(1, (4,)))
    assert [A for (A,) in snfs if not A.rows] == []
    assert zero_kernels and set(zero_kernels) == {0}


@pytest.mark.parametrize(
    "G", [Z, zmod(4), FGAbelianGroup(1, (4,)), FGAbelianGroup(2, (2, 6))], ids=["Z", "Z4", "Z+Z4", "Z2+Z2+Z6"]
)
def test_homology_with_a_warm_memo_equals_homology_on_a_fresh_poset(G):
    rng = random.Random(1700)
    posets = [poset for _, poset in gallery_posets()] + [cube(d) for d in (1, 2, 3)]
    posets += [kgon(5)] + [random_valid_poset(rng, max_faces=16) for _ in range(6)]
    for poset in posets:
        d = poset.codimension()
        pairs = list(itertools.combinations_with_replacement(range(-1, d + 1), 2))
        rng.shuffle(pairs)
        for low, high in pairs:
            warm = homology(build_complex(FilteredPair(poset, low, high), G))
            cold = homology(build_complex(FilteredPair(dataclasses.replace(poset), low, high), G))
            assert (warm.groups, warm.periodized, warm.cycles) == (cold.groups, cold.periodized, cold.cycles)
            assert warm.representatives == cold.representatives
        assert any(key[0] == "invariants" for key in poset._derived_memo)


def test_a_mutated_result_leaves_the_memo_unchanged():
    G = FGAbelianGroup(1, (4,))
    poset = cube(3)
    pair = FilteredPair(poset, 0, 3)
    first = homology(build_complex(pair, G))
    for vectors in first.cycles.values():
        for _, vector in vectors:
            vector[:] = [x + 1 for x in vector]
        vectors.append((0, [7]))
    first.groups.clear()
    later = homology(build_complex(pair, G))
    fresh = homology(build_complex(FilteredPair(cube(3), 0, 3), G))
    assert (later.groups, later.cycles, later.representatives) == (fresh.groups, fresh.cycles, fresh.representatives)
    # the poset memo keeps no group, factorization, cycle basis or cycle:
    # beside the incidence matrices it holds the invariants, over Z and
    # mod 4 pairs of an int and a tuple of ints
    invariants = {key: value for key, value in poset._derived_memo.items() if key[0] != "incidence"}
    assert {(key[0], key[2]) for key in invariants} == {("invariants", 0), ("invariants", 4)}
    for (r, N) in invariants.values():
        assert type(r) is int and type(N) is tuple and all(type(e) is int for e in N)


def test_incidence_matrices_are_built_once_per_poset_and_degree(monkeypatch):
    # every call still goes through incidence_matrix, which builds D_p on
    # the first read only; an equal poset or a copy builds its own
    calls = count_calls(monkeypatch, conormal, "incidence_matrix")
    builds = count_calls(monkeypatch, conormal, "_incidence")
    poset = cube(3)
    shown = (repr(poset), hash(poset))
    pairs = list(itertools.combinations_with_replacement(range(-1, 4), 2))
    for _ in range(2):
        for low, high in pairs:
            build_complex(FilteredPair(poset, low, high), Z)
    assert sorted(p for _, p in builds) == [1, 2, 3]
    # one call per degree p > low + 1: the bottom degree's D_p is zeroed
    assert len(calls) == 2 * sum(max(0, high - low - 1) for low, high in pairs)
    assert (repr(poset), hash(poset)) == shown and poset == cube(3)
    for other in (cube(3), dataclasses.replace(poset)):
        build_complex(FilteredPair(other, -1, 3), Z)
    assert len(builds) == 9
    assert all(type(value) is IntegerHom for value in poset._derived_memo.values())


def test_build_complex_reads_the_face_ids_kept_on_the_poset():
    # each degree's basis is the poset's own tuple of face ids, built on
    # first read, in the chain basis order of faces_of_codim
    poset = cube(3)
    for low, high in itertools.combinations_with_replacement(range(-1, 4), 2):
        complex = build_complex(FilteredPair(poset, low, high), Z)
        for p in complex.degrees:
            assert complex.bases[p] is poset.face_ids_of_codim(p)
            assert complex.bases[p] == tuple(f.id for f in poset.faces_of_codim(p))
    assert poset.face_ids_of_codim(7) == () and cube(0).face_ids_of_codim(1) == ()


def test_a_warm_memo_still_checks_that_the_boundary_squares_to_zero():
    # negative control: a planted D_3 with one sign flipped breaks
    # D_2 D_3 = 0, and the next build of a complex that holds both says so
    poset = cube(3)
    build_complex(FilteredPair(poset, -1, 3), Z)
    d3 = incidence_matrix(poset, 3)
    (row, x), *rest = d3.nonzero[0]
    poset._derived_memo[("incidence", 3)] = IntegerHom(d3.rows, d3.cols, (((row, -x), *rest), *d3.nonzero[1:]))
    build_complex(FilteredPair(poset, 1, 3), Z)  # D_2 is zeroed there
    with pytest.raises(InternalConsistencyError, match="boundary squared is nonzero"):
        build_complex(FilteredPair(poset, -1, 3), Z)


def test_each_poset_memo_is_read_only_by_its_owners():
    # in the package, only incidence_matrix, _boundary_invariant and
    # _corner_graph name the derived-structure memo, the poset's one
    # algebra memo
    assert [name for name in vars(FacePoset) if name.endswith("_memo")] == ["_derived_memo"]
    owners = {
        "_derived_memo": {
            ("conormal.py", "incidence_matrix"),
            ("conormal.py", "_boundary_invariant"),
            ("obstruction.py", "_corner_graph"),
        },
    }
    found = {name: set() for name in owners}
    outside = []
    for path in sorted(Path(conormal.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        # ast.walk goes outside in, so each node keeps its outermost function
        function_of = {}
        for function in ast.walk(tree):
            if isinstance(function, ast.FunctionDef):
                for node in ast.walk(function):
                    function_of.setdefault(id(node), function.name)
        for node in ast.walk(tree):
            name = getattr(node, "id", getattr(node, "attr", None))
            if name in owners and isinstance(node, (ast.Name, ast.Attribute)):
                where = (path.name, function_of.get(id(node)))
                if where in owners[name]:
                    found[name].add(where)
                else:
                    outside.append(f"{path.name}:{node.lineno}")
    assert outside == []
    assert found == owners


def test_six_term_exactness_random():
    rng = random.Random(7)
    for _ in range(15):
        poset = random_valid_poset(rng, max_faces=12)
        d = poset.codimension()
        q = rng.randint(-1, d)
        m = rng.randint(q, d)
        l = rng.randint(m, d)
        G = rng.choice([Z, zmod(2), zmod(6)])
        six_term(poset, q, m, l, G)  # raises on exactness failure


def test_exactness_checker_detects_failures():
    # negative control: a zeroed connecting map must break exactness
    poset = interval()

    def degree(low, high, p):
        complex = build_complex(FilteredPair(poset, low, high), Z)
        return _Path(0).lattices(complex.boundary[p], complex.boundary_or_zero(p + 1))

    absolute, relative, boundary0 = degree(-1, 1, 1), degree(0, 1, 1), degree(-1, 0, 0)
    include = IntegerHom.identity(2)
    connect = incidence_matrix(poset, 1)
    broken = IntegerHom.zero(connect.rows, connect.cols)
    out_right = IntegerHom.zero(0, connect.rows)
    nothing = (IntegerHom.zero(0, 0),) * 2

    assert _Path(0).exact(include, absolute, relative, connect, boundary0)
    assert not _Path(0).exact(include, absolute, relative, broken, boundary0)
    assert _Path(0).exact(connect, relative, boundary0, out_right, nothing)
    assert not _Path(0).exact(broken, relative, boundary0, out_right, nothing)


@pytest.mark.parametrize(
    ("poset", "triple", "broken", "node", "c"),
    [
        pytest.param(poset, triple, broken, node, c, id=name + (f"-Z{c}" if c else ""))
        for c in (0, 4)
        for name, poset, triple, broken, node in (
            ("cube3-projection-3", cube(3), (0, 1, 3), (1, 3), "h1_lq"),
            ("cube3-inclusion-1", cube(3), (0, 1, 3), (0, 1), "h1_mq"),
            ("pentagon-projection-2", kgon(5), (-1, 0, 2), (1, 2), "h0_lq"),
        )
    ],
)
def test_six_term_catches_a_break_in_one_degree(monkeypatch, poset, triple, broken, node, c):
    G = zmod(c)  # zmod(0) is Z
    six_term(poset, *triple, G)
    triple_of = conormal._triple

    def breaking(*args):
        complexes, arrow = triple_of(*args)

        def broken_arrow(j, p):
            part = arrow(j, p)
            return IntegerHom.zero(part.rows, part.cols) if (j, p) == broken else part

        return complexes, broken_arrow

    monkeypatch.setattr(conormal, "_triple", breaking)
    with pytest.raises(InternalConsistencyError, match=f"at {node} with cyclic coefficient {c}"):
        six_term(poset, *triple, G)


def test_six_term_maps_match_the_stacked_construction():
    rng = random.Random(11)
    posets = [poset for _, poset in gallery_posets()]
    posets += [cube(d) for d in (1, 2, 3)] + [kgon(3), kgon(5)]
    posets += [random_valid_poset(rng, max_faces=12) for _ in range(8)]
    for poset in posets:
        d = poset.codimension()
        for q, m, l in itertools.combinations_with_replacement(range(-1, d + 1), 3):
            for G in (Z, FGAbelianGroup(1, (4,))):
                expected = reference_six_term_maps(poset, q, m, l, G)
                assert six_term(poset, q, m, l, G).maps == expected


# ---------------------------------------------------------------------------
# the connected-boundary short exact sequence


def test_boundary_ses_interval():
    r = connected_boundary_ses(interval(), Z)
    assert (r.left, r.middle, r.right) == (Z, FGAbelianGroup(2), Z)
    assert r.exact


def test_boundary_ses_mobius():
    r = connected_boundary_ses(mobius_total(), Z)
    assert (r.left, r.middle, r.right) == (TRIVIAL, Z, Z)


def test_boundary_ses_codim1_middle_is_full_power():
    # with a single codimension, the relative complex has zero differential
    G = FGAbelianGroup(1, (4,))
    r = connected_boundary_ses(interval(), G)
    assert r.middle == FGAbelianGroup(2, (4, 4))


def test_boundary_ses_preconditions():
    disconnected = FacePoset.build(
        ["s1"],
        [("a", 0, (), {}), ("b", 0, (), {}), ("e", 1, ("s1",), {"s1": "a"})],
        connected=False,
    )
    with pytest.raises(ValueError):
        connected_boundary_ses(disconnected, Z)
    closed = FacePoset.build([], [("int", 0, (), {})])
    with pytest.raises(ValueError):
        connected_boundary_ses(closed, Z)
