import itertools
import random

import pytest

from cornerindex import abelian, conormal, faces
from cornerindex.abelian import FGAbelianGroup, IntegerHom
from cornerindex.conormal import (
    _homology_gens,
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
    count_calls,
    gallery_posets,
    homology_gens_by_solving,
    random_valid_poset,
    reference_smith_normal_form,
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


def test_empty_pair_complex():
    c = build_complex(FilteredPair(square(), 0, 0), Z)
    assert c.degrees == ()
    result = homology(c)
    assert result.periodized == (TRIVIAL, TRIVIAL)


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


@pytest.mark.parametrize(
    ("n_boundaries", "c", "snf_calls"),
    [pytest.param(n, 0, 2, id=str(n)) for n in (0, 1, 4, 12)]
    + [pytest.param(n, 3, 3, id=f"{n}-mod3") for n in (0, 1, 4, 12)],
)
def test_integer_homology_factors_each_matrix_once(monkeypatch, n_boundaries, c, snf_calls):
    # the boundary's factorization gives the kernel basis and each relation's
    # coordinates in it, and the presentation takes one more: two SNFs
    # however many columns; over Z/c the cycle basis mod c and the
    # coordinates come from a second factorization, of the top block of
    # ker [Dp | c*I], so three
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
    group, reps = _homology_gens(Dp, Dp1, c)
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
        assert _homology_gens(Dp, Dp1, c) == homology_gens_by_solving(Dp, Dp1, c)

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
    homologies = count_calls(monkeypatch, conormal, "homology")
    validations = count_calls(monkeypatch, faces, "validate")
    six_term(square(), -1, 0, 2, FGAbelianGroup(1, (4,)))
    assert (len(homologies), len(validations)) == (3, 1)
    connected_boundary_ses(square(), FGAbelianGroup(1, (4,)))
    assert (len(homologies), len(validations)) == (6, 2)


def test_six_term_and_boundary_ses_read_each_pair_complex(monkeypatch):
    # the three pairs of the triple build their incidence matrices once;
    # homology, presentations and arrows read them from those complexes
    incidences = count_calls(monkeypatch, conormal, "incidence_matrix")
    snfs = count_calls(monkeypatch, abelian, "smith_normal_form")
    six_term(square(), -1, 0, 2, FGAbelianGroup(1, (4,)))
    assert (len(incidences), len(snfs)) == (6, 84)
    connected_boundary_ses(square(), FGAbelianGroup(1, (4,)))
    assert (len(incidences), len(snfs)) == (12, 84 + 57)


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
    from cornerindex.abelian import IntegerHom
    from cornerindex.conormal import (
        _block_map,
        _blocks,
        _node_exact,
        _presentation,
        _EMPTY_PRES,
    )

    poset = interval()
    absolute_cx = build_complex(FilteredPair(poset, -1, 1), Z)
    relative_cx = build_complex(FilteredPair(poset, 0, 1), Z)
    boundary_cx = build_complex(FilteredPair(poset, -1, 0), Z)
    absolute = _presentation(absolute_cx, 1, 0)
    relative = _presentation(relative_cx, 1, 0)
    boundary0 = _presentation(boundary_cx, 0, 0)
    include = _block_map(
        _blocks(absolute_cx, 1), _blocks(relative_cx, 1), {(1, 1): IntegerHom.identity(2)}
    )
    connect = _block_map(
        _blocks(relative_cx, 1), _blocks(boundary_cx, 0), {(1, 0): incidence_matrix(poset, 1)}
    )
    broken = IntegerHom.zero(boundary0.n, relative.n)
    out_right = IntegerHom.zero(0, boundary0.n)

    assert _node_exact(include, absolute, relative, connect, boundary0)
    assert not _node_exact(include, absolute, relative, broken, boundary0)
    assert _node_exact(connect, relative, boundary0, out_right, _EMPTY_PRES)
    assert not _node_exact(broken, relative, boundary0, out_right, _EMPTY_PRES)


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
