import ast
import random
from pathlib import Path

import pytest

from cornerindex import abelian
from cornerindex.abelian import (
    DimensionError,
    Factorization,
    FGAbelianGroup,
    GroupMismatchError,
    IntegerHom,
    InternalConsistencyError,
    cokernel,
    direct_sum,
    integer_kernel_basis,
    integer_solve,
    kernel_group,
    lattice_column_basis,
    power,
    smith_normal_form,
    solve,
    tensor,
    tor,
)

from cornerindex.conormal import incidence_matrix

from helpers import (
    bareiss_det,
    cube,
    exhaustive_solve,
    gallery_posets,
    integer_solvable,
    kgon,
    minor_gcd_invariant_factors,
    modular_solvable,
    prime_power_canonical,
    random_codim2_poset,
    rank_mod_p,
    reference_smith_normal_form,
)

Z = FGAbelianGroup(1)
TRIVIAL = FGAbelianGroup(0)


def zmod(*ds):
    return FGAbelianGroup.from_cyclics(list(ds))


def hom(rows):
    return IntegerHom.from_rows(rows)


# ---------------------------------------------------------------------------
# canonical forms


def test_constructor_rejects_non_canonical():
    with pytest.raises(ValueError):
        FGAbelianGroup(0, (3, 2))  # no divisibility
    with pytest.raises(ValueError):
        FGAbelianGroup(0, (1,))
    with pytest.raises(ValueError):
        FGAbelianGroup(-1)


def test_from_cyclics_canonicalises():
    assert zmod(2, 3) == zmod(6)
    assert zmod(2, 4) == FGAbelianGroup(0, (2, 4))
    assert zmod(0, 30, 4) == FGAbelianGroup(1, (2, 60))
    assert zmod(1, 1) == TRIVIAL


def test_canonical_form_idempotent():
    rng = random.Random(7)
    for _ in range(200):
        cyclics = [rng.choice([0, 0, 2, 3, 4, 5, 6, 8, 9, 12]) for _ in range(rng.randint(0, 6))]
        g = FGAbelianGroup.from_cyclics(cyclics)
        again = FGAbelianGroup.from_cyclics(g.cyclic_summands())
        assert g == again


def test_from_cyclics_matches_prime_power_reference():
    rng = random.Random(31)
    pool = [0, 1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 16, 18, 25, 27, 30, 36, 49, 60, 64, 97, 210, 1024]
    for _ in range(500):
        moduli = [rng.choice(pool) * rng.choice([1, 1, 1, -1]) for _ in range(rng.randint(0, 7))]
        assert FGAbelianGroup.from_cyclics(moduli) == prime_power_canonical(moduli), moduli


def test_from_cyclics_large_prime_modulus():
    p = 1_000_000_000_000_000_003
    assert FGAbelianGroup.from_cyclics([p, p, 0]) == FGAbelianGroup(1, (p, p))
    assert FGAbelianGroup.from_cyclics([p, 2]) == FGAbelianGroup(0, (2 * p,))


def test_direct_sum_and_power():
    assert power(Z, 3) == FGAbelianGroup(3)
    assert direct_sum(zmod(2), zmod(4)) == FGAbelianGroup(0, (2, 4))
    assert direct_sum(zmod(2), zmod(3)) == zmod(6)
    assert direct_sum().is_trivial()
    assert power(FGAbelianGroup(1, (2, 4)), 2) == FGAbelianGroup(2, (2, 2, 4, 4))


def test_direct_sum_matches_enumeration_order():
    g = direct_sum(zmod(2), zmod(3))
    assert g.order() == 6
    assert len(list(g.elements())) == 6


def test_tensor_and_tor():
    assert tensor(Z, zmod(5)) == zmod(5)
    assert tensor(zmod(4), zmod(6)) == zmod(2)
    assert tensor(FGAbelianGroup(2), FGAbelianGroup(3)) == FGAbelianGroup(6)
    assert tor(Z, zmod(7)) == TRIVIAL
    assert tor(zmod(4), zmod(6)) == zmod(2)
    assert tor(FGAbelianGroup(1, (4,)), FGAbelianGroup(1, (8,))) == zmod(4)


# ---------------------------------------------------------------------------
# elements


def test_element_normalisation_and_arithmetic():
    g = FGAbelianGroup(1, (4,))
    a = g.element([3], [5])
    assert a.tors == (1,)
    b = g.element([-1], [3])
    assert (a + b).free == (2,)
    assert (a + b).tors == (0,)
    assert (-a).tors == (3,)
    assert (a - a).is_zero()
    assert a.scale(4).tors == (0,)


def test_element_parent_mismatch():
    with pytest.raises(GroupMismatchError):
        Z.element([1], []) + zmod(2).element([], [1])


# ---------------------------------------------------------------------------
# Smith normal form


def test_snf_spec_examples():
    assert smith_normal_form(hom([[1, 1]])).D.entries == ((1, 0),)
    assert smith_normal_form(hom([[2, 0], [0, 3]])).D.entries == ((1, 0), (0, 6))
    assert smith_normal_form(hom([[0]])).D.entries == ((0,),)


def test_snf_two_by_two_brute_force_oracle():
    # every 2x2 with small entries: diagonal must match the minors oracle
    for a in range(-3, 4):
        for b in range(-3, 4):
            for c in range(-3, 4):
                for d in range(-3, 4):
                    A = hom([[a, b], [c, d]])
                    s = smith_normal_form(A)
                    expected = minor_gcd_invariant_factors(A)
                    got = [x for x in s.diagonal if x != 0]
                    assert got == expected, (A.entries, got, expected)


def _check_decomposition(A):
    s = smith_normal_form(A)
    assert s.U.compose(s.D).compose(s.V) == A
    assert s.U.compose(s.U_inv) == IntegerHom.identity(A.rows)
    assert s.V.compose(s.V_inv) == IntegerHom.identity(A.cols)
    assert abs(bareiss_det(s.U.row_list())) == 1
    assert abs(bareiss_det(s.V.row_list())) == 1
    diag = s.diagonal
    for x, y in zip(diag, diag[1:]):
        assert x >= 0 and y >= 0
        if x:
            assert y % x == 0
        else:
            assert y == 0
    # off-diagonal must vanish
    for i in range(A.rows):
        for j in range(A.cols):
            if i != j:
                assert s.D.entries[i][j] == 0


def test_snf_fuzz_exact_decomposition():
    rng = random.Random(2024)
    for _ in range(1000):
        rows = rng.randint(0, 12)
        cols = rng.randint(0, 12)
        A = IntegerHom.from_rows(
            [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)], width=cols
        )
        _check_decomposition(A)


def test_snf_deterministic():
    rng = random.Random(5)
    for _ in range(50):
        A = IntegerHom.from_rows([[rng.randint(-9, 9) for _ in range(5)] for _ in range(4)])
        assert smith_normal_form(A) == smith_normal_form(A)


def test_snf_empty_dimensions():
    for rows, cols in [(0, 0), (0, 3), (3, 0)]:
        A = IntegerHom.zero(rows, cols)
        s = smith_normal_form(A)
        assert s.U.compose(s.D).compose(s.V) == A



def _random_snf_inputs():
    """Seeded dense, sparse unit and multiple-of-c matrices with 0 to 25
    rows and columns, empty shapes included."""
    rng = random.Random(77)
    out = [IntegerHom.zero(rows, cols) for rows, cols in ((0, 0), (0, 9), (9, 0))]

    def matrix(pick):
        rows, cols = rng.randint(0, 25), rng.randint(0, 25)
        return IntegerHom.from_rows([[pick() for _ in range(cols)] for _ in range(rows)], width=cols)

    for _ in range(40):
        out.append(matrix(lambda: rng.randint(-9, 9)))
        out.append(matrix(lambda: rng.choice((0, 0, 0, 0, 0, 0, 1, -1))))
    for c in (2, 3, 4, 6, 12):
        for _ in range(16):
            out.append(matrix(lambda: rng.choice((0, 0, 0, 1, -1, c, -c, 2 * c))))
    return out


def _boundary_matrices():
    posets = [poset for _, poset in gallery_posets()]
    posets += [cube(d) for d in (3, 4, 5)]
    posets += [kgon(k) for k in (16, 17, 31, 32, 33, 48, 63, 64)]
    return [incidence_matrix(poset, p) for poset in posets for p in range(1, poset.codimension() + 1)]


@pytest.mark.parametrize("inputs", [_random_snf_inputs, _boundary_matrices], ids=["random", "boundary"])
def test_snf_matches_frozen_reference_kernel(inputs):
    # the fast paths keep the pivot sequence, so U, D, V and both inverses
    # are the ones the unoptimized kernel computes, at any size
    for A in inputs():
        assert smith_normal_form(A) == reference_smith_normal_form(A)


def _prime_factors(n: int) -> set[int]:
    out, q = set(), 2
    while q * q <= n:
        while n % q == 0:
            out.add(q)
            n //= q
        q += 1
    return out | ({n} if n > 1 else set())


def test_invariant_factors_match_ranks_mod_p():
    # over F_p, A has as many pivots as invariant factors prime to p; the
    # minors oracle stops at tiny matrices, this one reaches boundary sizes
    rng = random.Random(150)
    gon = incidence_matrix(kgon(64), 2)
    five = cube(5)
    matrices = [gon, gon.with_multiples(4)]
    matrices += [incidence_matrix(five, p) for p in range(1, 6)]
    matrices += [incidence_matrix(random_codim2_poset(rng, 150), 2) for _ in range(3)]
    for A in matrices:
        factors = [d for d in smith_normal_form(A).diagonal if d]
        primes = {2, 3, 5}.union(*(_prime_factors(d) for d in factors))
        for p in sorted(primes):
            assert sum(1 for d in factors if d % p) == rank_mod_p(A, p), (A.rows, A.cols, p)

# ---------------------------------------------------------------------------
# kernels and cokernels


def test_cokernel_spec_examples():
    assert cokernel(hom([[1, 1]]), Z) == TRIVIAL
    assert cokernel(hom([[2]]), Z) == zmod(2)


def test_kernel_spec_examples():
    assert kernel_group(hom([[1, 1]]), Z) == Z
    assert kernel_group(hom([[1]]), zmod(4)) == TRIVIAL
    assert kernel_group(hom([[2]]), zmod(4)) == zmod(2)


def test_kernel_by_enumeration():
    rng = random.Random(11)
    for _ in range(60):
        rows, cols = rng.randint(1, 3), rng.randint(1, 3)
        A = IntegerHom.from_rows(
            [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)], width=cols
        )
        g = rng.choice([zmod(2), zmod(4), zmod(6), zmod(2, 4)])
        kernel = kernel_group(A, g)
        zero = [g.zero()] * rows
        count = sum(1 for x in _vectors(g, cols) if A.apply(list(x), g) == zero)
        assert kernel.order() == count


def _vectors(group, length):
    import itertools

    return itertools.product(list(group.elements()), repeat=length)


def test_cokernel_order_by_enumeration():
    rng = random.Random(13)
    for _ in range(60):
        rows, cols = rng.randint(1, 3), rng.randint(1, 3)
        A = IntegerHom.from_rows(
            [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)], width=cols
        )
        g = rng.choice([zmod(2), zmod(4), zmod(6), zmod(3, 3)])
        coker = cokernel(A, g)
        image = {tuple(A.apply(list(x), g)) for x in _vectors(g, cols)}
        assert coker.order() == g.order() ** rows // len(image)


def test_cokernel_per_summand_consistency():
    rng = random.Random(17)
    for _ in range(50):
        rows, cols = rng.randint(0, 4), rng.randint(0, 4)
        A = IntegerHom.from_rows(
            [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)], width=cols
        )
        g = rng.choice([Z, zmod(2), FGAbelianGroup(1, (4,)), FGAbelianGroup(2, (2, 6))])
        per_summand = direct_sum(
            *(cokernel(A, FGAbelianGroup.from_cyclics([c])) for c in g.cyclic_summands())
        )
        assert cokernel(A, g) == per_summand


# ---------------------------------------------------------------------------
# solving


def test_solve_spec_examples():
    sol = solve(hom([[1, 1]]), Z, [Z.element([5], [])])
    assert sol is not None and sol[0].free[0] + sol[1].free[0] == 5

    assert solve(hom([[2]]), Z, [Z.element([1], [])]) is None

    g4 = zmod(4)
    sol = solve(hom([[2]]), g4, [g4.element([], [2])])
    assert sol is not None and sol[0].tors[0] in (1, 3)


def test_solve_matches_enumeration():
    rng = random.Random(23)
    for _ in range(120):
        rows, cols = rng.randint(1, 3), rng.randint(1, 3)
        A = IntegerHom.from_rows(
            [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)], width=cols
        )
        g = rng.choice([zmod(2), zmod(4), zmod(6), zmod(2, 2)])
        target = [rng.choice(list(g.elements())) for _ in range(rows)]
        mine = solve(A, g, target)
        brute = exhaustive_solve(A, g, target)
        assert (mine is None) == (brute is None)
        if mine is not None:
            assert A.apply(mine, g) == target


def test_solve_mixed_group():
    g = FGAbelianGroup(1, (6,))
    A = hom([[2, 3], [1, 1]])
    target = [g.element([4], [2]), g.element([3], [5])]
    sol = solve(A, g, target)
    assert sol is not None
    assert A.apply(sol, g) == target


def test_solve_dimension_mismatch():
    with pytest.raises(DimensionError):
        solve(hom([[1, 1]]), Z, [])


def test_integer_solve_and_kernel():
    A = hom([[2, 4], [1, 2]])
    k = integer_kernel_basis(A)
    assert k.cols == 1
    assert A.apply_int(k.column(0)) == [0, 0]
    assert integer_solve(A, [2, 1]) is not None
    assert integer_solve(A, [1, 1]) is None


# ---------------------------------------------------------------------------
# one factorization, many right-hand sides


def _random_system(rng):
    """A small matrix (empty dimensions, zero columns and torsion included)
    and a target that is a column combination about half the time."""
    rows, cols = rng.randint(0, 3), rng.randint(0, 3)
    entries = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
    if cols and rng.random() < 0.3:
        j = rng.randrange(cols)
        for row in entries:
            row[j] = 0
    if rows and rng.random() < 0.4:
        scale = rng.choice([2, 3, 4])
        entries[rng.randrange(rows)] = [scale * x for x in entries[rng.randrange(rows)]]
    A = IntegerHom.from_rows(entries, width=cols)
    if rng.random() < 0.5:
        b = A.apply_int([rng.randint(-2, 2) for _ in range(cols)])
    else:
        b = [rng.randint(-4, 4) for _ in range(rows)]
    return A, b


def test_factorization_solve_matches_minor_oracle():
    rng = random.Random(404)
    solvable = unsolvable = 0
    for _ in range(300):
        A, b = _random_system(rng)
        x = Factorization(A).solve(b)
        if integer_solvable(A, b):
            assert x is not None and A.apply_int(x) == b
            solvable += 1
        else:
            assert x is None
            unsolvable += 1
    assert solvable > 50 and unsolvable > 50


def test_factorization_solve_mod_matches_minor_oracle():
    rng = random.Random(405)
    solvable = unsolvable = 0
    for _ in range(300):
        A, b = _random_system(rng)
        modulus = rng.choice([2, 3, 4, 6, 8, 9, 12])
        x = Factorization(A).solve_mod(b, modulus)
        if modular_solvable(A, b, modulus):
            assert x is not None and all(0 <= v < modulus for v in x)
            assert all((u - v) % modulus == 0 for u, v in zip(A.apply_int(x), b))
            solvable += 1
        else:
            assert x is None
            unsolvable += 1
    assert solvable > 50 and unsolvable > 20


def test_factorization_contains_agrees_with_solve():
    rng = random.Random(406)
    for _ in range(300):
        A, b = _random_system(rng)
        factored = Factorization(A)
        assert factored.contains(b) == (factored.solve(b) is not None)


def test_factorization_coordinates_reproduce_the_vector():
    rng = random.Random(407)
    for _ in range(300):
        A, b = _random_system(rng)
        factored = Factorization(A)
        kernel, columns = factored.kernel(), factored.column_basis()
        assert kernel == integer_kernel_basis(A) and columns == lattice_column_basis(A)
        assert A.compose(kernel).is_zero()
        for basis, coordinates in (
            (kernel, factored.kernel_coordinates),
            (columns, factored.column_coordinates),
        ):
            y = [rng.randint(-3, 3) for _ in range(basis.cols)]
            assert coordinates(basis.apply_int(y)) == y
        y = factored.column_coordinates(b)
        assert (y is not None) == integer_solvable(A, b)
        if y is not None:
            assert columns.apply_int(y) == b
        x = [rng.randint(-1, 1) for _ in range(A.cols)]
        z = factored.kernel_coordinates(x)
        assert (z is not None) == (not any(A.apply_int(x)))
        if z is not None:
            assert kernel.apply_int(z) == x
    factored = Factorization(hom([[1, 2], [3, 4]]))
    with pytest.raises(DimensionError):
        factored.kernel_coordinates([1])
    with pytest.raises(DimensionError):
        factored.column_coordinates([1, 2, 3])

def test_factorization_rejects_bad_shapes():
    factored = Factorization(hom([[1, 2], [3, 4]]))
    with pytest.raises(DimensionError):
        factored.solve([1])
    with pytest.raises(DimensionError):
        factored.contains([1, 2, 3])
    with pytest.raises(ValueError):
        factored.solve_mod([1, 1], 1)


@pytest.mark.parametrize("group", [Z, zmod(6)])
def test_solve_check_raises_on_a_wrong_answer(monkeypatch, group):
    A = hom([[2, 0], [0, 1]])
    target = [group.element([2] * group.rank, [2] * len(group.torsion)), group.zero()]
    assert solve(A, group, target) is not None
    monkeypatch.setattr(Factorization, "solve", lambda self, b: [1] * self.A.cols)
    monkeypatch.setattr(Factorization, "solve_mod", lambda self, b, m: [1] * self.A.cols)
    with pytest.raises(InternalConsistencyError):
        solve(A, group, target)


def test_package_has_no_assert_statements():
    # asserts vanish under python -O; checks in the package must raise
    sources = sorted(Path(abelian.__file__).parent.glob("*.py"))
    assert len(sources) > 5
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
