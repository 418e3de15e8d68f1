import ast
import builtins
import dataclasses
import itertools
import math
import random
import re
from pathlib import Path
from types import SimpleNamespace

import pytest

from cornerindex import abelian
from cornerindex.abelian import (
    DimensionError,
    FGAbelianGroup,
    GroupMismatchError,
    IntegerHom,
    InternalConsistencyError,
    SNFDecomposition,
    cokernel,
    cokernel_presentation,
    direct_sum,
    integer_kernel_basis,
    integer_solve,
    kernel_group,
    lattice_column_basis,
    modular_solve,
    power,
    smith_normal_form,
    solve,
    tensor,
    tor,
)

from cornerindex.conormal import build_complex, homology, incidence_matrix, six_term
from cornerindex.faces import FilteredPair

from helpers import (
    DenseFactorization,
    DenseHom,
    bareiss_det,
    check_snf_logs,
    count_calls,
    cube,
    dense_snf,
    exhaustive_solve,
    first_column,
    gallery_posets,
    integer_solvable,
    kgon,
    minor_gcd_invariant_factors,
    modular_solvable,
    one_column,
    prime_power_canonical,
    random_codim2_poset,
    rank_mod_p,
    rebind,
    reference_cokernel_presentation,
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
    inputs = [
        [rng.choice(pool) * rng.choice([1, 1, 1, -1]) for _ in range(rng.randint(0, 7))] for _ in range(500)
    ]
    # divisibility chains in shuffled order, which take the early return
    # once sorted, and long lists of repeated moduli
    for chain in ([2, 4, 8, 24], [3, 3, 6, 6, 30], [1, 2, 0, 2, 10, 0, 60], [5, 5, 5, 25, 0]):
        for _ in range(10):
            inputs.append(rng.sample(chain, len(chain)))
    for n in (2, 6, 12, 97):
        inputs.append([n] * 40)
        inputs.append([n, -n, 0, 1] * 12)
    inputs.append([rng.choice((2, 4, 6, 12)) for _ in range(60)])
    for moduli in inputs:
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


def test_group_equality_is_field_equality():
    # equal groups built apart compare, hash and key like their fields;
    # the same object answers at once, and a non-group is never equal
    rng = random.Random(1950)
    groups = []
    for _ in range(60):
        cyclics = [rng.choice((0, 1, 2, 3, 4, 6, 8, 9, 12)) for _ in range(rng.randint(0, 4))]
        groups.append((FGAbelianGroup.from_cyclics(cyclics), FGAbelianGroup.from_cyclics(list(cyclics))))
    for a, b in groups:
        assert a is not b and a == b and not a != b and hash(a) == hash(b)
        assert {a: 1}[b] == 1 and b in {a}
    for (a, _), (c, _) in itertools.product(groups, repeat=2):
        same = (a.rank, a.torsion) == (c.rank, c.torsion)
        assert (a == c, a != c) == (same, not same)
        assert (hash(a) == hash(c)) or not same
    assert len({g for pair in groups for g in pair}) == len({(a.rank, a.torsion) for a, _ in groups})
    G = FGAbelianGroup(1)
    assert (G == (1, ())) is False and (G != "Z") is True


def test_element_coordinates_are_tuples_reduced_into_range():
    free = FGAbelianGroup(2)
    e = abelian.GroupElement(free, [3, -4], [])
    assert (e.free, e.tors) == ((3, -4), ())
    assert type(e.free) is tuple and type(e.tors) is tuple
    g = FGAbelianGroup(1, (2, 6))
    for raw in ([-1, -7], [2, 6], [5, 13], [-12, 0], [10**20 + 1, -(10**20) - 1]):
        e = abelian.GroupElement(g, [0], raw)
        assert type(e.tors) is tuple
        assert e.tors == tuple(t % d for t, d in zip(raw, g.torsion))
        assert all(0 <= t < d for t, d in zip(e.tors, g.torsion))


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
    dense = dense_snf(s)
    assert s.U.compose(dense.U_inv) == IntegerHom.identity(A.rows)
    assert s.V.compose(dense.V_inv) == IntegerHom.identity(A.cols)
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
        assert dense_snf(smith_normal_form(A)) == dense_snf(smith_normal_form(A))


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
        assert dense_snf(smith_normal_form(A)) == reference_smith_normal_form(A)


def _gallery_and_cube_boundaries():
    posets = [poset for _, poset in gallery_posets()] + [cube(d) for d in (1, 2, 3, 4)]
    return [incidence_matrix(poset, p) for poset in posets for p in range(1, poset.codimension() + 1)]


@pytest.mark.parametrize(
    "inputs", [_random_snf_inputs, _gallery_and_cube_boundaries], ids=["random", "boundary"]
)
def test_sparse_reads_match_dense_products(inputs):
    # every answer read from the sparse transforms equals the same product
    # taken with the dense U, V, U_inv and V_inv of the decomposition (which
    # the frozen-kernel test pins to the reference)
    rng = random.Random(606)
    for A in inputs():
        s = smith_normal_form(A)
        dense = DenseFactorization(A, s)
        assert (s.rank, s._padded) == (dense.rank, dense.diagonal)
        assert s.kernel() == dense.kernel()
        assert s.column_basis() == dense.column_basis()
        kernel = dense.kernel()
        targets = A.columns()[:3]
        targets.append(A.apply_int([rng.randint(-2, 2) for _ in range(A.cols)]))
        targets.append([rng.choice((0, 0, 0, 1, -1, 2)) for _ in range(A.rows)])
        for b in targets:
            assert first_column(s.column_coordinates(one_column(b))) == dense.column_coordinates(b)
            assert s.contains(one_column(b)) == dense.contains(b)
            assert s.solve(b) == dense.solve(b)
            for modulus in (4, 6):
                assert s.solve_mod(b, modulus) == dense.solve_mod(b, modulus)
        vectors = [kernel.apply_int([rng.randint(-2, 2) for _ in range(kernel.cols)])]
        vectors.append([rng.choice((0, 0, 1, -1)) for _ in range(A.cols)])
        for x in vectors:
            assert first_column(s.kernel_coordinates(one_column(x))) == dense.kernel_coordinates(x)
        # the cokernel generators are read from this same decomposition
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(abelian, "smith_normal_form", lambda Y, cancel=None: s)
            assert cokernel_presentation(A) == reference_cokernel_presentation(A, s)


def _log_shapes():
    """Empty, all-zero (rank-0) and unit matrices of every shape kind."""
    out = [IntegerHom.zero(rows, cols) for rows, cols in ((0, 0), (0, 5), (5, 0), (1, 1), (4, 6), (6, 4))]
    return out + [IntegerHom.identity(3), hom([[0, 0, 1], [0, 0, 0]])]


def test_log_replays_match_reference_products():
    # each replay of a log on a one-column matrix, and on a sparse batch
    # with empty columns, equals the product with the dense transform of
    # the frozen reference kernel; the inputs include non-unit pivots and
    # witness-row pulls, which the counts below confirm
    rng = random.Random(608)
    non_unit = pulls = 0
    for A in _random_snf_inputs() + _log_shapes():
        s = smith_normal_form(A)
        ref = reference_smith_normal_form(A)
        non_unit += any(d > 1 for d in s.diagonal)
        pulls += any(q and i < k for i, k, q in s.row_log)
        for _ in range(3):
            for n, products in (
                (A.rows, ((s.u_times, ref.U), (s.u_inv_times, ref.U_inv))),
                (A.cols, ((s.v_times, ref.V), (s.v_inv_times, ref.V_inv))),
            ):
                x = [rng.choice((0, 0, 0, 1, -1, rng.randint(-9, 9))) for _ in range(n)]
                batch = IntegerHom.from_columns(
                    [
                        [rng.choice((0, 0, 0, 0, 1, -1, rng.randint(-9, 9))) for _ in range(n)]
                        if rng.random() < 0.7
                        else [0] * n
                        for _ in range(rng.randint(0, 6))
                    ],
                    n,
                )
                for replay, dense in products:
                    assert replay(one_column(x)).column(0) == dense.apply_int(x)
                    assert replay(batch) == dense.compose(batch)
        assert not {"U", "D", "V", "U_inv", "V_inv"} & set(vars(s))
        with pytest.raises(DimensionError):
            s.u_inv_times(IntegerHom.zero(A.rows + 1, 1))
        with pytest.raises(DimensionError):
            s.v_inv_times(IntegerHom.zero(A.cols + 1, 1))
    assert non_unit >= 20 and pulls >= 4, (non_unit, pulls)


def test_snf_logs_pass_the_independent_checker():
    # the logs replayed on A by code that shares nothing with the elimination
    # give the decomposition's own diagonal, a divisibility chain
    for A in _random_snf_inputs() + _log_shapes():
        check_snf_logs(A, smith_normal_form(A))


def _cube_homology_snfs(monkeypatch, d: int):
    """(A, decomposition) for every Smith normal form that the homology of
    the d-cube at Z + Z/4 takes."""
    taken = []
    real = abelian.smith_normal_form

    def keeping(A, cancel=None):
        taken.append((A, real(A, cancel=cancel)))
        return taken[-1][1]

    rebind(monkeypatch, abelian, "smith_normal_form", keeping)
    homology(build_complex(FilteredPair(cube(d), -1, d), FGAbelianGroup(1, (4,))))
    return taken


@pytest.mark.parametrize("d", [4, 5])
def test_snf_matches_frozen_reference_kernel_on_the_matrices_the_library_factors(monkeypatch, d):
    # the boundary matrices above are bare; the library also factors the
    # [D | c*I] lifts, relation coordinates and exactness kernels that
    # homology and the six-term checks of the d-cube build at Z + Z/4
    calls = count_calls(monkeypatch, abelian, "smith_normal_form")
    G = FGAbelianGroup(1, (4,))
    homology(build_complex(FilteredPair(cube(d), -1, d), G))
    six_term(cube(d), -1, 0, d, G)
    inputs = {args[0]: None for args in calls}
    assert len(inputs) == {4: 38, 5: 46}[d]
    assert any(A.cols > A.rows and 4 in dict(A.nonzero[-1]).values() for A in inputs)
    for A in inputs:
        assert dense_snf(smith_normal_form(A)) == reference_smith_normal_form(A)


@pytest.mark.parametrize("d", [4, 6])
def test_snf_logs_of_cube_homology_pass_the_independent_checker(monkeypatch, d):
    taken = _cube_homology_snfs(monkeypatch, d)
    # over Z and mod 4, in each degree the cokernel presentation's SNF,
    # and the cycle basis's in the d degrees with a nonzero boundary, less
    # the presentation of the bottom degree 0, whose relations are their
    # own coordinates: the matrix degree 1 factors for its cycles
    assert len(taken) == 2 * 2 * d
    for A, s in taken:
        check_snf_logs(A, s)


def test_snf_log_checker_rejects_a_changed_multiplier():
    # mutation control: one add of either log with its multiplier doubled
    # changes the replayed matrix, so the checker must fail
    mutated = 0
    for A in _random_snf_inputs():
        s = smith_normal_form(A)
        for name in ("row_log", "column_log"):
            log = getattr(s, name)
            adds = [n for n, (_, _, q) in enumerate(log) if q]
            if not adds:
                continue
            n = adds[len(adds) // 2]
            i, k, q = log[n]
            logs = {"row_log": s.row_log, "column_log": s.column_log}
            logs[name] = log[:n] + [(i, k, 2 * q)] + log[n + 1 :]
            with pytest.raises(AssertionError):
                check_snf_logs(A, SimpleNamespace(diagonal=s.diagonal, **logs))
            mutated += 1
    assert mutated >= 40, mutated


def test_snf_log_checker_imports_nothing_from_abelian_but_integer_hom():
    # the checker is an oracle for the elimination only while it shares no
    # code with it: of the names helpers imports from cornerindex.abelian it
    # reads IntegerHom alone, and every other name it reads is its own or
    # a builtin
    tree = ast.parse((Path(__file__).parent / "helpers.py").read_text(encoding="utf-8"))
    from_abelian = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module == "cornerindex.abelian"
        for alias in node.names
    }
    (checker,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "check_snf_logs"]
    names = [node for node in ast.walk(checker) if isinstance(node, ast.Name)]
    bound = {a.arg for a in checker.args.args} | {n.id for n in names if isinstance(n.ctx, ast.Store)}
    read = {n.id for n in names if isinstance(n.ctx, ast.Load)} - bound
    assert not any(isinstance(node, (ast.Import, ast.ImportFrom)) for node in ast.walk(checker))
    assert "IntegerHom" in from_abelian and read & from_abelian <= {"IntegerHom"}
    assert read - {"IntegerHom"} <= set(dir(builtins)), read


def test_transform_products_walk_one_log_per_batch(monkeypatch):
    # a basis, the cokernel generators and the dense U and V are one product
    # each, whatever their number of columns; D replays nothing
    walks = count_calls(monkeypatch, abelian, "_replay")
    for A in [incidence_matrix(cube(3), 2), incidence_matrix(kgon(7), 2).with_multiples(4), hom([[2, 4], [6, 8]])]:
        s = smith_normal_form(A)
        for read in (s.kernel, s.column_basis, lambda: cokernel_presentation(A)):
            walks.clear()
            read()
            assert len(walks) == 1
        for field in ("U", "V", "D"):
            walks.clear()
            getattr(s, field)
            assert len(walks) == (field != "D")


def test_factorization_answers_build_no_dense_matrix(monkeypatch):
    # solving, kernels, coordinates, cokernels, kernel groups and the
    # group-valued solve replay the logs only; the dense fields stay
    # unbuilt until read
    decompositions = []
    real = abelian.smith_normal_form

    def keeping(A, cancel=None):
        decompositions.append(real(A, cancel=cancel))
        return decompositions[-1]

    rebind(monkeypatch, abelian, "smith_normal_form", keeping)
    rng = random.Random(607)
    for A in [incidence_matrix(cube(3), 2), incidence_matrix(kgon(7), 2).with_multiples(4)]:
        # through the package's binding, which the capture wraps, not this module's
        factored = abelian.smith_normal_form(A)
        b = A.apply_int([rng.randint(-2, 2) for _ in range(A.cols)])
        factored.solve(b), factored.solve_mod(b, 4), factored.contains(one_column(b))
        factored.column_coordinates(one_column(b)), factored.column_basis()
        factored.kernel_coordinates(one_column(factored.kernel().column(0))), factored.kernel()
        cokernel_presentation(A), kernel_group(A, FGAbelianGroup(1, (2,)))
    D2, G = incidence_matrix(kgon(64), 2), FGAbelianGroup(1, (2,))
    x = [G.element([rng.randint(-2, 2)], [rng.randint(0, 1)]) for _ in range(D2.cols)]
    assert solve(D2, G, D2.apply(x, G)) is not None
    assert len(decompositions) == 7
    for s in decompositions:
        assert not {"U", "D", "V", "U_inv", "V_inv"} & set(vars(s))
    s = decompositions[0]
    assert s.U.compose(s.D).compose(s.V) == incidence_matrix(cube(3), 2)
    assert {"U", "D", "V"} <= set(vars(s)) and not {"U_inv", "V_inv"} & set(vars(s))


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
        elements = [x for x in _vectors(g, cols) if A.apply(list(x), g) == zero]
        assert kernel.order() == len(elements)
        # a finite group's type is fixed by how many of its elements each k kills
        for k in range(2, g.torsion[-1]):
            killed = sum(1 for x in elements if all(e.scale(k).is_zero() for e in x))
            assert killed == math.prod(math.gcd(d, k) for d in kernel.torsion)


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
        # independent of the tensor formula: over Z/c, [A | c*I] presents it
        presented = direct_sum(
            *(cokernel_presentation(A.with_multiples(c) if c else A)[0] for c in g.cyclic_summands())
        )
        assert cokernel(A, g) == presented


@pytest.mark.parametrize("group_op", [cokernel, kernel_group])
def test_cokernel_and_kernel_factor_once_whatever_the_group(monkeypatch, group_op):
    snfs = count_calls(monkeypatch, abelian, "smith_normal_form")
    A = incidence_matrix(cube(2), 2)
    group_op(A, FGAbelianGroup(2, (2, 6)))
    assert snfs == [(A,)]


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


def test_solve_rejects_an_element_of_another_group():
    with pytest.raises(GroupMismatchError):
        solve(hom([[1]]), Z, [zmod(2).element([], [1])])


@pytest.mark.parametrize(
    "group", [TRIVIAL, Z, zmod(4), FGAbelianGroup(2, (2, 6))], ids=["0", "Z", "Z/4", "Z^2+Z/2+Z/6"]
)
def test_split_and_join_are_inverse(group):
    rng = random.Random(41)
    summands = group.cyclic_summands()
    for n in range(4):
        for _ in range(5):
            vectors = [[rng.randint(-7, 7) for _ in range(n)] for _ in summands]
            elements = group.join(vectors, n)
            assert len(elements) == n and all(e.group == group for e in elements)
            # join reduces each torsion slot mod its modulus, split reads it back
            reduced = [[x % d if d else x for x in v] for v, d in zip(vectors, summands)]
            assert group.split(elements) == list(zip(reduced, summands))
            assert group.join([v for v, _ in group.split(elements)], n) == elements
    assert TRIVIAL.join([], 3) == [TRIVIAL.zero()] * 3
    with pytest.raises(GroupMismatchError):
        group.split([FGAbelianGroup(3).zero()])
    if summands:
        with pytest.raises(DimensionError):
            group.join([[0, 0]] * len(summands), 3)
    with pytest.raises(DimensionError):
        group.join([[0]] * (len(summands) + 1), 1)


def _join_groups():
    rng = random.Random(2020)
    chains = [
        FGAbelianGroup.from_cyclics([rng.choice((0, 2, 3, 4, 6, 9)) for _ in range(rng.randint(1, 4))])
        for _ in range(4)
    ]
    return [TRIVIAL, Z, zmod(4), FGAbelianGroup(2, (2, 6))] + chains


def test_join_matches_the_checked_constructor():
    # join builds its elements without the constructor's checks, so each one
    # must equal, and hash like, the element the constructor builds
    rng = random.Random(2021)
    for group in _join_groups():
        summands = group.cyclic_summands()
        for n in range(6):
            for _ in range(4):
                vectors = [[rng.randint(-3 * (d or 3), 3 * (d or 3)) for _ in range(n)] for d in summands]
                if n and summands:
                    vectors[rng.randrange(len(summands))][rng.randrange(n)] = rng.choice((1, -1)) * 10**20 + 7
                rows = list(zip(*vectors)) if vectors else [()] * n
                want = [abelian.GroupElement(group, r[: group.rank], r[group.rank :]) for r in rows]
                got = group.join(vectors, n)
                assert got == want and [hash(e) for e in got] == [hash(e) for e in want]
                for e in got:
                    assert type(e) is abelian.GroupElement and e.group is group
                    assert type(e.free) is tuple and type(e.tors) is tuple
                    assert all(0 <= t < d for t, d in zip(e.tors, group.torsion))
        with pytest.raises(DimensionError):
            group.join([[0] * 2] * (len(summands) + 1), 2)
        if summands:
            with pytest.raises(DimensionError):
                group.join([[0] * 2] * (len(summands) - 1), 2)
            with pytest.raises(DimensionError):
                group.join([[0] * 2] * (len(summands) - 1) + [[0] * 3], 2)


def test_group_elements_are_slotted_and_frozen():
    g = FGAbelianGroup(1, (2, 6))
    for e in (g.element([3], [5, 13]), g.join([[3], [5], [13]], 1)[0]):
        assert not hasattr(e, "__dict__")
        for name, value in (("free", (0,)), ("tors", (0, 0)), ("group", Z)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(e, name, value)
        assert (e.free, e.tors) == ((3,), (1, 1))
        moved = dataclasses.replace(e, tors=(-1, 14))
        assert moved.tors == (1, 2) and moved.free == (3,)
        assert moved == g.element([3], [1, 2]) and hash(moved) == hash(g.element([3], [1, 2]))
        assert repr(e) == "GroupElement(group=FGAbelianGroup(rank=1, torsion=(2, 6)), free=(3,), tors=(1, 1))"


def test_in_group_compares_each_distinct_group_object_once(monkeypatch):
    G = FGAbelianGroup(1, (4,))
    twins = [FGAbelianGroup(1, (4,)) for _ in range(3)]
    elements = [g.zero() for g in [G] * 5 + twins + twins + [G]]
    assert abelian.in_group(elements, G)
    assert abelian.in_group([], G) and abelian.in_group(iter([]), G)
    assert abelian.in_group({"a": G.zero(), "b": twins[0].zero()}.values(), G)
    calls = []
    real_eq = FGAbelianGroup.__eq__
    monkeypatch.setattr(FGAbelianGroup, "__eq__", lambda a, b: calls.append((a, b)) or real_eq(a, b))
    assert abelian.in_group(iter(elements), G)
    assert len(calls) == len(twins)
    monkeypatch.undo()
    for stray in (Z, zmod(4), FGAbelianGroup(2, (4,)), FGAbelianGroup(1, (2,))):
        for k in (0, len(elements) // 2, len(elements) - 1):
            mixed = elements[:k] + [stray.zero()] + elements[k + 1 :]
            assert not abelian.in_group(mixed, G)
            assert not abelian.in_group(dict(enumerate(mixed)).values(), G)


@pytest.mark.parametrize("position", ["first", "middle", "last"])
def test_split_and_apply_reject_a_stray_element_anywhere(position):
    G = FGAbelianGroup(1, (2,))
    elements = [FGAbelianGroup(1, (2,)).element([k], [k]) for k in range(5)]
    k = {"first": 0, "middle": 2, "last": 4}[position]
    elements[k] = FGAbelianGroup(0, (2,)).element([], [1])
    A = IntegerHom.identity(5)
    with pytest.raises(GroupMismatchError, match="^element parent differs from the group$"):
        G.split(elements)
    with pytest.raises(GroupMismatchError, match="^element parent differs from the coefficient group$"):
        A.apply(elements, G)


def test_apply_int_checks_the_vector_length():
    # a matrix with no rows still has columns to match, as in apply
    empty = IntegerHom.zero(0, 3)
    assert empty.apply_int([1, 2, 3]) == []
    for A in (empty, hom([[1, 1]])):
        with pytest.raises(DimensionError):
            A.apply_int([1])
        with pytest.raises(DimensionError):
            A.apply([Z.element([1], [])], Z)


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
        x = smith_normal_form(A).solve(b)
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
        x = smith_normal_form(A).solve_mod(b, modulus)
        assert modular_solve(A, b, modulus) == x
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
        factored = smith_normal_form(A)
        assert factored.contains(one_column(b)) == (factored.solve(b) is not None)


def test_factorization_coordinates_reproduce_the_vector():
    rng = random.Random(407)
    for _ in range(300):
        A, b = _random_system(rng)
        factored = smith_normal_form(A)
        kernel, columns = factored.kernel(), factored.column_basis()
        assert kernel == integer_kernel_basis(A) and columns == lattice_column_basis(A)
        assert A.compose(kernel).is_zero()
        for basis, coordinates in (
            (kernel, factored.kernel_coordinates),
            (columns, factored.column_coordinates),
        ):
            y = [rng.randint(-3, 3) for _ in range(basis.cols)]
            assert coordinates(one_column(basis.apply_int(y))).column(0) == y
        y = first_column(factored.column_coordinates(one_column(b)))
        assert (y is not None) == integer_solvable(A, b)
        if y is not None:
            assert columns.apply_int(y) == b
        x = [rng.randint(-1, 1) for _ in range(A.cols)]
        z = first_column(factored.kernel_coordinates(one_column(x)))
        assert (z is not None) == (not any(A.apply_int(x)))
        if z is not None:
            assert kernel.apply_int(z) == x
    factored = smith_normal_form(hom([[1, 2], [3, 4]]))
    with pytest.raises(DimensionError):
        factored.kernel_coordinates(one_column([1]))
    with pytest.raises(DimensionError):
        factored.column_coordinates(one_column([1, 2, 3]))

def test_batch_coordinates_fail_exactly_when_a_column_fails():
    # a batch has coordinates exactly when each of its columns has, and then
    # they are the column-by-column answers side by side
    rng = random.Random(408)
    outcomes = {"pass": 0, "mixed": 0}
    for _ in range(300):
        A, _b = _random_system(rng)
        factored = smith_normal_form(A)
        kernel = factored.kernel()
        for coordinates, basis in ((factored.column_coordinates, A), (factored.kernel_coordinates, kernel)):
            n = basis.rows
            columns = [
                basis.apply_int([rng.randint(-2, 2) for _ in range(basis.cols)])
                if rng.random() < 0.7
                else [rng.randint(-2, 2) for _ in range(n)]
                for _ in range(rng.randint(0, 4))
            ]
            each = [first_column(coordinates(IntegerHom.from_columns([x], n))) for x in columns]
            batch = coordinates(IntegerHom.from_columns(columns, n))
            if None in each:
                assert batch is None
                outcomes["mixed"] += any(y is not None for y in each)
            else:
                assert batch is not None and batch.columns() == each
                outcomes["pass"] += bool(columns)
    assert min(outcomes.values()) > 30, outcomes


def test_factorization_rejects_bad_shapes():
    factored = smith_normal_form(hom([[1, 2], [3, 4]]))
    with pytest.raises(DimensionError):
        factored.solve([1])
    with pytest.raises(DimensionError):
        factored.contains(one_column([1, 2, 3]))
    with pytest.raises(ValueError):
        factored.solve_mod([1, 1], 1)


@pytest.mark.parametrize("group", [Z, zmod(6)])
def test_solve_check_raises_on_a_wrong_answer(monkeypatch, group):
    A = hom([[2, 0], [0, 1]])
    target = [group.element([2] * group.rank, [2] * len(group.torsion)), group.zero()]
    assert solve(A, group, target) is not None
    monkeypatch.setattr(SNFDecomposition, "solve", lambda self, b: [1] * self._cols)
    monkeypatch.setattr(SNFDecomposition, "solve_mod", lambda self, b, m: [1] * self._cols)
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


def test_decompositions_are_built_only_by_smith_normal_form():
    # one decomposition object: SNFDecomposition is constructed inside
    # smith_normal_form alone, so every decomposition is one SNF that the
    # benchmark's tracer counts, and no second factorization class is left
    sources = sorted(Path(abelian.__file__).parent.glob("*.py"))
    inside, outside, other_class = [], [], []
    for path in sources:
        text = path.read_text(encoding="utf-8")
        other_class += [f"{path.name}:{m.start()}" for m in re.finditer(r"\bFactorization\b", text)]
        tree = ast.parse(text)
        allowed = {
            id(node)
            for function in ast.walk(tree)
            if isinstance(function, ast.FunctionDef) and function.name == "smith_normal_form"
            for node in ast.walk(function)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and "SNFDecomposition" in (
                getattr(node.func, "id", None),
                getattr(node.func, "attr", None),
            ):
                (inside if id(node) in allowed else outside).append(f"{path.name}:{node.lineno}")
    assert other_class == []
    assert outside == []
    assert len(inside) == 1


def _scoped_nodes():
    """(file:line, qualified name of the innermost enclosing def, node) for
    every node of the package source; the scope of module code is ''."""
    out = []

    def visit(node, scope, where):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            out.append((f"{where}:{getattr(child, 'lineno', 0)}", inner, child))
            visit(child, inner, where)

    for path in sorted(Path(abelian.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), "", path.name)
    return out


def _loads_of(nodes, name):
    return [
        (where, scope)
        for where, scope, node in nodes
        if (isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Load))
        or (isinstance(node, ast.Attribute) and node.attr == name)
    ]


def test_unchecked_elements_are_built_only_by_join():
    # join is the one caller of the unchecked builder, and the builder the
    # one reader of the slot setters; apply keeps the checked constructor
    nodes = _scoped_nodes()
    builder = _loads_of(nodes, "_shaped_element")
    assert builder and {scope for _, scope in builder} == {"FGAbelianGroup.join"}
    for setter in ("_new_object", "_set_group", "_set_free", "_set_tors"):
        assert {scope for _, scope in _loads_of(nodes, setter)} == {"_shaped_element"}
    apply_calls = [
        node.func.id
        for _, scope, node in nodes
        if scope == "IntegerHom.apply" and isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    ]
    assert "GroupElement" in apply_calls


def test_unchecked_matrices_are_built_only_by_canonical_producers():
    # the unchecked matrix builder has these callers only, each building
    # canonical columns from checked matrices; the constructors that take
    # outside input, and conormal's incidence matrices and stacked lift,
    # keep the checked constructor
    nodes = _scoped_nodes()
    builder = {scope for _, scope in _loads_of(nodes, "_canonical_hom")}
    assert builder == {
        "_replay",
        "IntegerHom.compose",
        "IntegerHom.hstack",
        "IntegerHom.top_rows",
        "IntegerHom.zero",
        "IntegerHom.unit_columns",
    }
    calls = {
        (scope, node.func.id)
        for _, scope, node in nodes
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }
    assert {("IntegerHom.from_columns", "cls"), ("_incidence", "IntegerHom")} <= calls
    assert ("_Path.coordinates", "IntegerHom") in calls
    assert any(scope == "IntegerHom.__post_init__" for _, scope, _ in nodes)


def test_unchecked_producers_build_what_the_checked_constructor_accepts():
    # every matrix a producer of the unchecked builder returns is equal to
    # the one the checked constructor builds from its fields, so a product
    # that kept a cancelled entry or an unsorted column would raise here
    rng = random.Random(2400)
    cancelled = 0
    for _ in range(300):
        r, k, c = rng.randint(0, 6), rng.randint(0, 6), rng.randint(0, 6)
        A, B, C = (IntegerHom.from_rows(_random_rows(rng, m, n), width=n) for m, n in ((r, k), (k, c), (r, c)))
        product = A.compose(B)
        dense = [[sum(A.entries[i][t] * B.entries[t][j] for t in range(k)) for j in range(c)] for i in range(r)]
        assert product == IntegerHom.from_rows(dense, width=c)
        cancelled += sum(
            1
            for i in range(r)
            for j in range(c)
            if not dense[i][j] and any(A.entries[i][t] and B.entries[t][j] for t in range(k))
        )
        s = smith_normal_form(A)
        built = [
            product,
            A.hstack(C),
            A.top_rows(rng.randint(0, r)),
            IntegerHom.zero(r, k),
            IntegerHom.unit_columns(r, [rng.randrange(r) for _ in range(c)] if r else []),
            IntegerHom.identity(k),
            s.u_times(C),
            s.u_inv_times(C),
            s.v_times(B),
            s.v_inv_times(B),
            s.kernel(),
            s.column_basis(),
        ]
        for m in built:
            assert type(m) is IntegerHom and IntegerHom(m.rows, m.cols, m.nonzero) == m
    assert cancelled >= 50, cancelled
    with pytest.raises(DimensionError):
        IntegerHom.unit_columns(2, [0, 2])
    with pytest.raises(DimensionError):
        IntegerHom.unit_columns(2, [-1])
    with pytest.raises(DimensionError):
        IntegerHom.zero(2, -1)


def test_element_groups_are_compared_only_by_in_group():
    # membership goes through abelian.in_group; only it and the pairwise
    # check of element arithmetic compare an element's group
    found = [
        (where, scope)
        for where, scope, node in _scoped_nodes()
        if isinstance(node, ast.Compare)
        and any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops)
        and any(isinstance(x, ast.Attribute) and x.attr == "group" for x in [node.left, *node.comparators])
    ]
    scopes = {scope for _, scope in found}
    assert "GroupElement._check" in scopes and scopes <= {"in_group", "GroupElement._check"}


@pytest.mark.parametrize("r, k, c", [(2, 0, 3), (0, 0, 4), (0, 2, 3), (3, 2, 0), (2, 0, 0)])
def test_compose_keeps_outer_shape_with_empty_dimensions(r, k, c):
    left = IntegerHom.from_rows([[i + j + 1 for j in range(k)] for i in range(r)], width=k)
    right = IntegerHom.from_rows([[i - j for j in range(c)] for i in range(k)], width=c)
    assert left.compose(right) == IntegerHom.zero(r, c)


def _random_rows(rng, rows: int, cols: int) -> list[list[int]]:
    return [[rng.choice((0, 0, 0, 1, -1, rng.randint(-9, 9))) for _ in range(cols)] for _ in range(rows)]


@pytest.mark.parametrize("seed", range(6))
def test_integer_hom_matches_the_dense_reference(seed):
    rng = random.Random(seed)
    G = FGAbelianGroup(1, (2, 6))
    shapes = [(0, 0), (0, 3), (3, 0), (1, 1)] + [(rng.randint(1, 7), rng.randint(1, 7)) for _ in range(6)]
    for m, n in shapes:
        rows = _random_rows(rng, m, n)
        A, R = IntegerHom.from_rows(rows, width=n), DenseHom.from_rows(rows, n)
        # the same matrix from rows, from columns and as its own storage
        stored = tuple(tuple((i, r[j]) for i, r in enumerate(rows) if r[j]) for j in range(n))
        for B in (IntegerHom.from_columns(R.columns(), m), IntegerHom(m, n, stored)):
            assert B == A and hash(B) == hash(A)
        assert A.entries == R.entries and A.row_list() == [list(r) for r in R.entries]
        assert A.columns() == R.columns() and A.is_zero() == R.is_zero()
        for k in range(m + 1):
            assert A.top_rows(k).entries == R.top_rows(k).entries
        for c in (0, 1, 4):
            assert A.with_multiples(c).entries == R.with_multiples(c).entries
        for width in (0, 1, 5):
            right = _random_rows(rng, n, width)
            got = A.compose(IntegerHom.from_rows(right, width=width))
            assert (got.rows, got.cols, got.entries) == R.compose(DenseHom.from_rows(right, width))
            side = _random_rows(rng, m, width)
            got = A.hstack(IntegerHom.from_rows(side, width=width))
            assert (got.rows, got.cols, got.entries) == R.hstack(DenseHom.from_rows(side, width))
        x = [rng.choice((0, rng.randint(-5, 5))) for _ in range(n)]
        assert A.apply_int(x) == R.apply_int(x)
        elements = [G.element([rng.randint(-3, 3)], [rng.randint(0, 1), rng.randint(0, 5)]) for _ in range(n)]
        assert A.apply(elements, G) == R.apply(elements, G)


@pytest.mark.parametrize(
    "rows, cols, stored",
    [
        (2, 2, (((0, 1),),)),  # one column short
        (2, 1, (((2, 1),),)),  # row out of range
        (2, 1, (((-1, 1),),)),  # negative row
        (3, 1, (((1, 1), (0, 1)),)),  # rows descending
        (3, 1, (((1, 1), (1, 2)),)),  # a row twice
        (2, 1, (((0, 0),),)),  # a stored zero
    ],
)
def test_malformed_storage_raises(rows, cols, stored):
    with pytest.raises(DimensionError):
        IntegerHom(rows, cols, stored)


@pytest.mark.parametrize("width", [0, 1, 3])
def test_from_rows_rejects_a_width_its_rows_contradict(width):
    with pytest.raises(DimensionError):
        IntegerHom.from_rows([[1, 2]], width=width)
    assert IntegerHom.from_rows([[1, 2]], width=2) == hom([[1, 2]])
    assert IntegerHom.from_rows([], width=width) == IntegerHom.zero(0, width)


def test_no_dense_rows_are_read_in_the_library():
    # matrices are stored by columns and the elimination works on sparse
    # rows: no module reads the dense ``entries`` or takes a ``row_list()``
    sources = sorted(Path(abelian.__file__).parent.glob("*.py"))
    dense_reads = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr == "entries" or (
                isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "row_list"
            ):
                dense_reads.append(f"{path.name}:{node.lineno}")
    assert len(sources) > 5 and dense_reads == []
