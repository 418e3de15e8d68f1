"""Shared test utilities: independent oracles and random valid posets.

The oracles here deliberately avoid the library's own reduction code:
determinants come from fraction-free Bareiss elimination, invariant factors
from gcds of k x k minors, ranks over F_p from plain Gaussian elimination,
and solvability checks over finite groups from plain enumeration.  Frozen
copies of replaced library paths serve as references for their
replacements.
"""

from __future__ import annotations

import itertools
from math import gcd

from cornerindex.abelian import (
    FGAbelianGroup,
    IntegerHom,
    SNFDecomposition,
    direct_sum,
    tensor,
    tor,
)
from cornerindex.abelian import Factorization, cokernel_presentation
from cornerindex.conormal import _lattices, build_complex, homology
from cornerindex.faces import FacePoset
from cornerindex.families import check_embeddable, gallery, quotient_family, GALLERY_NAMES


def bareiss_det(matrix: list[list[int]]) -> int:
    """Exact integer determinant by fraction-free elimination."""
    n = len(matrix)
    if n == 0:
        return 1
    m = [row[:] for row in matrix]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[-1][-1]


def minor_gcd_invariant_factors(A: IntegerHom) -> list[int]:
    """Nonzero invariant factors from determinantal divisors g_k.

    g_k is the gcd of all k x k minors and d_k = g_k / g_{k-1}; no row
    reduction happens anywhere, so this is independent of the library path.
    """
    rows = A.row_list()
    out = []
    prev_gcd = 1
    for k in range(1, min(A.rows, A.cols) + 1):
        g = 0
        for rsel in itertools.combinations(range(A.rows), k):
            for csel in itertools.combinations(range(A.cols), k):
                minor = [[rows[i][j] for j in csel] for i in rsel]
                g = gcd(g, abs(bareiss_det(minor)))
        if g == 0:
            break
        out.append(g // prev_gcd)
        prev_gcd = g
    return out


def group_from_snf_oracle(A: IntegerHom, rows: int | None = None) -> FGAbelianGroup:
    """Cokernel of A over Z computed from the minors oracle."""
    factors = minor_gcd_invariant_factors(A)
    free = (A.rows if rows is None else rows) - len(factors)
    return FGAbelianGroup.from_cyclics(factors + [0] * free)


def integer_solvable(A: IntegerHom, b: list[int]) -> bool:
    """Does A x = b have an integer solution?  Heger's criterion: exactly
    when A and [A | b] have the same invariant factors (by minors)."""
    augmented = IntegerHom.from_rows(
        [list(row) + [b[i]] for i, row in enumerate(A.entries)], width=A.cols + 1
    )
    return minor_gcd_invariant_factors(A) == minor_gcd_invariant_factors(augmented)


def modular_solvable(A: IntegerHom, b: list[int], modulus: int) -> bool:
    """Does A x = b (mod modulus) have a solution?  Same as the integer
    system [A | modulus * I] y = b."""
    lifted = IntegerHom.from_rows(
        [list(row) + [modulus if j == i else 0 for j in range(A.rows)] for i, row in enumerate(A.entries)],
        width=A.cols + A.rows,
    )
    return integer_solvable(lifted, b)


def rank_mod_p(A: IntegerHom, p: int) -> int:
    """Rank of A over F_p by Gaussian elimination on the reduced entries.

    Scales to the matrices the faster kernel reaches, where the minors
    oracle cannot: the number of invariant factors of A not divisible by p
    equals this rank."""
    rows = [[x % p for x in row] for row in A.entries]
    rank = 0
    for j in range(A.cols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][j]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inverse = pow(rows[rank][j], -1, p)
        top = [x * inverse % p for x in rows[rank]]
        rows[rank] = top
        for i in range(rank + 1, len(rows)):
            factor = rows[i][j]
            if factor:
                rows[i] = [(x - factor * y) % p for x, y in zip(rows[i], top)]
        rank += 1
    return rank


def prime_power_canonical(moduli) -> FGAbelianGroup:
    """Invariant-factor form of a sum of cyclic groups Z/n (0 meaning Z),
    by trial-division factoring into prime powers and regrouping them."""
    rank = 0
    by_prime: dict[int, list[int]] = {}
    for n in moduli:
        n = abs(n)
        if n == 0:
            rank += 1
            continue
        p = 2
        while p * p <= n:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            if e:
                by_prime.setdefault(p, []).append(e)
            p += 1
        if n > 1:
            by_prime.setdefault(n, []).append(1)
    for exps in by_prime.values():
        exps.sort(reverse=True)
    factors = []
    while any(by_prime.values()):
        d = 1
        for p, exps in by_prime.items():
            if exps:
                d *= p ** exps.pop(0)
        factors.append(d)
    return FGAbelianGroup(rank, tuple(reversed(factors)))


def _identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def reference_smith_normal_form(A: IntegerHom) -> SNFDecomposition:
    """The library's Smith normal form kernel as it stood before unit pivots
    took fast paths, kept verbatim as the reference for its pivot order:
    every pivot step scans the whole block and every operation runs over
    whole rows and columns of D, U, U_inv, V and V_inv.

    Pivoting is deterministic (smallest absolute value, leftmost, topmost),
    so the decomposition is reproducible run to run.
    """
    m, n = A.rows, A.cols
    d = A.row_list()
    u = _identity(m)
    uinv = _identity(m)
    v = _identity(n)
    vinv = _identity(n)

    def row_swap(i, k):
        d[i], d[k] = d[k], d[i]
        uinv[i], uinv[k] = uinv[k], uinv[i]
        for r in u:
            r[i], r[k] = r[k], r[i]

    def row_add(i, k, q):
        # row i += q * row k on D; U absorbs the inverse column operation
        di, dk = d[i], d[k]
        for j in range(n):
            di[j] += q * dk[j]
        ui, uk = uinv[i], uinv[k]
        for j in range(m):
            ui[j] += q * uk[j]
        for r in u:
            r[k] -= q * r[i]

    def row_neg(i):
        d[i] = [-x for x in d[i]]
        uinv[i] = [-x for x in uinv[i]]
        for r in u:
            r[i] = -r[i]

    def col_swap(j, k):
        for r in d:
            r[j], r[k] = r[k], r[j]
        for r in vinv:
            r[j], r[k] = r[k], r[j]
        v[j], v[k] = v[k], v[j]

    def col_add(j, k, q):
        # col j += q * col k on D; V absorbs the inverse row operation
        for r in d:
            r[j] += q * r[k]
        for r in vinv:
            r[j] += q * r[k]
        vk, vj = v[k], v[j]
        for c in range(n):
            vk[c] -= q * vj[c]

    t = 0
    while True:
        best = None
        pivot = None
        for i in range(t, m):
            di = d[i]
            for j in range(t, n):
                val = di[j]
                if val:
                    key = (abs(val), j, i)
                    if best is None or key < best:
                        best = key
                        pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        if pi != t:
            row_swap(t, pi)
        if pj != t:
            col_swap(t, pj)
        if d[t][t] < 0:
            row_neg(t)
        piv = d[t][t]
        dirty = False
        for i in range(t + 1, m):
            if d[i][t]:
                row_add(i, t, -(d[i][t] // piv))
                if d[i][t]:
                    dirty = True
        for j in range(t + 1, n):
            if d[t][j]:
                col_add(j, t, -(d[t][j] // piv))
                if d[t][j]:
                    dirty = True
        if dirty:
            continue
        witness = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if d[i][j] % piv:
                    witness = i
                    break
            if witness is not None:
                break
        if witness is not None:
            row_add(t, witness, 1)
            continue
        t += 1

    return SNFDecomposition(
        U=IntegerHom.from_rows(u, width=m),
        D=IntegerHom.from_rows(d, width=n),
        V=IntegerHom.from_rows(v, width=n),
        U_inv=IntegerHom.from_rows(uinv, width=m),
        V_inv=IntegerHom.from_rows(vinv, width=n),
    )


def homology_gens_by_solving(Dp: IntegerHom, Dp1: IntegerHom, c: int):
    """``conormal._homology_gens`` as it stood before the cycle basis's own
    factorization supplied the relation coordinates: the cycle basis is
    factored a second time and each relation solved against it."""
    cycles, relations, _ = _lattices(Dp, Dp1, c)
    factored = Factorization(cycles)
    cols = [factored.solve(b) for b in relations.columns()]
    assert None not in cols, "a relation escapes the cycle lattice"
    group, gens = cokernel_presentation(IntegerHom.from_columns(cols, cycles.cols))
    reps = [(cycles.apply_int(g), order) for g, order in gens]
    if c:
        reps = [([x % c for x in vec], order) for vec, order in reps]
    return group, reps


def uct_assembly(complex) -> dict[int, FGAbelianGroup]:
    """Per-degree homology over the complex's coefficients, assembled from
    its integer homology: (H_p(Z) tensor G) + Tor(H_{p-1}(Z), G).

    Unlike the oracles above this reads integer homology from the library;
    it checks the coefficient path of :func:`homology` against its Z path."""
    G = complex.coefficient
    integral = homology(build_complex(complex.pair, FGAbelianGroup(1))).groups
    return {
        p: direct_sum(tensor(integral[p], G), tor(integral.get(p - 1, FGAbelianGroup(0)), G))
        for p in complex.degrees
    }


def enumerate_vectors(group: FGAbelianGroup, length: int):
    """All vectors in G^length for a finite G."""
    yield from itertools.product(list(group.elements()), repeat=length)


def exhaustive_solve(A: IntegerHom, group: FGAbelianGroup, target):
    """Brute-force search for x with A x = target over a finite group."""
    target = list(target)
    for x in enumerate_vectors(group, A.cols):
        if A.apply(list(x), group) == target:
            return list(x)
    return None


def count_calls(monkeypatch, module, name) -> list:
    """Wrap ``module.name`` for the test; returns the list of recorded
    argument tuples, one per call."""
    calls = []
    real = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def random_valid_poset(rng, max_codim=2, connected=True, max_faces=30) -> FacePoset:
    """A random poset that satisfies every validation invariant by construction.

    Corners are built only over pairs of edges with distinct hypersurfaces and
    a common interior, which is exactly what grandparent commutation needs.
    """
    n_hyp = rng.randint(1, 5)
    hyps = [f"h{i}" for i in range(1, n_hyp + 1)]
    n_int = 1 if connected else rng.randint(1, 2)
    faces = [(f"int{i}", 0, (), {}) for i in range(n_int)]
    budget = max_faces - n_int

    min_edges = 1 if max_codim >= 1 else 0
    n_edge = rng.randint(min_edges, max(min_edges, min(7, budget)))
    edges = []
    for e in range(n_edge):
        h = rng.choice(hyps)
        parent = f"int{rng.randrange(n_int)}"
        edges.append((f"e{e}", h, parent))
        faces.append((f"e{e}", 1, (h,), {h: parent}))
    budget -= n_edge

    if max_codim >= 2:
        pairs = [
            (a, b)
            for i, a in enumerate(edges)
            for b in edges[i + 1 :]
            if a[1] != b[1] and a[2] == b[2]
        ]
        if pairs and budget > 0:
            n_corner = rng.randint(0, min(len(pairs) + 2, budget, 8))
            for c in range(n_corner):
                ea, eb = rng.choice(pairs)
                if ea[1] > eb[1]:
                    ea, eb = eb, ea
                i, j = ea[1], eb[1]
                faces.append((f"c{c}", 2, (i, j), {i: eb[0], j: ea[0]}))
    return FacePoset.build(hyps, faces, connected=(n_int == 1))


def gallery_posets() -> list[tuple[str, FacePoset]]:
    """One poset per gallery entry: the embedded total when it exists, the
    fiber otherwise (the quarter twist has no embeddable total)."""
    out = []
    for name in GALLERY_NAMES:
        spec = gallery(name)
        quotient = quotient_family(spec)
        has_repeat = any(
            len(set(f.index_tuple)) != len(f.index_tuple) for f in quotient.total.faces
        )
        if has_repeat:
            out.append((name, spec.fiber))
        else:
            assert check_embeddable(quotient).embeddable
            out.append((name, quotient.total))
    return out


def connected_boundary_gallery() -> list[tuple[str, FacePoset]]:
    """Gallery posets that are connected with nonempty boundary."""
    return [
        (name, poset)
        for name, poset in gallery_posets()
        if poset.connected and poset.faces_of_codim(1)
    ]


def kgon(k: int) -> FacePoset:
    """The k-gon: k edges on k hypersurfaces, vertex i joins edges i and i + 1."""
    hyps = [f"h{i:03d}" for i in range(k)]
    faces = [("int", 0, (), {})]
    faces += [(f"e{i:03d}", 1, (hyps[i],), {hyps[i]: "int"}) for i in range(k)]
    for i in range(k):
        a, b = sorted((i, (i + 1) % k))
        faces.append((f"v{i:03d}", 2, (hyps[a], hyps[b]), {hyps[a]: f"e{b:03d}", hyps[b]: f"e{a:03d}"}))
    return FacePoset.build(hyps, faces)


def cube(d: int) -> FacePoset:
    """The cube [0,1]^d: hypersurfaces x_i = 0 and x_i = 1, one face per
    choice of free ('*') or fixed ('0', '1') coordinates."""
    hyps = [f"x{i}{side}" for i in range(d) for side in "01"]
    states = sorted(itertools.product("*01", repeat=d), key=lambda s: (d - s.count("*"), s))
    faces = []
    for state in states:
        fixed = [i for i, x in enumerate(state) if x != "*"]
        parents = {
            f"x{i}{state[i]}": "f" + "".join(state[:i]) + "*" + "".join(state[i + 1 :]) for i in fixed
        }
        faces.append(("f" + "".join(state), len(fixed), tuple(sorted(parents)), parents))
    return FacePoset.build(hyps, faces)


def random_codim2_poset(rng, n_faces: int) -> FacePoset:
    """A connected codimension-2 poset with exactly ``n_faces`` faces: one
    interior, edges on random hypersurfaces, and corners joining two edges
    on distinct hypersurfaces (so every grandparent is the interior)."""
    n_edges = max(4, (n_faces - 1) // 3)
    hyps = [f"h{i:03d}" for i in range(max(3, 2 * n_edges // 3))]
    on = [hyps[e] if e < len(hyps) else rng.choice(hyps) for e in range(n_edges)]
    faces = [("int", 0, (), {})]
    faces += [(f"e{e:03d}", 1, (h,), {h: "int"}) for e, h in enumerate(on)]
    for c in range(n_faces - 1 - n_edges):
        a, b = rng.sample(range(n_edges), 2)
        while on[a] == on[b]:
            a, b = rng.sample(range(n_edges), 2)
        if on[a] > on[b]:
            a, b = b, a
        faces.append((f"c{c:03d}", 2, (on[a], on[b]), {on[a]: f"e{b:03d}", on[b]: f"e{a:03d}"}))
    return FacePoset.build(hyps, faces)
