"""Shared test utilities: independent oracles and random valid posets.

The oracles here deliberately avoid the library's own reduction code:
determinants come from fraction-free Bareiss elimination, invariant factors
from gcds of k x k minors, and solvability checks over finite groups from
plain enumeration.
"""

from __future__ import annotations

import itertools
from math import gcd

from cornerindex.abelian import FGAbelianGroup, IntegerHom, direct_sum, tensor, tor
from cornerindex.conormal import build_complex, homology
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
