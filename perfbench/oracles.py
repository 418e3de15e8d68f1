"""Answer checks that do not trust the library's Smith normal form.

Groups are compared through two invariants that plain linear algebra over
prime fields can predict: the rank, and for a prime p the dimension
``delta_p(A) = dim_{F_p} A / pA`` (rank plus the number of invariant factors
divisible by p).  Differential ranks come from Gaussian elimination over
F_p on incidence matrices rebuilt from the generator payloads, never from the
library's own complex.

A group is passed around as ``(rank, torsion)``.  Every check returns a list
of problem strings; an empty list means the answer passed.
"""

from __future__ import annotations

import hashlib
import json

from generators import faces_of_codim, incidence

# ranks over Q are taken as the largest rank over these primes; the incidence
# matrices here have invariant factors far below either
_LARGE_PRIMES = (2_147_483_647, 2_305_843_009_213_693_951)


def rank_mod(matrix: list[list[int]], p: int) -> int:
    """Rank of an integer matrix reduced mod p, by Gaussian elimination."""
    rows = [[x % p for x in row] for row in matrix]
    rows = [r for r in rows if any(r)]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for c in range(cols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        prow = rows[rank]
        inv = pow(prow[c], -1, p)
        for i in range(rank + 1, len(rows)):
            f = rows[i][c]
            if f:
                f = f * inv % p
                ri = rows[i]
                for j in range(c, cols):
                    ri[j] = (ri[j] - f * prow[j]) % p
        rank += 1
    return rank


def rational_rank(matrix: list[list[int]]) -> int:
    return max(rank_mod(matrix, q) for q in _LARGE_PRIMES)


def prime_factors(n: int) -> list[int]:
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def elementary_divisors(group) -> tuple[int, tuple[int, ...]]:
    """(rank, sorted prime powers): equal exactly for isomorphic groups."""
    rank, torsion = group
    powers = []
    for d in torsion:
        for p in prime_factors(d):
            e = 1
            while d % (p ** (e + 1)) == 0:
                e += 1
            powers.append(p ** e)
    return rank, tuple(sorted(powers))


def direct_sum(*groups):
    rank = sum(g[0] for g in groups)
    return rank, tuple(t for g in groups for t in g[1])


def delta(group, p: int) -> int:
    rank, torsion = group
    return rank + sum(1 for d in torsion if d % p == 0)


def check_primes(coefficient) -> list[int]:
    primes = {2, 3}
    for d in coefficient[1]:
        primes.update(prime_factors(d))
    return sorted(primes)


# ---------------------------------------------------------------------------
# homology of a filtered pair


class PairOracle:
    """Predicted invariants of H_k(X_high, X_low; G) for every degree k.

    Differentials are rebuilt from the payload; D_k is zero when k-1 <= low,
    and D_{high+1} is absent, exactly as the relative complex is defined.
    """

    def __init__(self, poset: dict, low: int, high: int, primes):
        self.degrees = list(range(low + 1, high + 1))
        self.sizes = {k: len(faces_of_codim(poset, k)) for k in self.degrees}
        mats = {}
        for k in self.degrees + [high + 1]:
            if k in self.degrees and k - 1 > low and self.sizes[k]:
                mats[k] = incidence(poset, k)
            else:
                mats[k] = []
        self.primes = sorted(set(primes))
        self.rank_q = {k: rational_rank(m) for k, m in mats.items()}
        self.rank_p = {p: {k: rank_mod(m, p) for k, m in mats.items()} for p in self.primes}
        # integral Betti numbers and p-torsion counts of H_k(Z), by the UCT
        self.betti = {k: self.sizes[k] - self.rank_q[k] - self.rank_q[k + 1] for k in self.degrees}
        self.tors = {}
        for p in self.primes:
            prev = 0
            counts = {}
            for k in self.degrees:
                beta = self.sizes[k] - self.rank_p[p][k] - self.rank_p[p][k + 1]
                counts[k] = (beta, beta - self.betti[k] - prev)
                prev = counts[k][1]
            self.tors[p] = counts

    def euler(self) -> int:
        return sum((-1) ** k * n for k, n in self.sizes.items())

    def predicted(self, k: int, coefficient, p: int) -> tuple[int, int]:
        """(rank, delta_p) of H_k with coefficient ``(a, torsion)``."""
        a, torsion = coefficient
        beta, t_k = self.tors[p][k]
        m_p = sum(1 for d in torsion if d % p == 0)
        return a * self.betti[k], a * (self.betti[k] + t_k) + m_p * beta

    def check_degree(self, k: int, coefficient, answer, where: str) -> list[str]:
        problems = []
        for p in check_primes(coefficient):
            rank, d_p = self.predicted(k, coefficient, p)
            if answer[0] != rank:
                problems.append(f"{where}: H_{k} rank {answer[0]}, oracle {rank}")
                break
            if delta(answer, p) != d_p:
                problems.append(f"{where}: H_{k} dim mod {p} is {delta(answer, p)}, oracle {d_p}")
        return problems

    def check_periodized(self, parity: int, coefficient, answer, where: str) -> list[str]:
        problems = []
        ks = [k for k in self.degrees if k % 2 == parity]
        for p in check_primes(coefficient):
            preds = [self.predicted(k, coefficient, p) for k in ks]
            rank = sum(r for r, _ in preds)
            d_p = sum(d for _, d in preds)
            if answer[0] != rank or delta(answer, p) != d_p:
                problems.append(
                    f"{where}: periodized parity {parity} gives (rank {answer[0]}, dim mod {p} "
                    f"{delta(answer, p)}), oracle ({rank}, {d_p})"
                )
        return problems


def check_homology(poset: dict, pair, coefficient, groups: dict, periodized) -> list[str]:
    """groups: degree -> (rank, torsion); periodized: (even, odd)."""
    low, high = pair
    oracle = PairOracle(poset, low, high, check_primes(coefficient))
    problems = []
    if sorted(groups) != oracle.degrees:
        return [f"degrees {sorted(groups)} differ from {oracle.degrees}"]
    for k in oracle.degrees:
        problems += oracle.check_degree(k, coefficient, groups[k], f"pair {pair}")
    euler = sum((-1) ** k * groups[k][0] for k in oracle.degrees)
    if euler != coefficient[0] * oracle.euler():
        problems.append(f"Euler characteristic {euler}, UCT predicts {coefficient[0] * oracle.euler()}")
    for parity in (0, 1):
        want = elementary_divisors(direct_sum(*(groups[k] for k in oracle.degrees if k % 2 == parity)))
        if elementary_divisors(periodized[parity]) != want:
            problems.append(f"periodized parity {parity} is not the sum of its degrees")
    return problems


def check_six_term(poset: dict, triple, coefficient, groups: dict) -> list[str]:
    q, m, l = triple
    primes = check_primes(coefficient)
    problems = []
    pairs = {"mq": (q, m), "lq": (q, l), "lm": (m, l)}
    for tag, (low, high) in pairs.items():
        oracle = PairOracle(poset, low, high, primes)
        for parity in (0, 1):
            problems += oracle.check_periodized(parity, coefficient, groups[f"h{parity}_{tag}"], f"h{parity}_{tag}")
    order = ("h1_mq", "h1_lq", "h1_lm", "h0_mq", "h0_lq", "h0_lm")
    alternating = sum((-1) ** i * groups[name][0] for i, name in enumerate(order))
    if alternating:
        problems.append(f"alternating rank sum around the exact hexagon is {alternating}")
    return problems


def check_boundary_ses(poset: dict, coefficient, left, middle, right) -> list[str]:
    d = max(f["codim"] for f in poset["faces"])
    primes = check_primes(coefficient)
    problems = []
    for (low, high, parity), group, name in (
        ((-1, d, 1), left, "left"),
        ((0, d, 1), middle, "middle"),
        ((-1, 0, 0), right, "right"),
    ):
        problems += PairOracle(poset, low, high, primes).check_periodized(parity, coefficient, group, name)
    if middle[0] != left[0] + right[0]:
        problems.append("ranks are not additive along the short exact sequence")
    return problems


# ---------------------------------------------------------------------------
# obstruction answers


def check_obstruction_space(poset: dict, k0, k1, report) -> list[str]:
    """report: (left, right, middle or None, status)."""
    left, right, middle, status = report
    problems = PairOracle(poset, 0, 2, check_primes(k1)).check_periodized(1, k1, left, "left")
    problems += PairOracle(poset, 0, 2, check_primes(k0)).check_periodized(0, k0, right, "right")
    if left == (0, ()):
        want = ("left_trivial", right)
    elif not right[1]:
        want = ("exact_splits", direct_sum(left, right))
    else:
        want = ("undetermined_extension", None)
    got_middle = elementary_divisors(middle) if middle is not None else None
    want_middle = elementary_divisors(want[1]) if want[1] is not None else None
    if status != want[0] or got_middle != want_middle:
        problems.append(f"middle {middle} / {status}, expected {want[1]} / {want[0]}")
    return problems


def _is_zero(element) -> bool:
    return not any(element["free"]) and not any(element["torsion"])


def check_codim2_verdict(poset: dict, k1, symbol: dict, expected: bool, verdict: dict) -> list[str]:
    """verdict: vanishes, failing_codim2, codim1_class_vanishes, certificate
    (list of {"free", "torsion"} or None)."""
    problems = []
    corners = faces_of_codim(poset, 2)
    edges = faces_of_codim(poset, 1)
    failing = [f["id"] for f in corners if not _is_zero(symbol["codim2_indices"][f["id"]])]
    if list(verdict["failing_codim2"]) != failing:
        problems.append(f"failing corners {verdict['failing_codim2']}, oracle {failing}")
    if verdict["vanishes"] != expected:
        problems.append(f"verdict {verdict['vanishes']}, constructed as {expected}")
    rank, torsion = k1
    d2 = incidence(poset, 2)
    b = [symbol["codim1_indices"][f["id"]] for f in edges]
    if verdict["codim1_class_vanishes"]:
        cert = verdict["certificate"]
        if cert is None or len(cert) != len(corners):
            return problems + ["positive class verdict without a full certificate"]
        for s in range(rank + len(torsion)):
            mod = torsion[s - rank] if s >= rank else None
            for i, row in enumerate(d2):
                coords = [c["free"][s] if s < rank else c["torsion"][s - rank] for c in cert]
                got = sum(a * x for a, x in zip(row, coords))
                want = b[i]["free"][s] if s < rank else b[i]["torsion"][s - rank]
                mismatch = (got - want) % mod != 0 if mod else got != want
                if mismatch:
                    return problems + [f"certificate fails D_2 x = index vector at edge {edges[i]['id']}"]
    else:
        # dual witness: the all-ones functional mod 2 kills every corner column
        if any(sum(d2[i][j] for i in range(len(edges))) % 2 for j in range(len(corners))):
            return problems + ["no mod-2 dual witness exists for this poset"]
        slots = [s for s in range(rank + len(torsion)) if s < rank or torsion[s - rank] % 2 == 0]
        values = [sum(e["free"][s] if s < rank else e["torsion"][s - rank] for e in b) for s in slots]
        if all(v % 2 == 0 for v in values):
            problems.append("negative class verdict without a mod-2 dual witness")
    return problems


def power(group, n: int):
    return group[0] * n, tuple(sorted(group[1] * n))


def check_codim1_groups(poset: dict, k0, k1, groups: dict) -> list[str]:
    """The closed formulas K^i^{n0}, K^{1-i}^{n1}, K^{1-i}^{n1-1}."""
    n0 = len(faces_of_codim(poset, 0))
    n1 = len(faces_of_codim(poset, 1))
    by_degree = (k0, k1)
    want = {
        "ka0": [power(by_degree[i], n0) for i in (0, 1)],
        "ka1_over_a0": [power(by_degree[1 - i], n1) for i in (0, 1)],
        "ka1": [power(by_degree[1 - i], n1 - 1) for i in (0, 1)],
    }
    problems = []
    for name, values in want.items():
        got = [elementary_divisors(g) for g in groups[name]]
        if got != [elementary_divisors(v) for v in values]:
            problems.append(f"{name} is {groups[name]}, formula gives {values}")
    return problems


def check_codim1_verdict(poset: dict, symbol: dict, verdict: dict) -> list[str]:
    failing = [f["id"] for f in faces_of_codim(poset, 1) if not _is_zero(symbol["codim1_indices"][f["id"]])]
    problems = []
    if list(verdict["failing_codim1"]) != failing:
        problems.append(f"failing faces {verdict['failing_codim1']}, oracle {failing}")
    if verdict["vanishes"] != (not failing) or verdict["codim1_class_vanishes"] != (not failing):
        problems.append("codim-1 verdict disagrees with the pointwise rule")
    return problems


# ---------------------------------------------------------------------------
# families


def family_orbits(family: dict):
    """Face and hypersurface orbit representatives (first in declaration
    order), by union of generator cycles."""
    def orbits(items, maps):
        rep = {}
        for start in items:
            if start in rep:
                continue
            stack = [start]
            rep[start] = start
            while stack:
                x = stack.pop()
                for m in maps:
                    y = m[x]
                    if y not in rep:
                        rep[y] = start
                        stack.append(y)
        return rep

    fiber = family["fiber"]
    faces = orbits([f["id"] for f in fiber["faces"]], [g["face_map"] for g in family["generators"]])
    hyps = orbits(list(fiber["hypersurfaces"]), [g["hypersurface_map"] for g in family["generators"]])
    return faces, hyps


def check_family(family: dict, expected_embeddable: bool, result: dict) -> list[str]:
    faces, hyps = family_orbits(family)
    reps = [f for f in family["fiber"]["faces"] if faces[f["id"]] == f["id"]]
    witness = None
    for f in reps:
        images = [hyps[h] for h in f["index_tuple"]]
        if len(set(images)) != len(images):
            witness = f["id"]
            break
    problems = []
    if result["counts"]["total_faces"] != len(reps):
        problems.append(f"{result['counts']['total_faces']} total faces, oracle {len(reps)}")
    if result["embeddable"] != expected_embeddable or result["embeddable"] != (witness is None):
        problems.append(f"embeddable {result['embeddable']}, constructed as {expected_embeddable}")
    if result["witness"] != witness:
        problems.append(f"witness {result['witness']}, oracle {witness}")
    if ("total" in result) != (witness is None):
        problems.append("total poset reported for a non-embeddable family or missing")
    return problems


# ---------------------------------------------------------------------------
# digests of the algorithm-independent part of an answer


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:24]
