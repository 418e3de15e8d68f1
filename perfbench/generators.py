"""Seeded input generators for the benchmark.

Every generator returns plain JSON payloads in the ``poset`` / ``family`` /
``symbol`` / ``ktheory`` document schemas and never imports the library, so
the same payloads feed both the library (through ``documents``) and the
oracles.  Every poset satisfies the embedded-corner axioms by construction:
set-up still runs ``faces.validate`` on each one.

Hypersurface identifiers are zero-padded so that lexicographic order (the
library's "sorted tuple" order) matches numeric order.
"""

from __future__ import annotations

import itertools
import json
import random


def document(kind: str, payload: dict) -> dict:
    return {"kind": kind, "version": 1, "payload": payload}


def dump(doc) -> str:
    """Byte-stable document text: sorted keys on one line (no indent, so
    that the C encoder writes it)."""
    return json.dumps(doc, sort_keys=True) + "\n"


def _poset(hyps, faces, connected=True) -> dict:
    return {
        "hypersurfaces": list(hyps),
        "connected": connected,
        "faces": [
            {"id": fid, "codim": codim, "index_tuple": list(tup), "parents": dict(sorted(parents.items()))}
            for fid, codim, tup, parents in faces
        ],
    }


# ---------------------------------------------------------------------------
# cubes, k-gons and products


def _cube_hyp(i: int, side: int) -> str:
    return f"x{i:02d}{'ab'[side]}"


def _cube_face_id(state) -> str:
    return "f" + "".join(state)


def cube_faces(d: int):
    """Faces of [0,1]^d as coordinate states ('*' free, '0', '1'), codim-major."""
    states = list(itertools.product("*01", repeat=d))
    states.sort(key=lambda s: (sum(c != "*" for c in s), s))
    return states


def cube(d: int) -> dict:
    """The n-cube [0,1]^d: 2d hypersurfaces, 3^d faces."""
    hyps = [_cube_hyp(i, s) for i in range(d) for s in (0, 1)]
    faces = []
    for state in cube_faces(d):
        fixed = [i for i, c in enumerate(state) if c != "*"]
        tup = tuple(_cube_hyp(i, int(state[i])) for i in fixed)
        parents = {}
        for i in fixed:
            up = list(state)
            up[i] = "*"
            parents[_cube_hyp(i, int(state[i]))] = _cube_face_id(up)
        faces.append((_cube_face_id(state), len(fixed), tup, parents))
    return _poset(hyps, faces)


def kgon(k: int) -> dict:
    """A k-gon: k edges on k hypersurfaces, vertex i joins edges i and i+1."""
    if k < 3:
        raise ValueError("a k-gon needs k >= 3")
    hyps = [f"h{i:03d}" for i in range(k)]
    faces = [("int", 0, (), {})]
    faces += [(f"e{i:03d}", 1, (hyps[i],), {hyps[i]: "int"}) for i in range(k)]
    for i in range(k):
        j = (i + 1) % k
        a, b = sorted((i, j))
        faces.append(
            (f"v{i:03d}", 2, (hyps[a], hyps[b]), {hyps[a]: f"e{b:03d}", hyps[b]: f"e{a:03d}"})
        )
    return _poset(hyps, faces)


def product(p: dict, q: dict, left: str = "a", right: str = "b") -> dict:
    """Product poset P x Q: faces are pairs, hypersurfaces the disjoint union."""
    def tag(prefix, h):
        return f"{prefix}.{h}"

    hyps = sorted([tag(left, h) for h in p["hypersurfaces"]] + [tag(right, h) for h in q["hypersurfaces"]])
    pairs = [(f, g) for f in p["faces"] for g in q["faces"]]
    pairs.sort(key=lambda fg: fg[0]["codim"] + fg[1]["codim"])
    faces = []
    for f, g in pairs:
        tup = tuple(sorted([tag(left, h) for h in f["index_tuple"]] + [tag(right, h) for h in g["index_tuple"]]))
        parents = {}
        for h, fp in f["parents"].items():
            parents[tag(left, h)] = f"{fp}|{g['id']}"
        for h, gp in g["parents"].items():
            parents[tag(right, h)] = f"{f['id']}|{gp}"
        faces.append((f"{f['id']}|{g['id']}", f["codim"] + g["codim"], tup, parents))
    return _poset(hyps, faces, p["connected"] and q["connected"])


def prism(k: int) -> dict:
    """Interval x k-gon: a codimension-3 poset with 3(2k + 1) faces."""
    return product(cube(1), kgon(k), "i", "p")


def skeleton(poset: dict, k: int) -> dict:
    """Faces of codimension <= k (the filtration stage X_k) as a poset."""
    return {
        "hypersurfaces": list(poset["hypersurfaces"]),
        "connected": poset["connected"],
        "faces": [f for f in poset["faces"] if f["codim"] <= k],
    }


def random_codim2(rng: random.Random, n_faces: int) -> dict:
    """A connected codimension-2 poset with exactly ``n_faces`` faces.

    Each hypersurface carries one or more codim-1 components (all children of
    the single interior); each corner joins two components on distinct
    hypersurfaces.  Grandparents are the interior either way, so the axioms
    hold by construction.
    """
    n_edges = max(4, (n_faces - 1) // 3)
    n_corners = n_faces - 1 - n_edges
    n_hyps = max(3, n_edges * 2 // 3)
    hyps = [f"h{i:03d}" for i in range(n_hyps)]
    faces = [("int", 0, (), {})]
    edge_hyp = []
    for e in range(n_edges):
        h = hyps[e] if e < n_hyps else rng.choice(hyps)
        edge_hyp.append(h)
        faces.append((f"e{e:03d}", 1, (h,), {h: "int"}))
    for c in range(n_corners):
        while True:
            a, b = rng.sample(range(n_edges), 2)
            if edge_hyp[a] != edge_hyp[b]:
                break
        if edge_hyp[a] > edge_hyp[b]:
            a, b = b, a
        ha, hb = edge_hyp[a], edge_hyp[b]
        faces.append((f"c{c:03d}", 2, (ha, hb), {ha: f"e{b:03d}", hb: f"e{a:03d}"}))
    return _poset(hyps, faces)


# ---------------------------------------------------------------------------
# incidence matrices built straight from the payload (oracle side)


def faces_of_codim(poset: dict, p: int) -> list[dict]:
    return [f for f in poset["faces"] if f["codim"] == p]


def incidence(poset: dict, p: int) -> list[list[int]]:
    """Signed incidence rows (codim p-1 faces) x columns (codim p faces)."""
    rows = faces_of_codim(poset, p - 1) if p >= 1 else []
    cols = faces_of_codim(poset, p)
    where = {f["id"]: i for i, f in enumerate(rows)}
    out = [[0] * len(cols) for _ in rows]
    for j, f in enumerate(cols):
        for k, h in enumerate(f["index_tuple"]):
            out[where[f["parents"][h]]][j] = -1 if k % 2 else 1
    return out


# ---------------------------------------------------------------------------
# K-theory inputs and symbols

KTHEORY = {
    "point": {"preset": "point"},
    "circle": {"preset": "circle"},
    # a base with torsion in both degrees
    "torsion": {
        "K0B": {"rank": 1, "torsion": [2]},
        "K1B": {"rank": 0, "torsion": [4]},
        "label": "Z + Z/2 over Z/4",
    },
}

KTHEORY_GROUPS = {
    "point": ((1, ()), (0, ())),
    "circle": ((1, ()), (1, ())),
    "torsion": ((1, (2,)), (0, (4,))),
}


def _element(group, values) -> dict:
    rank, torsion = group
    return {"free": list(values[:rank]), "torsion": [v % d for v, d in zip(values[rank:], torsion)]}


def _random_values(rng, group) -> list[int]:
    rank, torsion = group
    return [rng.randint(-3, 3) for _ in range(rank)] + [rng.randrange(d) for d in torsion]


def symbol(rng: random.Random, poset: dict, ktheory: str, vanishing: bool) -> dict:
    """A symbol whose codim-2 verdict is known by construction.

    Vanishing: all codim-2 indices zero and codim-1 indices ``D_2 x`` for a
    random 2-chain x.  Non-vanishing: add an odd unit to the first codim-1
    entry (when K^1 has a summand that sees parity) or a nonzero index at one
    corner, so that an all-ones functional mod 2 (every corner column has two
    odd entries) or the pointwise test rejects it.
    """
    k0, k1 = KTHEORY_GROUPS[ktheory]
    slots1 = k1[0] + len(k1[1])
    edges = faces_of_codim(poset, 1)
    corners = faces_of_codim(poset, 2)
    d2 = incidence(poset, 2)
    x = [_random_values(rng, k1) for _ in corners]
    b = [[sum(d2[i][j] * x[j][s] for j in range(len(corners))) for s in range(slots1)] for i in range(len(edges))]
    zero0 = [0] * (k0[0] + len(k0[1]))
    c2 = {f["id"]: list(zero0) for f in corners}
    if not vanishing:
        parity_slot = next((s for s in range(slots1) if s < k1[0] or k1[1][s - k1[0]] % 2 == 0), None)
        if parity_slot is not None and edges:
            b[0][parity_slot] += 1
        else:
            victim = corners[rng.randrange(len(corners))]["id"]
            c2[victim] = [1] + zero0[1:]
    return {
        "codim1_indices": {f["id"]: _element(k1, b[i]) for i, f in enumerate(edges)},
        "codim2_indices": {fid: _element(k0, v) for fid, v in c2.items()},
    }


def codim1_symbol(rng: random.Random, poset: dict, ktheory: str, vanishing: bool) -> dict:
    """Codim-1 indices, all zero when ``vanishing``; otherwise one nonzero."""
    _, k1 = KTHEORY_GROUPS[ktheory]
    edges = faces_of_codim(poset, 1)
    slots = k1[0] + len(k1[1])
    values = {f["id"]: [0] * slots for f in edges}
    if not vanishing and slots:
        victim = edges[rng.randrange(len(edges))]["id"]
        values[victim] = [1] + [0] * (slots - 1)
    return {"codim1_indices": {fid: _element(k1, v) for fid, v in values.items()}, "codim2_indices": {}}


# ---------------------------------------------------------------------------
# n-cube fibers with hyperoctahedral monodromy


def signed_permutation(d: int, perm, flips) -> dict:
    """Fiber automorphism of the d-cube: coordinate i goes to perm[i], its
    two sides swapped when flips[i]."""
    face_map = {}
    for state in cube_faces(d):
        image = ["*"] * d
        for i, c in enumerate(state):
            image[perm[i]] = c if c == "*" or not flips[i] else "01"[c == "0"]
        face_map[_cube_face_id(state)] = _cube_face_id(image)
    hyp_map = {
        _cube_hyp(i, s): _cube_hyp(perm[i], s ^ int(flips[i])) for i in range(d) for s in (0, 1)
    }
    return {"face_map": dict(sorted(face_map.items())), "hypersurface_map": dict(sorted(hyp_map.items()))}


def cube_family(rng: random.Random, d: int, embeddable: bool) -> dict:
    """A d-cube fiber with one seeded monodromy generator.

    Embeddable: a single-coordinate flip.  Not embeddable: a rotation of at
    least two coordinates (a cyclic permutation), with random flips on top.
    """
    perm = list(range(d))
    flips = [False] * d
    if embeddable:
        flips[rng.randrange(d)] = True
    else:
        moved = rng.sample(range(d), rng.randint(2, d))
        for a, b in zip(moved, moved[1:] + moved[:1]):
            perm[a] = b
        flips = [rng.random() < 0.5 for _ in range(d)]
    return {
        "fiber": cube(d),
        "base_label": "circle",
        "generators": [signed_permutation(d, perm, flips)],
    }


def broken_poset(rng: random.Random, d: int) -> dict:
    """A d-cube with one corrupted parent pointer: validation must fail."""
    poset = cube(d)
    victims = [f for f in poset["faces"] if f["codim"] >= 2]
    victim = victims[rng.randrange(len(victims))]
    h = victim["index_tuple"][0]
    victim["parents"][h] = "int-missing"
    return poset


# documents the CLI must refuse with its parse-error exit code
GARBLED = {
    "truncated": '{"kind": "poset", "version": 1, "payload": {"hypersurfaces": ["x00a"',
    "not-an-object": "[1, 2, 3]\n",
    "unknown-kind": '{"kind": "sheaf", "version": 1, "payload": {}}\n',
    "wrong-version": '{"kind": "poset", "version": 99, "payload": {}}\n',
    "payload-not-an-object": '{"kind": "poset", "version": 1, "payload": []}\n',
}
