"""Combinatorial face structure of a manifold with embedded corners.

A poset records hypersurfaces, one entry per connected face, the sorted
hypersurface tuple of each face and, for every index of that tuple, the unique
parent face obtained by dropping it.  Hypersurface identifiers are opaque
strings ordered lexicographically; that order is what "sorted tuple" means.
"""

from __future__ import annotations

from dataclasses import dataclass


class InvalidPosetError(ValueError):
    """Raised when an operation requires a poset that passes validation."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


@dataclass(frozen=True)
class Face:
    id: str
    codim: int
    index_tuple: tuple[str, ...]
    parents: tuple[tuple[str, str], ...] = ()  # (dropped hypersurface, parent face id)

    def parent_map(self) -> dict[str, str]:
        return dict(self.parents)

    def incidence_sign(self, g: "Face") -> int:
        """(-1)^(k-1) when g is the parent of this face dropping the k-th
        index, else 0."""
        if self.codim != g.codim + 1:
            raise ValueError(f"codim mismatch: {self.id} has codim {self.codim}, {g.id} has {g.codim}")
        pmap = self.parent_map()
        for k, i in enumerate(self.index_tuple):
            if pmap.get(i) == g.id:
                return -1 if k % 2 else 1
        return 0


@dataclass(frozen=True)
class FacePoset:
    hypersurfaces: tuple[str, ...]
    faces: tuple[Face, ...]
    connected: bool = True

    @classmethod
    def build(cls, hypersurfaces, faces, connected=True) -> "FacePoset":
        """Assemble from loose data; parents may be given as dicts."""
        built = []
        for f in faces:
            if isinstance(f, Face):
                built.append(f)
            else:
                fid, codim, tup, parents = f
                built.append(
                    Face(fid, codim, tuple(tup), tuple(sorted(parents.items())))
                )
        return cls(tuple(hypersurfaces), tuple(built), connected)

    def by_id(self) -> dict[str, Face]:
        return {f.id: f for f in self.faces}

    def codimension(self) -> int:
        return max((f.codim for f in self.faces), default=0)

    def faces_of_codim(self, p: int) -> list[Face]:
        """Faces of codimension p, in declaration order (the chain basis order)."""
        return [f for f in self.faces if f.codim == p]

    def is_empty(self) -> bool:
        return not self.faces


def validate(poset: FacePoset) -> list[str]:
    """All violated invariants, one message each; empty list means valid.

    A poset with no faces at all stands for the empty manifold and is valid.
    The faces are indexed once (id -> face and parent map); one pass then
    checks every face, its parents and its index pairs, reading the
    grandparents' parent maps from the index.  Grandparent-commutation
    messages follow all the per-face ones.
    """
    violations = []
    if poset.is_empty():
        return violations
    hyps = set(poset.hypersurfaces)
    if len(hyps) != len(poset.hypersurfaces):
        violations.append("duplicate-hypersurface: hypersurface list has repeats")
    pmaps = [f.parent_map() for f in poset.faces]
    by_id = {}  # id -> (face, parent map); the last face wins on a repeated id
    n_codim0 = 0
    for f, pmap in zip(poset.faces, pmaps):
        if f.id in by_id:
            violations.append(f"duplicate-face-id: {f.id}")
        by_id[f.id] = (f, pmap)
        if f.codim == 0:
            n_codim0 += 1

    if n_codim0 == 0:
        violations.append("missing-interior: no codimension-0 face")
    elif poset.connected and n_codim0 > 1:
        violations.append("disconnected-interior: connected poset has several codimension-0 faces")

    commute = []
    for f, pmap in zip(poset.faces, pmaps):
        idx = f.index_tuple
        members = set(idx)
        distinct = len(members) == len(idx)
        # grandparents commute: dropping i then j matches dropping j then i
        if f.codim >= 2 and distinct and pmap.keys() == members:
            # (index, parent map of the parent dropping it), for known parents
            known = [(i, by_id[pmap[i]][1]) for i in idx if pmap[i] in by_id]
            for a, (i, via) in enumerate(known):
                for j, other in known[a + 1 :]:
                    via_i = via.get(j)
                    if via_i is None or via_i != other.get(i):
                        commute.append(
                            f"grandparent-mismatch: {f.id} dropping {i},{j} in either order disagrees"
                        )

        if f.codim < 0:
            violations.append(f"negative-codim: {f.id}")
            continue
        if len(idx) != f.codim:
            violations.append(f"tuple-length: {f.id} has {len(idx)} indices for codim {f.codim}")
        unknown = [h for h in idx if h not in hyps]
        if unknown:
            violations.append(f"unknown-hypersurface: {f.id} references {unknown[0]}")
            continue
        weakly_sorted = tuple(sorted(idx)) == idx
        if not distinct:
            violations.append(f"duplicate-index: {f.id} repeats a hypersurface")
        if not weakly_sorted:
            violations.append(f"unsorted-tuple: {f.id} index tuple is not ascending")
        if not distinct or not weakly_sorted:
            continue
        extra = pmap.keys() - members
        if extra:
            violations.append(f"stray-parent: {f.id} lists parent for absent index {min(extra)}")
        for k, i in enumerate(idx):
            if i not in pmap:
                violations.append(f"missing-parent: {f.id} has no parent for index {i}")
                continue
            gid = pmap[i]
            if gid not in by_id:
                violations.append(f"unknown-parent: {f.id} names missing face {gid}")
                continue
            g = by_id[gid][0]
            if g.codim != f.codim - 1:
                violations.append(f"parent-codim: {f.id} parent {gid} has codim {g.codim}")
                continue
            # with no repeats, dropping position k drops exactly the index i
            expected = idx[:k] + idx[k + 1 :]
            if g.index_tuple != expected:
                violations.append(f"parent-tuple: {f.id} parent {gid} should carry {expected}")
    return violations + commute


def require_valid(poset: FacePoset) -> FacePoset:
    violations = validate(poset)
    if violations:
        raise InvalidPosetError(violations)
    return poset


def filtration(poset: FacePoset, k: int) -> FacePoset:
    """Sub-poset of faces with codim <= k; k = -1 yields the empty poset."""
    d = poset.codimension()
    if k < -1 or k > d:
        raise ValueError(f"filtration level {k} outside [-1, {d}]")
    faces = tuple(f for f in poset.faces if f.codim <= k)
    connected = poset.connected and k >= 0
    return FacePoset(poset.hypersurfaces, faces, connected)


def incidence_sign(poset: FacePoset, f_id: str, g_id: str) -> int:
    """(-1)^(k-1) when g is the parent of f dropping the k-th index, else 0."""
    by_id = poset.by_id()
    return by_id[f_id].incidence_sign(by_id[g_id])


@dataclass(frozen=True)
class FilteredPair:
    """The pair (X_high, X_low) of the codimension filtration, -1 <= low <= high <= d."""

    base: FacePoset
    low: int
    high: int

    def __post_init__(self):
        d = self.base.codimension()
        if not (-1 <= self.low <= self.high <= d):
            raise ValueError(f"filtration pair ({self.low}, {self.high}) outside -1 <= m <= l <= {d}")

    def degrees(self) -> range:
        return range(self.low + 1, self.high + 1)
