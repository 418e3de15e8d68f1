"""Combinatorial face structure of a manifold with embedded corners.

A poset records hypersurfaces, one entry per connected face, the sorted
hypersurface tuple of each face and, for every index of that tuple, the unique
parent face obtained by dropping it.  Hypersurface identifiers are opaque
strings ordered lexicographically; that order is what "sorted tuple" means.

A face owns its parents: whatever mapping or pairs it is given, it keeps
them as one canonical tuple of (index, parent id) pairs sorted by index,
the last pair winning on a repeated index as in ``dict``.  On a valid face
those keys are its sorted index tuple, so every reader after validation
takes a face's parents by position.  A poset is immutable: its fields are
tuples and frozen faces, whatever sequences it was built from.  So its
validation verdict, its per-codimension indices of faces and of face ids,
its id -> face index and the derived-structure memo (its incidence
matrices, their Smith invariants and its corner graph) are built on first
read and kept on the object; validation keeps no parent map.

Validation settles a passing face with one test: its codim equals the
length of its tuple, every index is a known hypersurface, and its parents,
read as (index, (parent codim, parent tuple)) pairs, equal (i, (codim - 1,
tuple minus i)) for the indices i in order.  The parent keys are already
sorted and distinct, so they equal the tuple only when the tuple is sorted
and distinct with no stray or missing parent; the rest says each parent
exists, has codim - 1 and carries the tuple minus its index.  Only a face
that fails the test goes through the per-message checks, so the messages
and their order are those of checking every face; no parent map is built
unless the pairwise grandparent check below runs.

Validation checks grandparent commutation pair by pair only when it can
fail.  If every per-face check passes and no two faces share an index
tuple, then for a codim-k face with tuple I and indices i, j both drop
orders end at a face carrying I - {i, j}: each parent exists, has codim
k - 1 and carries I minus its index, and so does each of its parents.
Tuples being distinct, the two ends are one face, so no pair can
disagree and the check is settled without the pairwise loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property


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

    def __post_init__(self):
        if type(self.index_tuple) is not tuple:
            object.__setattr__(self, "index_tuple", tuple(self.index_tuple))
        pmap = self.parents if isinstance(self.parents, dict) else dict(self.parents)
        object.__setattr__(self, "parents", tuple(sorted(pmap.items())))

    def parent_map(self) -> dict[str, str]:
        return dict(self.parents)

    def incidence_sign(self, g: "Face") -> int:
        """(-1)^(k-1) when g is the parent of this face dropping the k-th
        index, else 0."""
        if self.codim != g.codim + 1:
            raise ValueError(f"codim mismatch: {self.id} has codim {self.codim}, {g.id} has {g.codim}")
        for k, i in enumerate(self.index_tuple):
            if (i, g.id) in self.parents:
                return -1 if k % 2 else 1
        return 0


@dataclass(frozen=True)
class FacePoset:
    hypersurfaces: tuple[str, ...]
    faces: tuple[Face, ...]
    connected: bool = True

    def __post_init__(self):
        if type(self.hypersurfaces) is not tuple:
            object.__setattr__(self, "hypersurfaces", tuple(self.hypersurfaces))
        if type(self.faces) is not tuple:
            object.__setattr__(self, "faces", tuple(self.faces))

    @cached_property
    def _verdict(self) -> tuple[str, ...]:
        return tuple(_violations(self))

    @cached_property
    def _by_codim(self) -> dict[int, tuple[Face, ...]]:
        index = {}
        for f in self.faces:
            index.setdefault(f.codim, []).append(f)
        return {p: tuple(fs) for p, fs in index.items()}

    @cached_property
    def _ids_by_codim(self) -> dict[int, tuple[str, ...]]:
        return {p: tuple(f.id for f in fs) for p, fs in self._by_codim.items()}

    @cached_property
    def _id_index(self) -> dict[str, Face]:
        """id -> face, the last face winning on a repeated id; read-only."""
        return {f.id: f for f in self.faces}

    @cached_property
    def _derived_memo(self) -> dict:
        """The poset's one algebra memo: structure that depends on the faces
        alone, immutable values, each kind written by its one owner:
        ("incidence", p) -> D_p, by ``conormal.incidence_matrix``;
        ("invariants", p, c) -> (rank, N) of that D_p over Z or mod c, by
        ``conormal._boundary_invariant``, which reads ("incidence", p) to
        tell the poset's D_p from any other; and "corner_graph" -> the
        corner graph, by ``obstruction._corner_graph``."""
        return {}

    @classmethod
    def build(cls, hypersurfaces, faces, connected=True) -> "FacePoset":
        """Assemble from faces or (id, codim, tuple, parents) records; each
        ``Face`` puts its parents, a dict or pairs, in canonical form."""
        built = [f if isinstance(f, Face) else Face(*f) for f in faces]
        return cls(tuple(hypersurfaces), tuple(built), connected)

    def by_id(self) -> dict[str, Face]:
        """id -> face, a copy of the poset's index that the caller may change."""
        return dict(self._id_index)

    def codimension(self) -> int:
        return max(self._by_codim, default=0)

    def faces_of_codim(self, p: int) -> list[Face]:
        """Faces of codimension p, in declaration order (the chain basis order)."""
        return list(self._by_codim.get(p, ()))

    def face_ids_of_codim(self, p: int) -> tuple[str, ...]:
        """Ids of the faces of codimension p, in the order of :meth:`faces_of_codim`."""
        return self._ids_by_codim.get(p, ())

    def is_empty(self) -> bool:
        return not self.faces


def validate(poset: FacePoset) -> list[str]:
    """All violated invariants, one message each; empty list means valid.

    A poset with no faces at all stands for the empty manifold and is valid.
    The verdict is computed once per poset object and kept on it; each call
    returns a fresh list of it.
    """
    return list(poset._verdict)


def _violations(poset: FacePoset) -> list[str]:
    """The one indexed pass behind :func:`validate`.

    One pass checks every face and its parents against the poset's
    id -> (codim, tuple) table: a passing face costs one test, a failing
    one gets the per-message checks (module docstring).  Grandparent
    commutation follows, its messages after all the per-face ones; it is
    settled by the distinct-tuple argument of the module docstring when
    that pass found nothing and no index tuple repeats, and checked pair by
    pair otherwise, with each face's parent map built for that loop only.
    """
    violations = []
    if poset.is_empty():
        return violations
    hyps = set(poset.hypersurfaces)
    if len(hyps) != len(poset.hypersurfaces):
        violations.append("duplicate-hypersurface: hypersurface list has repeats")
    by_id = poset._id_index
    if len(by_id) != len(poset.faces):
        seen = set()
        for f in poset.faces:
            if f.id in seen:
                violations.append(f"duplicate-face-id: {f.id}")
            seen.add(f.id)

    n_codim0 = len(poset._by_codim.get(0, ()))
    if n_codim0 == 0:
        violations.append("missing-interior: no codimension-0 face")
    elif poset.connected and n_codim0 > 1:
        violations.append("disconnected-interior: connected poset has several codimension-0 faces")

    # id -> (codim, index tuple), the last face winning on a repeated id as
    # in the id index
    shape = {f.id: (f.codim, f.index_tuple) for f in poset.faces}
    for f in poset.faces:
        idx = f.index_tuple
        if (
            f.codim == len(idx)
            and hyps.issuperset(idx)
            and [(i, shape.get(gid)) for i, gid in f.parents]
            == [(i, (f.codim - 1, idx[:k] + idx[k + 1 :])) for k, i in enumerate(idx)]
        ):
            continue
        if f.codim < 0:
            violations.append(f"negative-codim: {f.id}")
            continue
        if len(idx) != f.codim:
            violations.append(f"tuple-length: {f.id} has {len(idx)} indices for codim {f.codim}")
        unknown = [h for h in idx if h not in hyps]
        if unknown:
            violations.append(f"unknown-hypersurface: {f.id} references {unknown[0]}")
            continue
        members = set(idx)
        distinct = len(members) == len(idx)
        weakly_sorted = tuple(sorted(idx)) == idx
        if not distinct:
            violations.append(f"duplicate-index: {f.id} repeats a hypersurface")
        if not weakly_sorted:
            violations.append(f"unsorted-tuple: {f.id} index tuple is not ascending")
        if not distinct or not weakly_sorted:
            continue
        pmap = f.parent_map()
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
            g = by_id[gid]
            if g.codim != f.codim - 1:
                violations.append(f"parent-codim: {f.id} parent {gid} has codim {g.codim}")
                continue
            # with no repeats, dropping position k drops exactly the index i
            expected = idx[:k] + idx[k + 1 :]
            if g.index_tuple != expected:
                violations.append(f"parent-tuple: {f.id} parent {gid} should carry {expected}")

    # Settled, not skipped: with every face and parent checked and no tuple
    # repeated, both drop orders of a pair end at the one face carrying the
    # tuple minus both indices (module docstring), so no pair can disagree.
    if not violations and len({f.index_tuple for f in poset.faces}) == len(poset.faces):
        return violations
    pmaps = [f.parent_map() for f in poset.faces]
    pmap_of = {f.id: pmap for f, pmap in zip(poset.faces, pmaps)}
    for f, pmap in zip(poset.faces, pmaps):
        idx = f.index_tuple
        members = set(idx)
        # grandparents commute: dropping i then j matches dropping j then i
        if f.codim < 2 or len(members) != len(idx) or pmap.keys() != members:
            continue
        # (index, parent map of the parent dropping it), for known parents
        known = [(i, pmap_of[pmap[i]]) for i in idx if pmap[i] in pmap_of]
        for a, (i, via) in enumerate(known):
            for j, other in known[a + 1 :]:
                via_i = via.get(j)
                if via_i is None or via_i != other.get(i):
                    violations.append(
                        f"grandparent-mismatch: {f.id} dropping {i},{j} in either order disagrees"
                    )
    return violations


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
    by_id = poset._id_index
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
