"""JSON document schemas for the command-line front end.

Every input file is ``{"kind": ..., "version": 1, "payload": ...}``.  Shape
problems (an unreadable, non-UTF-8 or too deeply nested file, bad JSON,
wrong kind, wrong field types, unparsable coefficient expressions) raise
:class:`InputError` and map to exit code 2; semantic
problems in well-shaped data are domain errors and map to exit code 1.

Reports and generated documents are written by :func:`canonical_json` in
the byte format of ``json.dumps(obj, sort_keys=True, indent=2)`` plus a
newline.  It is a small writer of its own because ``json``'s C encoder
ignores ``indent``: with an indent, ``json.dumps`` runs the pure-Python
encoder, one generator per container.  The writer escapes strings with
the C ``encode_basestring_ascii`` and follows ``json`` everywhere else:
keys sorted before non-string keys are coerced, tuples as lists, and a
``TypeError`` wherever ``json`` raises one.
"""

from __future__ import annotations

import json
import re
from itertools import repeat
from json.encoder import INFINITY, encode_basestring_ascii

from .abelian import DimensionError, FGAbelianGroup, GroupElement
from .faces import Face, FacePoset
from .families import FamilySpec, FiberAutomorphism
from .obstruction import KTheoryInput, SymbolDatum

SCHEMA_VERSION = 1
KINDS = ("poset", "family", "symbol", "ktheory")


class InputError(ValueError):
    """The document cannot be read at all (as opposed to failing validation)."""


def canonical_json(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2) + "\\n"``, byte for byte
    and with the same ``TypeError`` on what JSON cannot hold."""
    out = []
    _write(obj, "\n", out.append)
    out.append("\n")
    return "".join(out)


def _write(value, newline: str, emit) -> None:
    """Emit ``value`` as json's indented encoder does; ``newline`` is the
    line break and indentation of the line ``value`` starts on."""
    if isinstance(value, str):
        emit(encode_basestring_ascii(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            emit("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            emit(sep)
            _write(item, inner, emit)
            sep = "," + inner
        emit(newline + "]")
    elif isinstance(value, dict):
        if not value:
            emit("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        # sorted before the keys are coerced, as json sorts them
        for key, item in sorted(value.items()):
            if not isinstance(key, str):
                key = _key_text(key)
            emit(sep + encode_basestring_ascii(key) + ": ")
            _write(item, inner, emit)
            sep = "," + inner
        emit(newline + "}")
    else:
        emit(_scalar_text(value))


def _scalar_text(value) -> str:
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value == INFINITY:
            return "Infinity"
        if value == -INFINITY:
            return "-Infinity"
        return float.__repr__(value)
    raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def _key_text(key) -> str:
    if key is None or isinstance(key, (int, float)):
        return _scalar_text(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def load_document(path: str) -> tuple[str, dict]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text: {exc}") from exc
    try:
        obj = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer past the digit limit
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise InputError(f"{path} is nested too deeply to read") from exc
    return parse_document(obj)


def parse_document(obj) -> tuple[str, dict]:
    if not isinstance(obj, dict):
        raise InputError("document must be a JSON object")
    kind = obj.get("kind")
    if kind not in KINDS:
        raise InputError(f"unknown document kind {kind!r}")
    if obj.get("version") != SCHEMA_VERSION:
        raise InputError(f"unsupported document version {obj.get('version')!r}")
    payload = obj.get("payload")
    if not isinstance(payload, dict):
        raise InputError("payload must be a JSON object")
    return kind, payload


def document(kind: str, payload: dict) -> dict:
    return {"kind": kind, "version": SCHEMA_VERSION, "payload": payload}


def _expect(condition: bool, message: str):
    if not condition:
        raise InputError(message)


# str, endlessly: ``map(isinstance, items, _STR)`` tests every item at C
# speed, and one shared iterator saves building a new one per small list
_STR = repeat(str)


def _is_str_list(value) -> bool:
    return isinstance(value, list) and all(map(isinstance, value, _STR))


def _is_str_map(value) -> bool:
    return (
        isinstance(value, dict)
        and all(map(isinstance, value, _STR))
        and all(map(isinstance, value.values(), _STR))
    )


def _str_list(value, what: str) -> list[str]:
    _expect(_is_str_list(value), f"{what} must be a list of strings")
    return value


def _str_map(value, what: str) -> dict[str, str]:
    _expect(_is_str_map(value), f"{what} must map strings to strings")
    return value


# ---------------------------------------------------------------------------
# posets


def poset_from_payload(payload: dict) -> FacePoset:
    hyps = _str_list(payload.get("hypersurfaces"), "hypersurfaces")
    connected = payload.get("connected", True)
    _expect(isinstance(connected, bool), "connected must be a boolean")
    faces_raw = payload.get("faces")
    _expect(isinstance(faces_raw, list), "faces must be a list")
    faces = []
    for entry in faces_raw:
        _expect(isinstance(entry, dict), "each face must be an object")
        fid = entry.get("id")
        codim = entry.get("codim")
        _expect(isinstance(fid, str), "face id must be a string")
        # the messages are formatted only on failure: this loop runs per face
        if not isinstance(codim, int) or isinstance(codim, bool):
            raise InputError(f"face {fid}: codim must be an integer")
        tup = entry.get("index_tuple")
        if not _is_str_list(tup):
            raise InputError(f"face {fid}: index_tuple must be a list of strings")
        parents = entry.get("parents", {})
        if not _is_str_map(parents):
            raise InputError(f"face {fid}: parents must map strings to strings")
        faces.append(Face(fid, codim, tup, parents))
    return FacePoset(tuple(hyps), tuple(faces), connected)


def poset_to_payload(poset: FacePoset) -> dict:
    return {
        "hypersurfaces": list(poset.hypersurfaces),
        "connected": poset.connected,
        "faces": [
            {
                "id": f.id,
                "codim": f.codim,
                "index_tuple": list(f.index_tuple),
                "parents": dict(f.parents),
            }
            for f in poset.faces
        ],
    }


# ---------------------------------------------------------------------------
# families


def family_from_payload(payload: dict) -> FamilySpec:
    fiber_raw = payload.get("fiber")
    _expect(isinstance(fiber_raw, dict), "fiber must be an object")
    fiber = poset_from_payload(fiber_raw)
    label = payload.get("base_label", "")
    _expect(isinstance(label, str), "base_label must be a string")
    gens_raw = payload.get("generators", [])
    _expect(isinstance(gens_raw, list), "generators must be a list")
    gens = []
    for entry in gens_raw:
        _expect(isinstance(entry, dict), "each generator must be an object")
        fmap = _str_map(entry.get("face_map"), "generator face_map")
        smap = _str_map(entry.get("hypersurface_map"), "generator hypersurface_map")
        gens.append(FiberAutomorphism.build(fmap, smap))
    return FamilySpec(fiber, tuple(gens), label)


def family_to_payload(spec: FamilySpec) -> dict:
    return {
        "fiber": poset_to_payload(spec.fiber),
        "base_label": spec.base_label,
        "generators": [
            {"face_map": g.faces(), "hypersurface_map": g.hypersurfaces()}
            for g in spec.generators
        ],
    }


# ---------------------------------------------------------------------------
# groups, elements, K-theory, symbols


def group_from_payload(payload, what: str = "group") -> FGAbelianGroup:
    _expect(isinstance(payload, dict), f"{what} must be an object")
    rank = payload.get("rank")
    torsion = payload.get("torsion", [])
    _expect(isinstance(rank, int) and not isinstance(rank, bool), f"{what}: rank must be an integer")
    _expect(
        isinstance(torsion, list) and all(isinstance(d, int) and not isinstance(d, bool) for d in torsion),
        f"{what}: torsion must be a list of integers",
    )
    try:
        return FGAbelianGroup(rank, tuple(torsion))
    except ValueError as exc:
        raise InputError(f"{what}: {exc}") from exc


def group_to_payload(group: FGAbelianGroup) -> dict:
    return {"rank": group.rank, "torsion": list(group.torsion)}


def ktheory_from_payload(payload: dict) -> KTheoryInput:
    preset = payload.get("preset")
    if preset is not None:
        _expect(isinstance(preset, str), "preset must be a string")
        if preset == "point":
            return KTheoryInput.point()
        if preset == "circle":
            return KTheoryInput.circle()
        raise InputError(f"unknown K-theory preset {preset!r} (available: point, circle)")
    k0 = group_from_payload(payload.get("K0B"), "K0B")
    k1 = group_from_payload(payload.get("K1B"), "K1B")
    label = payload.get("label", "")
    _expect(isinstance(label, str), "label must be a string")
    return KTheoryInput(k0, k1, label)


def ktheory_to_payload(k: KTheoryInput) -> dict:
    return {
        "K0B": group_to_payload(k.k0),
        "K1B": group_to_payload(k.k1),
        "label": k.label,
    }


def element_from_payload(payload, group: FGAbelianGroup, what: str) -> GroupElement:
    _expect(isinstance(payload, dict), f"{what} must be an object")
    free = payload.get("free", [])
    tors = payload.get("torsion", [])
    for part, name in ((free, "free"), (tors, "torsion")):
        _expect(
            isinstance(part, list) and all(isinstance(x, int) and not isinstance(x, bool) for x in part),
            f"{what}: {name} must be a list of integers",
        )
    # length mismatches against the coefficient group are cross-file issues,
    # so they surface as domain errors, not parse errors
    try:
        return GroupElement(group, tuple(free), tuple(tors))
    except DimensionError as exc:
        raise ValueError(f"{what}: {exc}") from None


def element_to_payload(element: GroupElement) -> dict:
    return {"free": list(element.free), "torsion": list(element.tors)}


def symbol_from_payload(payload: dict, ktheory: KTheoryInput) -> SymbolDatum:
    raw1 = payload.get("codim1_indices")
    raw2 = payload.get("codim2_indices", {})
    _expect(isinstance(raw1, dict), "codim1_indices must be an object")
    _expect(isinstance(raw2, dict), "codim2_indices must be an object")
    codim1 = {
        str(face): element_from_payload(value, ktheory.k1, f"codim1_indices[{face}]")
        for face, value in raw1.items()
    }
    codim2 = {
        str(face): element_from_payload(value, ktheory.k0, f"codim2_indices[{face}]")
        for face, value in raw2.items()
    }
    return SymbolDatum.build(codim1, codim2)


# ---------------------------------------------------------------------------
# the coefficient mini-language "Z^r + Z/d1 + Z/d2"

_COEFF_TOKEN = re.compile(r"^(?:0|Z(?:\^(\d+))?|Z/(\d+))$")


def parse_coefficient(text: str) -> FGAbelianGroup:
    cyclics: list[int] = []
    for raw in text.split("+"):
        token = re.sub(r"\s+", "", raw)
        match = _COEFF_TOKEN.match(token)
        if not match:
            raise InputError(f"cannot parse coefficient term {raw.strip()!r}")
        try:
            power, order = (None if g is None else int(g) for g in match.groups())
        except ValueError as exc:  # more digits than int() reads from a string
            raise InputError(f"coefficient term {token[:12]}... has too many digits") from exc
        if order == 0:
            raise InputError("Z/0 is not a cyclic group; write Z instead")
        if token != "0":  # Z/order, or Z^power where Z alone is Z^1
            cyclics.extend([order] if order else [0] * (1 if power is None else power))
    return FGAbelianGroup.from_cyclics(cyclics)
