"""``documents.canonical_json`` writes what ``json.dumps(obj,
sort_keys=True, indent=2) + "\\n"`` writes, byte for byte.

This is the only guard on the byte format of reports and generated
documents: the benchmark's digests parse a report before reading it.
"""

import json
import math
import random

import pytest

from cornerindex.documents import canonical_json

ALPHABET = 'aZ09 _-:/"\\\b\f\n\r\t\x00\x1f\x7f\x80\xe9 €\U0001d11e\ud800'
FLOATS = (0.0, -0.0, 1.5, -2.25, 1e300, -1e-300, 5e-324, 0.1, 1e16, math.nan, math.inf, -math.inf)
INTS = (0, 1, -1, 7, -42, 2**63, -(2**64) - 1, 10**40, -(10**60))


def reference(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2) + "\n"


def random_text(rng) -> str:
    return "".join(rng.choice(ALPHABET) for _ in range(rng.randint(0, 8)))


def random_scalar(rng):
    kind = rng.randrange(6)
    if kind == 0:
        return random_text(rng)
    if kind == 1:
        return rng.choice(INTS) if rng.random() < 0.5 else rng.randint(-(10**6), 10**6)
    if kind == 2:
        return rng.choice(FLOATS) if rng.random() < 0.5 else rng.uniform(-1e6, 1e6)
    if kind == 3:
        return rng.random() < 0.5
    if kind == 4:
        return None
    return rng.choice(("", "x", 0, [], {}, ()))


def random_keys(rng) -> list:
    """Keys of one dict: json sorts them before coercing, so they must be
    mutually comparable (str, or numbers and bools, or the lone None)."""
    n = rng.randint(1, 5)
    kind = rng.randrange(5)
    if kind == 0:
        return [None]
    if kind == 1:
        return [rng.choice(INTS + (True, False)) for _ in range(n)]
    if kind == 2:
        return [rng.choice(FLOATS) if rng.random() < 0.5 else rng.randint(-9, 9) for _ in range(n)]
    return [random_text(rng) for _ in range(n)]


def random_value(rng, depth: int):
    if depth == 0 or rng.random() < 0.3:
        return random_scalar(rng)
    kind = rng.randrange(3)
    items = [random_value(rng, depth - 1) for _ in range(rng.randint(0, 4))]
    if kind == 0:
        return items
    if kind == 1:
        return tuple(items)
    return {key: random_value(rng, depth - 1) for key in random_keys(rng)}


@pytest.mark.parametrize("seed", range(8))
def test_writer_matches_json_dumps_on_random_values(seed):
    rng = random.Random(seed)
    for _ in range(150):
        value = random_value(rng, rng.randint(0, 6))
        assert canonical_json(value) == reference(value)


def test_writer_matches_json_dumps_on_edge_values():
    deep = []
    for depth in range(60):
        deep = [deep, {"d": depth}] if depth % 2 else {"d": deep}
    values = [
        *FLOATS, *INTS, True, False, None, "", ALPHABET,
        [], {}, (), [[]], {"": {}}, ((), [()]), deep,
        {True: 1, False: 0, 2: 2, -1.5: 3}, {None: [None]}, {math.nan: 0, math.inf: 1, -math.inf: 2},
        {"é": 1, "e": 2, "E": 3, "\x00": 4},
    ]
    for value in values:
        assert canonical_json(value) == reference(value)


@pytest.mark.parametrize(
    "value",
    [{1, 2}, b"bytes", [1, {"a": frozenset()}], {(1, 2): 0}, {"a": 1, 2: 0}, {None: 0, "a": 1}, object()],
    ids=["set", "bytes", "nested-frozenset", "tuple-key", "mixed-keys", "none-and-str-keys", "object"],
)
def test_writer_raises_type_error_where_json_does(value):
    with pytest.raises(TypeError) as ours:
        canonical_json(value)
    with pytest.raises(TypeError) as theirs:
        reference(value)
    assert str(ours.value) == str(theirs.value)
