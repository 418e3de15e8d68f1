"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
All group comparisons are exact canonical-form equality; nothing is
approximate anywhere in this suite.
"""

import itertools
import json
import random
from pathlib import Path

import pytest

from cornerindex.abelian import FGAbelianGroup, power
from cornerindex.cli import main as cli_main
from cornerindex.conormal import (
    build_complex,
    connected_boundary_ses,
    homology,
    incidence_matrix,
    orientation_sign,
    six_term,
)
from cornerindex.documents import canonical_json
from cornerindex.faces import FilteredPair, validate
from cornerindex.families import check_embeddable, gallery, quotient_family
from cornerindex.obstruction import (
    KTheoryInput,
    MIDDLE_EXACT_SPLITS,
    MIDDLE_LEFT_TRIVIAL,
    SymbolDatum,
    codim1_vanishes,
    codim2_obstruction_space,
    codim2_vanishes,
    connection_matrices,
)

from helpers import (
    connected_boundary_gallery,
    exhaustive_solve,
    gallery_posets,
    group_from_snf_oracle,
    minor_gcd_invariant_factors,
    random_valid_poset,
    uct_assembly,
)

Z = FGAbelianGroup(1)
TRIVIAL = FGAbelianGroup(0)
COEFFICIENTS = [
    Z,
    FGAbelianGroup(2),
    FGAbelianGroup(0, (2,)),
    FGAbelianGroup(1, (4,)),
]


def zmod(*ds):
    return FGAbelianGroup.from_cyclics(list(ds))


def report(number, text):
    print(f"criterion {number:02d} PASS: {text}")


def test_criterion_01_boundary_squared_zero():
    checked = 0
    posets = [poset for _, poset in gallery_posets()]
    rng = random.Random(10_001)
    for _ in range(500):
        posets.append(random_valid_poset(rng, connected=rng.random() < 0.7))
    for poset in posets:
        d = poset.codimension()
        for low in (-1, 0):
            if low > d:
                continue
            complex = build_complex(FilteredPair(poset, low, d), Z)
            for p in complex.degrees:
                if p + 1 in complex.boundary:
                    assert complex.boundary[p].compose(complex.boundary[p + 1]).is_zero()
                    checked += 1
    report(1, f"D(p-1)*Dp = 0 on {len(posets)} posets ({checked} products)")


def test_criterion_02_codim1_theorem():
    posets = [
        gallery("trivial_interval").fiber,
        quotient_family(gallery("mobius")).total,
    ]
    rng = random.Random(10_002)
    for _ in range(50):
        posets.append(random_valid_poset(rng, max_codim=1, connected=True))
    for poset in posets:
        assert poset.codimension() == 1 and poset.connected
        n1 = len(poset.faces_of_codim(1))
        for G in COEFFICIENTS:
            absolute = homology(build_complex(FilteredPair(poset, -1, 1), G))
            relative = homology(build_complex(FilteredPair(poset, 0, 1), G))
            assert absolute.periodized[1] == power(G, n1 - 1)
            assert relative.periodized[1] == power(G, n1)
    report(2, f"H1pcn formulas on {len(posets)} connected codim-1 posets x {len(COEFFICIENTS)} groups")


def test_criterion_03_uct_oracle():
    rng = random.Random(10_003)
    torsion_groups = [zmod(2), zmod(6), FGAbelianGroup(1, (4,))]
    for i in range(200):
        poset = random_valid_poset(rng, connected=rng.random() < 0.7)
        d = poset.codimension()
        low = rng.randint(-1, d)
        high = rng.randint(low, d)
        G = torsion_groups[i % len(torsion_groups)]
        complex = build_complex(FilteredPair(poset, low, high), G)
        direct = homology(complex).groups
        assembled = uct_assembly(complex)
        assert direct == assembled
    report(3, "direct homology equals universal-coefficient assembly on 200 fuzzed complexes")


def test_criterion_04_six_term_exactness():
    count = 0
    for name, poset in gallery_posets():
        d = poset.codimension()
        levels = range(-1, d + 1)
        for q, m, l in itertools.combinations_with_replacement(levels, 3):
            for G in (Z, FGAbelianGroup(1, (4,))):
                sequence = six_term(poset, q, m, l, G)  # raises if not exact
                count += 1
                if d == 2 and (q, m, l) == (0, 1, 2):
                    assert sequence.groups["h1_lm"].is_trivial()
                    assert sequence.groups["h0_mq"].is_trivial()
    report(4, f"exactness verified at all nodes of {count} six-term sequences")


def test_criterion_05_connected_boundary_ses():
    cases = connected_boundary_gallery()
    assert cases
    for name, poset in cases:
        d = poset.codimension()
        for G in COEFFICIENTS:
            ses = connected_boundary_ses(poset, G)
            assert ses.exact
            absolute = homology(build_complex(FilteredPair(poset, -1, d), G))
            relative = homology(build_complex(FilteredPair(poset, 0, d), G))
            boundary0 = homology(build_complex(FilteredPair(poset, -1, 0), G))
            assert ses.left == absolute.periodized[1]
            assert ses.middle == relative.periodized[1]
            assert ses.right == boundary0.periodized[0]
    report(5, f"boundary SES exact on {len(cases)} posets x {len(COEFFICIENTS)} groups")


def test_criterion_06_embeddability():
    quarter = quotient_family(gallery("quarter_twist_square"))
    verdict = check_embeddable(quarter)
    assert not verdict.embeddable
    corners = quarter.total.faces_of_codim(2)
    assert len(corners) == 1 and verdict.witness == corners[0].id
    for name in ("mobius", "half_twist_square", "trivial_interval", "trivial_square"):
        quotient = quotient_family(gallery(name))
        v = check_embeddable(quotient)
        assert v.embeddable and v.witness is None
        assert validate(quotient.total) == []
    report(6, "quarter twist rejected with corner witness; the other four families embed")


def test_criterion_07_codim2_obstruction_ses():
    square = gallery("trivial_square").fiber

    over_point = codim2_obstruction_space(square, KTheoryInput.point())
    assert over_point.middle == Z
    assert over_point.middle_status == MIDDLE_LEFT_TRIVIAL

    over_circle = codim2_obstruction_space(square, KTheoryInput.circle())
    assert over_circle.left == Z
    assert over_circle.right == Z
    assert over_circle.middle == FGAbelianGroup(2)
    assert over_circle.middle_status == MIDDLE_EXACT_SPLITS

    # independent cross-check from k x k minor gcds (no shared reduction code)
    d2 = incidence_matrix(square, 2)
    assert minor_gcd_invariant_factors(d2) == [1, 1, 1]
    assert group_from_snf_oracle(d2) == Z  # coker = left over Z
    kernel_rank = d2.cols - len(minor_gcd_invariant_factors(d2))
    assert FGAbelianGroup(kernel_rank) == Z  # ker = right over Z
    report(7, "square obstruction SES over point and circle matches the minors oracle")


def test_criterion_08_vanishing_sound_and_complete():
    square = gallery("trivial_square").fiber
    circle = KTheoryInput.circle()
    complex = build_complex(FilteredPair(square, 0, 2), circle.k1)
    rng = random.Random(10_008)
    true_verdicts = 0
    edge_ids = list(complex.bases[1])
    for trial in range(100):
        if trial % 2:
            # a genuine boundary: push a random 2-chain through the differential
            chain = [circle.k1.element([rng.randint(-3, 3)], []) for _ in complex.bases[2]]
            image = complex.boundary[2].apply(chain, circle.k1)
            codim1 = dict(zip(edge_ids, image))
            codim2 = {f.id: circle.k0.zero() for f in square.faces_of_codim(2)}
        else:
            codim1 = {
                f.id: circle.k1.element([rng.randint(-3, 3)], [])
                for f in square.faces_of_codim(1)
            }
            codim2 = {
                f.id: circle.k0.element([rng.choice((0, 0, 1))], [])
                for f in square.faces_of_codim(2)
            }
        verdict = codim2_vanishes(square, circle, SymbolDatum.build(codim1, codim2))
        if trial % 2:
            assert verdict.codim1_class_vanishes
        if verdict.vanishes:
            true_verdicts += 1
            cert = verdict.certificate
            assert cert is not None
            target = [codim1[fid] for fid in complex.bases[1]]
            assert cert.boundary() == target
    assert true_verdicts >= 50
    for modulus in (2, 3):
        K = KTheoryInput(Z, zmod(modulus), f"Z/{modulus}")
        finite_complex = build_complex(FilteredPair(square, 0, 2), K.k1)
        d2 = finite_complex.boundary[2]
        for _ in range(15):
            codim1 = {
                f.id: K.k1.element([], [rng.randrange(modulus)])
                for f in square.faces_of_codim(1)
            }
            datum = SymbolDatum.build(
                codim1, {f.id: K.k0.zero() for f in square.faces_of_codim(2)}
            )
            verdict = codim2_vanishes(square, K, datum)
            target = [codim1[fid] for fid in finite_complex.bases[1]]
            brute = exhaustive_solve(d2, K.k1, target)
            assert verdict.vanishes == (brute is not None)
    report(8, f"certificates exact on {true_verdicts} true verdicts; finite verdicts match enumeration")


def test_criterion_09_k1_trivial_shortcut():
    rng = random.Random(10_009)
    interval = gallery("trivial_interval").fiber
    square = gallery("trivial_square").fiber
    K = KTheoryInput.point()  # K^1(B) = 0
    for _ in range(100):
        datum1 = SymbolDatum.build(
            {f.id: K.k1.zero() for f in interval.faces_of_codim(1)}
        )
        assert codim1_vanishes(interval, K, datum1).vanishes
        codim2 = {
            f.id: K.k0.element([rng.randint(-2, 2)], [])
            for f in square.faces_of_codim(2)
        }
        datum2 = SymbolDatum.build(
            {f.id: K.k1.zero() for f in square.faces_of_codim(1)}, codim2
        )
        verdict = codim2_vanishes(square, K, datum2)
        assert verdict.codim1_class_vanishes
        assert verdict.vanishes == all(e.is_zero() for e in codim2.values())
    space = codim2_obstruction_space(square, K)
    assert space.middle == space.right
    report(9, "with K^1(B) = 0 the decision reduces to codim-2 entries and middle = right")


def test_criterion_10_sign_conventions():
    labels = list(range(6))
    for a, b in itertools.permutations(labels, 2):
        expected = 1 if a < b else -1
        assert orientation_sign((a, b)) == ((min(a, b), max(a, b)), expected)
    for name, poset in gallery_posets():
        d = poset.codimension()
        complex = build_complex(FilteredPair(poset, -1, d), Z)
        for p in range(1, d + 1):
            assert connection_matrices(poset, p) == complex.boundary[p]
    report(10, "transpositions flip orientation; connection matrices equal the differentials")


GOLDEN_CASES = {
    "homology_square_pair_Z.json": (
        "homology", "tests/data/square_poset.json", "--pair", "0", "2", "--coeff", "Z",
    ),
    "homology_interval_mixed.json": (
        "homology", "tests/data/interval_poset.json", "--coeff", "Z + Z/4",
    ),
    "family_mobius.json": (
        "family", "tests/data/mobius_family.json", "--check-embeddable",
    ),
    "family_quarter_twist.json": (
        "family", "tests/data/quarter_twist_square_family.json", "--check-embeddable",
    ),
    "obstruction_square_circle_symbol.json": (
        "obstruction",
        "tests/data/square_poset.json",
        "tests/data/ktheory_circle.json",
        "tests/data/symbol_square_boundary.json",
    ),
    "obstruction_square_point.json": (
        "obstruction", "tests/data/square_poset.json", "tests/data/ktheory_point.json",
    ),
}


def test_criterion_11_cli_goldens_and_exit_codes(capsys, monkeypatch, tmp_path):
    root = Path(__file__).parent.parent
    monkeypatch.chdir(root)
    for golden_name, argv in sorted(GOLDEN_CASES.items()):
        code = cli_main([*argv, "--format", "json"])
        out = capsys.readouterr().out
        assert code == 0
        produced = json.loads(out)
        produced.pop("timing_ms", None)
        expected = (root / "tests" / "goldens" / golden_name).read_text(encoding="utf-8")
        assert canonical_json(produced) == expected, f"golden mismatch: {golden_name}"

    # exit-code contract
    assert cli_main(["validate", "tests/data/square_poset.json"]) == 0
    assert cli_main(["validate", "tests/data/unsorted_poset.json"]) == 1
    broken = tmp_path / "broken.json"
    broken.write_text("{", encoding="utf-8")
    assert cli_main(["validate", str(broken)]) == 2
    assert (
        cli_main(
            ["obstruction", "tests/data/octant_poset.json", "tests/data/ktheory_point.json"]
        )
        == 3
    )
    capsys.readouterr()
    report(11, "golden reports byte-identical; exit codes 0/1/2/3 honored")
