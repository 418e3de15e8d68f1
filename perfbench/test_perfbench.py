"""Self-tests of the benchmark: generators, oracles, seeding and tracing.

    python3 -m pytest perfbench -q

The oracles must agree with the library where both are trusted (gallery,
cubes up to d = 3) and must reject deliberately corrupted answers, so that a
check in the benchmark can actually fail.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import calibration  # noqa: E402
import generators as gen  # noqa: E402
import library  # noqa: E402
import oracles  # noqa: E402
from run import Loop, harrell_davis, load_reference  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import COEFFS, PASS_SIZE, WORKLOADS, Inputs, _homology_answer, _verdict_dict, spec_key  # noqa: E402


@pytest.fixture(scope="module")
def lib():
    return library.import_fresh()


@pytest.fixture()
def inputs(lib, tmp_path):
    return Inputs(lib, tmp_path)


def _poset(lib, payload):
    return lib.documents.poset_from_payload(payload)


def _query(inputs, workload, spec, payload=None):
    """The benchmark's own query for ``spec``; ``payload`` stands in for
    the shape that ``spec`` names."""
    if payload is not None:
        inputs.payloads[spec[1]] = payload
    return WORKLOADS[workload].make(inputs, spec)


def _homology(inputs, payload, pair, coeff, name="shape"):
    return _homology_answer(_query(inputs, "homology-mix", ("hom", name, coeff, *pair), payload).run())


GENERATED = {
    "cube1": gen.cube(1),
    "cube2": gen.cube(2),
    "cube3": gen.cube(3),
    "cube4": gen.cube(4),
    "kgon5": gen.kgon(5),
    "kgon16": gen.kgon(16),
    "prism4": gen.prism(4),
    "square_x_kgon3": gen.product(gen.cube(2), gen.kgon(3)),
    "skel1:kgon16": gen.skeleton(gen.kgon(16), 1),
    **{f"rand{n}v{v}": gen.random_codim2(random.Random(v), n) for n in (50, 150) for v in range(3)},
}


@pytest.mark.parametrize("name", sorted(GENERATED))
def test_generated_posets_are_valid(lib, name):
    assert lib.faces.validate(_poset(lib, GENERATED[name])) == []


def test_random_codim2_has_requested_size():
    for n in (50, 75, 150):
        payload = gen.random_codim2(random.Random(n), n)
        assert len(payload["faces"]) == n
        assert max(f["codim"] for f in payload["faces"]) == 2


@pytest.mark.parametrize("d", [2, 3, 4])
def test_cube_families_are_automorphisms_with_known_embeddability(lib, d):
    for embeddable in (True, False):
        for v in range(4):
            spec = lib.documents.family_from_payload(gen.cube_family(random.Random(v), d, embeddable))
            assert lib.faces.validate(spec.fiber) == []
            for g in spec.generators:
                assert lib.families.validate_automorphism(spec.fiber, g) == []
            verdict = lib.families.check_embeddable(lib.families.quotient_family(spec))
            assert verdict.embeddable is embeddable


def test_broken_posets_fail_validation(lib):
    for v in range(4):
        assert lib.faces.validate(_poset(lib, gen.broken_poset(random.Random(v), 3)))


# ---------------------------------------------------------------------------
# oracles agree with the library


def _gallery_payloads(lib):
    out = {}
    for name in lib.families.GALLERY_NAMES:
        spec = lib.families.gallery(name)
        quotient = lib.families.quotient_family(spec)
        verdict = lib.families.check_embeddable(quotient)
        poset = quotient.total if verdict.embeddable else spec.fiber
        out[name] = lib.documents.poset_to_payload(poset)
    return out


def _assert_checks(query):
    problems, _ = query.check(query.run())
    assert problems == [], (query.key, problems)


def test_homology_oracle_agrees_on_gallery_and_small_cubes(lib, inputs):
    payloads = {**_gallery_payloads(lib), "cube1": gen.cube(1), "cube2": gen.cube(2), "cube3": gen.cube(3)}
    checked = 0
    for name, payload in payloads.items():
        d = max(f["codim"] for f in payload["faces"])
        for pair in [(-1, d), (0, d), (-1, 0)] + ([(1, d)] if d > 1 else []):
            for coeff in COEFFS:
                _assert_checks(_query(inputs, "homology-mix", ("hom", name, coeff, *pair), payload))
                checked += 1
    assert checked > 50


def test_six_term_and_boundary_oracles_agree_on_small_cubes(inputs):
    for d in (2, 3):
        for coeff in ("Z", "Z/4"):
            for triple in [(-1, 0, d), (0, 1, d), (-1, 1, 2)]:
                _assert_checks(_query(inputs, "homology-mix", ("six", f"cube{d}", coeff, *triple)))
            _assert_checks(_query(inputs, "homology-mix", ("ses", f"cube{d}", coeff)))


def _codim2_verdict(inputs, shape, kt, vanishing, variant=0):
    symbol = inputs.symbol_payload(shape, kt, vanishing, variant, 2)
    verdict = _verdict_dict(_query(inputs, "obstruction-codim2", ("van", shape, kt, int(vanishing), variant)).run())
    return symbol, verdict


def test_obstruction_oracles_agree_on_square_and_kgon(inputs):
    for shape in ("cube2", "kgon16"):
        for kt in gen.KTHEORY_GROUPS:
            _assert_checks(_query(inputs, "obstruction-codim2", ("space", shape, kt)))
            for vanishing in (1, 0):
                _assert_checks(_query(inputs, "obstruction-codim2", ("van", shape, kt, vanishing, 0)))


def test_codim1_oracles_agree_on_interval_and_skeleton(inputs):
    for shape in ("cube1", "skel1:kgon16"):
        for kt in gen.KTHEORY_GROUPS:
            _assert_checks(_query(inputs, "obstruction-codim2", ("c1g", shape, kt)))


# ---------------------------------------------------------------------------
# oracles reject corrupted answers


def test_homology_oracle_rejects_corrupted_groups(inputs):
    payload = gen.cube(3)
    for coeff in ("Z", "Z/4", "Z^2 + Z/2 + Z/6"):
        groups, periodized = _homology(inputs, payload, (0, 3), coeff)
        for k in groups:
            rank, torsion = groups[k]
            for bad in ((rank + 1, torsion), (rank, torsion + (2,)), (rank, torsion + (3,))):
                corrupt = dict(groups)
                corrupt[k] = bad
                assert oracles.check_homology(payload, (0, 3), COEFFS[coeff], corrupt, periodized)


def test_homology_oracle_rejects_a_wrong_periodized_group(inputs):
    payload = gen.cube(2)
    groups, (even, odd) = _homology(inputs, payload, (-1, 2), "Z")
    assert oracles.check_homology(payload, (-1, 2), COEFFS["Z"], groups, (even, (odd[0] + 1, odd[1])))


def test_certificate_check_rejects_a_corrupted_certificate(inputs):
    symbol, verdict = _codim2_verdict(inputs, "kgon16", "circle", True)
    assert verdict["certificate"] is not None
    verdict["certificate"][0]["free"][0] += 1
    assert oracles.check_codim2_verdict(inputs.payload("kgon16"), (1, ()), symbol, True, verdict)


def test_verdict_check_rejects_a_flipped_verdict(inputs):
    for vanishing in (True, False):
        symbol, verdict = _codim2_verdict(inputs, "kgon16", "torsion", vanishing)
        verdict["vanishes"] = not verdict["vanishes"]
        assert oracles.check_codim2_verdict(inputs.payload("kgon16"), (0, (4,)), symbol, vanishing, verdict)


def test_family_check_rejects_a_wrong_witness(lib):
    family = gen.cube_family(random.Random(1), 3, False)
    spec = lib.documents.family_from_payload(family)
    verdict = lib.families.check_embeddable(lib.families.quotient_family(spec))
    faces, _ = oracles.family_orbits(family)
    result = {"counts": {"total_faces": len(set(faces.values()))}, "embeddable": verdict.embeddable,
              "witness": verdict.witness}
    assert oracles.check_family(family, False, result) == []
    result["witness"] = "fnot-a-face"
    assert oracles.check_family(family, False, result)


def test_loop_counts_a_digest_mismatch_as_a_failure(inputs):
    query = _query(inputs, "homology-mix", ("hom", "cube3", "Z", -1, 3))
    loop = Loop({query.key: {"digest": "0" * 24}}, calibration.Probe())
    loop.run_pass([query])
    assert len(loop.latencies) == 1 and len(loop.failures) == 1


def test_loop_divides_each_time_by_the_host_slowness(inputs):
    query = _query(inputs, "homology-mix", ("hom", "cube3", "Z", -1, 3))
    loop = Loop({}, lambda: 2 * calibration.REFERENCE_S)
    loop.run_pass([query, query])
    assert loop.slowness == [2.0, 2.0]
    assert loop.samples[query.key] == [t / 2 for t in loop.latencies]


def test_harrell_davis_weights_the_order_statistics_around_the_quantile():
    values = [float(v) for v in range(1, 106)]
    # for the values 1 ... n the estimate is E[ceil(n X)], X ~ Beta: about q n + 1/2
    for q in (0.5, 0.9):
        assert harrell_davis(values, q) == pytest.approx(q * 105 + 0.5, abs=0.01)
    assert harrell_davis(list(reversed(values)), 0.9) == harrell_davis(values, 0.9)


def test_rank_mod_p_matches_a_known_matrix():
    m = [[2, 4], [1, 3]]  # determinant 2
    assert oracles.rank_mod(m, 2) == 1
    assert oracles.rank_mod(m, 3) == 2
    assert oracles.rational_rank(m) == 2


# ---------------------------------------------------------------------------
# seeding


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_the_same_query_list(name):
    w = WORKLOADS[name]
    cost_ms = {key: entry["cost_ms"] for key, entry in load_reference(name).items()}
    specs = w.pass_specs(7, cost_ms)
    assert specs == w.pass_specs(7, cost_ms)
    assert specs != w.pass_specs(8, cost_ms)
    assert len(specs) == PASS_SIZE >= 100  # so that p90 has ten queries beyond it
    assert len(set(specs)) == len(specs)  # no query is repeated within a pass


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_reference_covers_exactly_the_universe_and_not_the_warmup(name):
    w = WORKLOADS[name]
    keys = [spec_key(spec) for spec in w.universe()]
    assert len(set(keys)) == len(keys)
    assert set(load_reference(name)) == set(keys)
    assert spec_key(w.warmup) not in keys


def test_same_seed_gives_byte_identical_documents():
    def texts(seed):
        rng = random.Random(seed)
        return [
            gen.dump(gen.document("family", gen.cube_family(rng, 4, True))),
            gen.dump(gen.document("poset", gen.random_codim2(rng, 100))),
            gen.dump(gen.document("symbol", gen.symbol(rng, gen.kgon(16), "circle", False))),
        ]

    assert texts(3) == texts(3)
    assert texts(3) != texts(4)


# ---------------------------------------------------------------------------
# tracing


def test_tracer_wraps_every_binding_and_detects_a_missed_one():
    lib = library.import_fresh()
    tracer = Tracer()
    assert tracer.install(lib) > 40
    assert tracer.unwrapped_references() == []
    poset = _poset(lib, gen.cube(2))
    tracer.begin_query()
    lib.conormal.homology(lib.conormal.build_complex(lib.faces.FilteredPair(poset, -1, 2), lib.abelian.FGAbelianGroup(1)))
    tracer.end_query()
    assert tracer.calls["abelian.snf"] > 0 and tracer.calls["conormal.homology"] == 1
    assert 0 < tracer.snf_distinct <= tracer.calls["abelian.snf"]
    # undo one import-site binding: the coverage check must name it
    lib.conormal.integer_solve = lib.conormal.integer_solve.__perfbench_wrapped__
    assert tracer.unwrapped_references() == ["cornerindex.conormal.integer_solve"]
    library.import_fresh()
