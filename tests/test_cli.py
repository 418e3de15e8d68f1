import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cornerindex
from cornerindex import conormal, documents, faces, families
from cornerindex.abelian import FGAbelianGroup, IntegerHom
from cornerindex.cli import EXIT_INTERNAL, main
from cornerindex.documents import canonical_json

from helpers import count_calls, cube, cube_automorphism

DATA = Path(__file__).parent / "data"
GOLDENS = Path(__file__).parent / "goldens"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    report = json.loads(out) if out else None
    return code, report, err


# ---------------------------------------------------------------------------
# validate


def test_validate_square_ok(capsys):
    code, report, _ = run_json(capsys, "validate", DATA / "square_poset.json")
    assert code == 0
    assert report["result"]["valid"] is True
    assert report["result"]["violations"] == []


def test_validate_unsorted_tuple(capsys):
    code, report, _ = run_json(capsys, "validate", DATA / "unsorted_poset.json")
    assert code == 1
    assert any("unsorted-tuple" in v for v in report["result"]["violations"])


def test_validate_truncated_file(capsys, tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text('{"kind": "poset", "version": 1, "payload": {', encoding="utf-8")
    code, out, err = run(capsys, "validate", broken)
    assert code == 2
    assert "JSON" in err


def test_validate_non_utf8_file_is_unreadable(capsys, tmp_path):
    bad = tmp_path / "utf16.json"
    bad.write_bytes(b"\xff\xfe{\x00}\x00")
    code, out, err = run(capsys, "validate", bad)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "not UTF-8" in err


def test_validate_too_deeply_nested_file_is_unreadable(capsys, tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000, encoding="utf-8")
    code, out, err = run(capsys, "validate", deep)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "nested too deeply" in err


def test_validate_overlong_integer_file_is_unreadable(capsys, tmp_path):
    # json.loads raises a plain ValueError past the interpreter's digit limit
    long = tmp_path / "long.json"
    long.write_text('{"kind": "poset", "version": ' + "1" * 5000 + "}", encoding="utf-8")
    code, out, err = run(capsys, "validate", long)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "not valid JSON" in err


def test_validate_wrong_kind(capsys):
    code, out, err = run(capsys, "validate", DATA / "ktheory_point.json")
    assert code == 2


def test_validate_family_document(capsys):
    code, report, _ = run_json(capsys, "validate", DATA / "mobius_family.json")
    assert code == 0 and report["result"]["valid"]


# ---------------------------------------------------------------------------
# homology


def test_homology_square_pair(capsys):
    code, report, _ = run_json(
        capsys, "homology", DATA / "square_poset.json", "--pair", "0", "2", "--coeff", "Z"
    )
    assert code == 0
    result = report["result"]
    assert result["degrees"]["1"]["group"] == {"rank": 1, "torsion": []}
    assert result["degrees"]["2"]["group"] == {"rank": 1, "torsion": []}
    assert result["periodized"] == {
        "H0_pcn": {"rank": 1, "torsion": []},
        "H1_pcn": {"rank": 1, "torsion": []},
    }


def test_homology_interval_absolute(capsys):
    code, report, _ = run_json(capsys, "homology", DATA / "interval_poset.json")
    assert code == 0
    assert report["result"]["degrees"]["1"]["group"] == {"rank": 1, "torsion": []}


def test_homology_torsion_coefficients(capsys):
    code, report, _ = run_json(
        capsys, "homology", DATA / "square_poset.json", "--pair", "0", "2", "--coeff", "Z/2 + Z/4"
    )
    assert code == 0
    assert report["result"]["coefficient"] == {"rank": 0, "torsion": [2, 4]}


def test_homology_bad_coefficient(capsys):
    code, out, err = run(capsys, "homology", DATA / "square_poset.json", "--coeff", "Z/0")
    assert code == 2


@pytest.mark.parametrize("form", ["Z/", "Z^"])
def test_homology_coefficient_with_too_many_digits_is_an_input_error(capsys, form):
    # 5000 digits are past the interpreter's limit on int() of a string;
    # that is an unparsable coefficient expression, exit 2, not a domain failure
    code, out, err = run(capsys, "homology", DATA / "square_poset.json", "--coeff", form + "9" * 5000)
    assert (code, out) == (2, "") and "too many digits" in err and len(err) < 200


def test_homology_unparsable_coefficient_term(capsys):
    code, out, err = run(capsys, "homology", DATA / "square_poset.json", "--coeff", "Z + Q")
    assert (code, out, err) == (2, "", "error: cannot parse coefficient term 'Q'\n")


def test_a_path_that_cannot_be_opened_is_a_parse_failure(capsys, tmp_path):
    missing = tmp_path / "missing.json"
    code, out, err = run(capsys, "validate", missing)
    assert (code, out) == (2, "") and err.startswith(f"error: cannot read {missing}: ")


@pytest.mark.parametrize(
    ("payload", "message"),
    [
        ({"K0B": {"rank": 1, "torsion": [4, 2]}, "K1B": {"rank": 0}},
         "error: K0B: invariant factors must form a divisibility chain\n"),
        ({"preset": "torus"}, "error: unknown K-theory preset 'torus' (available: point, circle)\n"),
    ],
    ids=["non-canonical-torsion", "unknown-preset"],
)
def test_bad_ktheory_document_is_a_parse_failure(capsys, tmp_path, payload, message):
    path = tmp_path / "ktheory.json"
    path.write_text(json.dumps({"kind": "ktheory", "version": 1, "payload": payload}))
    code, out, err = run(capsys, "obstruction", DATA / "square_poset.json", path)
    assert (code, out, err) == (2, "", message)


def test_parse_coefficient_drops_zero_terms():
    assert documents.parse_coefficient("Z + 0") == FGAbelianGroup(1)
    assert documents.parse_coefficient("0") == FGAbelianGroup(0)


def test_homology_of_a_document_of_the_wrong_kind(capsys):
    code, out, err = run(capsys, "homology", DATA / "ktheory_point.json")
    assert (code, out) == (2, "")
    assert "expected a poset document, found ktheory" in err


def test_homology_invalid_poset(capsys):
    code, out, err = run(capsys, "homology", DATA / "unsorted_poset.json")
    assert code == 1


def test_homology_reports_violations_before_the_pair_range(capsys, tmp_path):
    # the only face has codim -1, so the range check alone would reject --pair 0 1
    doc = {
        "kind": "poset",
        "version": 1,
        "payload": {
            "hypersurfaces": [],
            "faces": [{"id": "i", "codim": -1, "index_tuple": [], "parents": {}}],
        },
    }
    bad = tmp_path / "negative_codim.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, "homology", bad, "--pair", "0", "1")
    assert (code, out) == (1, "")
    assert err == "error: missing-interior: no codimension-0 face; negative-codim: i\n"


def test_homology_large_prime_coefficient_is_fast():
    # canonical forms never factor a modulus, so an 18-digit prime is cheap
    src = str(Path(cornerindex.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "cornerindex", "homology", str(DATA / "square_poset.json"),
         "--coeff", "Z/1000000000000000003", "--format", "json"],
        capture_output=True, text=True, env=env, timeout=20,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["result"]["coefficient"] == {"rank": 0, "torsion": [1000000000000000003]}


def test_internal_error_has_its_own_exit_code(capsys, monkeypatch):
    # a wrong Tor makes the universal-coefficient cross-check disagree
    monkeypatch.setattr(conormal, "tor", lambda a, b: FGAbelianGroup(0, (2,)))
    code, out, err = run(capsys, "homology", DATA / "square_poset.json")
    assert code == EXIT_INTERNAL == 4
    assert out == ""
    assert "internal error" in err and "disagrees" in err


def test_shape_error_inside_the_algebra_is_internal(capsys, monkeypatch):
    # a boundary matrix with one row too many is a bug, not a domain
    # failure: D_1 D_2 cannot be composed, and the DimensionError, a
    # ValueError, exits 4 rather than 1
    def one_row_too_many(poset, p):
        return IntegerHom.zero(len(poset.faces_of_codim(p - 1)) + 1, len(poset.faces_of_codim(p)))

    monkeypatch.setattr(conormal, "incidence_matrix", one_row_too_many)
    code, out, err = run(capsys, "homology", DATA / "square_poset.json")
    assert (code, out) == (EXIT_INTERNAL, "")
    assert err == "internal error: composition shape mismatch\n"


def test_symbol_coordinate_count_mismatch_is_a_domain_failure(capsys, tmp_path):
    symbol = json.loads((DATA / "symbol_square_boundary.json").read_text())
    symbol["payload"]["codim1_indices"]["e1"]["free"] = [1, 0]
    path = tmp_path / "symbol.json"
    path.write_text(json.dumps(symbol))
    code, out, err = run(capsys, "obstruction", DATA / "square_poset.json", DATA / "ktheory_circle.json", path)
    assert (code, out) == (1, "")
    assert err == "error: codim1_indices[e1]: coordinate lengths do not match the group\n"


# ---------------------------------------------------------------------------
# family


def test_family_quarter_twist(capsys):
    code, report, _ = run_json(
        capsys, "family", DATA / "quarter_twist_square_family.json", "--check-embeddable"
    )
    assert code == 0
    result = report["result"]
    assert result["embeddable"] is False
    assert result["witness"] == "c13"
    assert result["counts"]["total_hypersurfaces"] == 1


def test_family_mobius(capsys):
    code, report, _ = run_json(
        capsys, "family", DATA / "mobius_family.json", "--check-embeddable"
    )
    assert code == 0
    result = report["result"]
    assert result["embeddable"] is True
    assert result["counts"]["total_hypersurfaces"] == 1
    assert result["total"]["faces"][1]["id"] == "e1"


def test_family_failed_embeddability_cross_check_is_internal(capsys, monkeypatch):
    # only the total can fail here: the fiber is validated through faces
    real = families.validate
    monkeypatch.setattr(
        families, "validate", lambda poset: ["parent-tuple: forced"] + real(poset)
    )
    code, out, err = run(capsys, "family", DATA / "mobius_family.json", "--check-embeddable")
    assert code == EXIT_INTERNAL == 4
    assert out == ""
    assert err == "internal error: embeddable total fails validation: parent-tuple: forced\n"


# ---------------------------------------------------------------------------
# obstruction


def test_obstruction_square_circle(capsys):
    code, report, _ = run_json(
        capsys,
        "obstruction",
        DATA / "square_poset.json",
        DATA / "ktheory_circle.json",
    )
    assert code == 0
    space = report["result"]["obstruction_space"]
    assert space["left"] == {"rank": 1, "torsion": []}
    assert space["right"] == {"rank": 1, "torsion": []}
    assert space["middle"] == {"rank": 2, "torsion": []}
    assert space["status"] == "exact_splits"


def test_obstruction_square_point(capsys):
    code, report, _ = run_json(
        capsys,
        "obstruction",
        DATA / "square_poset.json",
        DATA / "ktheory_point.json",
    )
    assert code == 0
    space = report["result"]["obstruction_space"]
    assert space["middle"] == {"rank": 1, "torsion": []}
    assert space["status"] == "left_trivial"


def test_obstruction_with_symbol(capsys):
    code, report, _ = run_json(
        capsys,
        "obstruction",
        DATA / "square_poset.json",
        DATA / "ktheory_circle.json",
        DATA / "symbol_square_boundary.json",
    )
    assert code == 0
    verdict = report["result"]["verdict"]
    assert verdict["vanishes"] is True
    assert verdict["certificate"] is not None


def test_obstruction_negative_verdict_keeps_the_json_keys(capsys, tmp_path):
    # the library verdict's witness stays out of the JSON verdict
    symbol = json.loads((DATA / "symbol_square_boundary.json").read_text())
    symbol["payload"]["codim1_indices"]["e2"]["free"] = [1]
    path = tmp_path / "symbol.json"
    path.write_text(json.dumps(symbol))
    code, report, _ = run_json(
        capsys, "obstruction", DATA / "square_poset.json", DATA / "ktheory_circle.json", path
    )
    assert code == 0
    verdict = report["result"]["verdict"]
    assert verdict["codim1_class_vanishes"] is False and verdict["certificate"] is None
    assert sorted(verdict) == [
        "certificate", "codim1_class_vanishes", "failing_codim1", "failing_codim2", "vanishes",
    ]


def test_obstruction_codim3_exit(capsys):
    code, out, err = run(
        capsys,
        "obstruction",
        DATA / "octant_poset.json",
        DATA / "ktheory_point.json",
    )
    assert code == 3
    assert "codimension" in err


@pytest.mark.parametrize(
    ("argv", "validations"),
    [
        pytest.param(
            (DATA / "square_poset.json", DATA / "ktheory_circle.json", DATA / "symbol_square_boundary.json"),
            1,
            id="symbol",
        ),
        pytest.param((DATA / "square_poset.json", DATA / "ktheory_circle.json"), 1, id="no-symbol"),
    ],
)
def test_obstruction_validates_once_per_library_call(capsys, monkeypatch, argv, validations):
    # one validation pass per poset object: the command parses one poset,
    # and every later check of it, in the command or the library, reads the
    # verdict kept on that object
    passes = count_calls(monkeypatch, faces, "_violations")
    code, _, _ = run(capsys, "obstruction", *argv)
    assert (code, len(passes)) == (0, validations)


def test_obstruction_invalid_codim2_poset_exits_as_invalid(capsys):
    code, out, err = run(capsys, "obstruction", DATA / "unsorted_poset.json", DATA / "ktheory_point.json")
    assert (code, out) == (1, "")
    assert err == "error: unsorted-tuple: c index tuple is not ascending\n"


def test_obstruction_invalid_codim3_poset_exits_as_invalid(capsys, tmp_path):
    # validity is judged before the codimension: exit 1, not 3
    doc = json.loads((DATA / "octant_poset.json").read_text())
    for face in doc["payload"]["faces"]:
        if face["codim"] == 3:
            face["index_tuple"].reverse()
    bad = tmp_path / "octant_unsorted.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, "obstruction", bad, DATA / "ktheory_point.json")
    assert (code, out) == (1, "")
    assert err == "error: unsorted-tuple: v index tuple is not ascending\n"


def test_obstruction_codim1(capsys):
    code, report, _ = run_json(
        capsys,
        "obstruction",
        DATA / "interval_poset.json",
        DATA / "ktheory_circle.json",
    )
    assert code == 0
    groups = report["result"]["groups"]
    assert groups["KA1"][0] == {"rank": 1, "torsion": []}


# ---------------------------------------------------------------------------
# gallery


def test_gallery_roundtrip(capsys, tmp_path):
    out_file = tmp_path / "mobius.json"
    code, report, _ = run_json(capsys, "gallery", "mobius", "--out", out_file)
    assert code == 0
    code2, report2, _ = run_json(capsys, "validate", out_file)
    assert code2 == 0 and report2["result"]["valid"]


@pytest.mark.parametrize(
    "argv",
    [("validate", DATA / "square_poset.json"), ("gallery", "mobius")],
    ids=["report", "gallery"],
)
def test_unwritable_out_path_exits_as_parse_failure(capsys, tmp_path, argv):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run(capsys, *argv, "--out", target)
    assert (code, out) == (2, "")
    assert err == f"error: cannot write {target}: No such file or directory\n"
    assert not target.parent.exists()


def test_gallery_stdout_matches_fixture(capsys):
    code, out, err = run(capsys, "gallery", "half_twist_square")
    assert code == 0
    fixture = (DATA / "half_twist_square_family.json").read_text(encoding="utf-8")
    assert out == fixture
    doc = json.loads(out)
    assert len(doc["payload"]["generators"]) == 1
    gen = doc["payload"]["generators"][0]["face_map"]
    assert all(gen[gen[k]] == k for k in gen)  # order two


def test_gallery_unknown_name(capsys):
    code, out, err = run(capsys, "gallery", "bogus")
    assert code == 1
    assert "trivial_interval" in err


# ---------------------------------------------------------------------------
# determinism and goldens


def _report_without_timing(text: str) -> str:
    report = json.loads(text)
    report.pop("timing_ms", None)
    return canonical_json(report)


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


@pytest.mark.parametrize("golden_name", sorted(GOLDEN_CASES))
def test_golden_reports(capsys, monkeypatch, golden_name):
    monkeypatch.chdir(Path(__file__).parent.parent)
    argv = GOLDEN_CASES[golden_name]
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == 0, err
    # the byte format of json.dumps: sorted keys, 2-space indent, ASCII
    # escapes and a trailing newline, timing included
    assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"
    produced = _report_without_timing(out)
    golden_path = GOLDENS / golden_name
    if os.environ.get("CORNERINDEX_REGEN_GOLDENS"):
        golden_path.write_text(produced, encoding="utf-8")
    expected = golden_path.read_text(encoding="utf-8")
    assert produced == expected


def test_cube_family_report_is_written_in_json_dumps_byte_format(capsys, tmp_path):
    flip = cube_automorphism(4, (0, 1, 2, 3), (True, False, False, False))
    spec = families.FamilySpec(cube(4), (flip,), "circle")
    path = tmp_path / "cube4_family.json"
    path.write_text(canonical_json(documents.document("family", documents.family_to_payload(spec))))
    code, out, err = run(capsys, "family", path, "--check-embeddable", "--format", "json")
    assert code == 0, err
    assert json.loads(out)["result"]["embeddable"] is True
    assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"


def test_reports_are_deterministic(capsys, monkeypatch):
    monkeypatch.chdir(Path(__file__).parent.parent)
    argv = GOLDEN_CASES["obstruction_square_circle_symbol.json"]
    _, first, _ = run(capsys, *argv, "--format", "json")
    _, second, _ = run(capsys, *argv, "--format", "json")
    assert _report_without_timing(first) == _report_without_timing(second)


def test_serialisation_roundtrip_idempotent():
    # parse + re-serialize leaves canonical documents byte-identical
    from cornerindex import documents

    for name in ["square_poset.json", "interval_poset.json", "octant_poset.json"]:
        raw = (DATA / name).read_text(encoding="utf-8")
        kind, payload = documents.parse_document(json.loads(raw))
        poset = documents.poset_from_payload(payload)
        again = canonical_json(documents.document("poset", documents.poset_to_payload(poset)))
        assert again == raw
    for name in ["mobius_family.json", "half_twist_square_family.json"]:
        raw = (DATA / name).read_text(encoding="utf-8")
        kind, payload = documents.parse_document(json.loads(raw))
        spec = documents.family_from_payload(payload)
        again = canonical_json(documents.document("family", documents.family_to_payload(spec)))
        assert again == raw


def _face(**fields):
    return {"id": "e1", "codim": 1, "index_tuple": ["s1"], "parents": {"s1": "int"}, **fields}


@pytest.mark.parametrize(
    "entry, message",
    [
        (["e1", 1], "each face must be an object"),
        (_face(id=7), "face id must be a string"),
        (_face(codim=True), "face e1: codim must be an integer"),
        (_face(codim="1"), "face e1: codim must be an integer"),
        (_face(index_tuple="s1"), "face e1: index_tuple must be a list of strings"),
        (_face(index_tuple=["s1", 2]), "face e1: index_tuple must be a list of strings"),
        (_face(parents=[["s1", "int"]]), "face e1: parents must map strings to strings"),
        (_face(parents={"s1": 0}), "face e1: parents must map strings to strings"),
        (_face(parents={1: "int"}), "face e1: parents must map strings to strings"),
        # several bad fields: the first in id, codim, index_tuple, parents order
        (_face(id=None, codim=False, index_tuple=None, parents=None), "face id must be a string"),
        (_face(codim=1.0, index_tuple=[3], parents=[]), "face e1: codim must be an integer"),
        (_face(index_tuple={}, parents="int"), "face e1: index_tuple must be a list of strings"),
    ],
)
def test_poset_parse_messages(entry, message):
    good = {"id": "int", "codim": 0, "index_tuple": [], "parents": {}}
    # the first bad face is reported, wherever the faces after it go wrong
    payload = {"hypersurfaces": ["s1"], "faces": [good, entry, ["bad"]]}
    with pytest.raises(documents.InputError) as info:
        documents.poset_from_payload(payload)
    assert str(info.value) == message


def test_report_out_flag(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    code, out, err = run(
        capsys, "homology", DATA / "interval_poset.json", "--format", "json", "--out", out_file
    )
    assert code == 0
    assert out == ""
    report = json.loads(out_file.read_text(encoding="utf-8"))
    assert report["result"]["degrees"]["1"]["group"] == {"rank": 1, "torsion": []}


def test_debug_logging_stays_on_stderr(capsys, monkeypatch):
    monkeypatch.setenv("CORNER_INDEX_LOG", "debug")
    code, out, err = run_json(capsys, "homology", DATA / "interval_poset.json")
    assert code == 0
    assert out is not None  # stdout is still pure JSON


def test_debug_log_lines_once_per_call_and_off_when_unset(capsys, monkeypatch):
    monkeypatch.setenv("CORNER_INDEX_LOG", "debug")
    errs = []
    for _ in range(3):
        code, _, err = run(capsys, "homology", DATA / "interval_poset.json")
        assert code == 0
        errs.append(err)
    assert [err.count("complex built") for err in errs] == [1, 1, 1]
    assert "".join(errs).count("complex built") == 3
    monkeypatch.delenv("CORNER_INDEX_LOG")
    code, _, err = run(capsys, "homology", DATA / "interval_poset.json")
    assert code == 0
    assert err == ""


@pytest.mark.parametrize("name", ["basic_format", "_styles", "raiseExceptions", "no-such-level"])
def test_a_log_name_that_is_no_level_means_debug(capsys, monkeypatch, name):
    # names of the logging module that are not integer levels (a format
    # string, a dict, a flag) fall back to DEBUG as unknown names do
    monkeypatch.setenv("CORNER_INDEX_LOG", name)
    code, out, err = run(capsys, "homology", DATA / "interval_poset.json")
    assert code == 0
    assert err.count("complex built") == 1


# one process, one parser: each call answers as a fresh interpreter would
SEQUENCE = [
    ("homology", DATA / "square_poset.json", "--pair", "0", "2"),
    ("homology", DATA / "square_poset.json"),
    ("homology",),
    ("validate", DATA / "square_poset.json", "--format", "json"),
    ("validate", DATA / "mobius_family.json"),
    ("family", DATA / "mobius_family.json", "--check-embeddable"),
    ("family", DATA / "mobius_family.json", "--format", "json"),
    ("obstruction", DATA / "square_poset.json", DATA / "ktheory_circle.json",
     DATA / "symbol_square_boundary.json", "--format", "json"),
    ("obstruction", DATA / "square_poset.json", DATA / "ktheory_point.json"),
]


def _without_timing(argv, out: str) -> str:
    return _report_without_timing(out) if "json" in argv and out else out


def test_one_parser_serves_many_calls(capsys, monkeypatch):
    monkeypatch.delenv("CORNER_INDEX_LOG", raising=False)
    src = str(Path(cornerindex.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for argv in SEQUENCE:
        argv = [str(a) for a in argv]
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr().out
        fresh = subprocess.run(
            [sys.executable, "-m", "cornerindex", *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert code == fresh.returncode, argv
        assert _without_timing(argv, out) == _without_timing(argv, fresh.stdout), argv
