"""The three workloads: their query universes, seeded passes and checks.

A workload's *universe* is a finite list of distinct query specs.
``reference.json`` records, for every spec of it, the digest of its answer
and its cost (CPU milliseconds at the commit that recorded it).  A pass
sorts the universe by that cost, cuts it into ``PASS_SIZE`` strata of
neighbouring cost, draws one spec from each with the seeded RNG and shuffles
the result.  So every seed runs a different set of inputs with the same cost
profile, and no pass holds the same spec twice.

A spec is a tuple of strings and integers; its ``|``-joined text is its key
in ``reference.json``.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable

import generators as gen
import oracles

COEFFS = {
    "Z": (1, ()),
    "Z/4": (0, (4,)),
    "Z + Z/4": (1, (4,)),
    "Z^2 + Z/2 + Z/6": (2, (2, 6)),
}

GALLERY = {
    # name -> whether the total space carries embedded corners
    "trivial_interval": True,
    "trivial_square": True,
    "mobius": True,
    "half_twist_square": True,
    "quarter_twist_square": False,
}

VARIANTS = 8  # seeded variants per random input family
PASS_SIZE = 105  # queries per pass: the p90 has ten beyond it
STRATUM_SPREAD = 2.0  # a pass draws in a stratum only specs within this cost ratio of its middle one


def spec_key(spec) -> str:
    return "|".join(str(x) for x in spec)


def _pairs(d: int):
    """Every filtered pair (low, high) with -1 <= low < high <= d."""
    return [(lo, hi) for lo in range(-1, d) for hi in range(lo + 1, d + 1)]


def _group(g) -> tuple[int, tuple[int, ...]]:
    return g.rank, tuple(g.torsion)


def _group_json(g):
    return [g[0], list(g[1])]


def _payload_group(obj) -> tuple[int, tuple[int, ...]]:
    return obj["rank"], tuple(obj["torsion"])


def _chain(vector) -> list[dict]:
    return [{"free": list(e.free), "torsion": list(e.tors)} for e in vector.coords]


# ---------------------------------------------------------------------------
# inputs


def shape_payload(name: str) -> dict:
    """Deterministic poset payload for a shape name."""
    if name.startswith("skel1:"):
        return gen.skeleton(shape_payload(name[6:]), 1)
    if name.startswith("cube"):
        return gen.cube(int(name[4:]))
    if name.startswith("prism"):
        return gen.prism(int(name[5:]))
    if name.startswith("kgon"):
        return gen.kgon(int(name[4:]))
    if name.startswith("rand"):
        n, v = name[4:].split("v")
        return gen.random_codim2(random.Random(f"poset-{n}-{v}"), int(n))
    raise ValueError(f"unknown shape {name}")


class Inputs:
    """Per-set-up cache: payloads, written documents and loaded posets.

    Every poset is written as a document, loaded back through the public
    ``documents`` functions and validated exactly once.
    """

    def __init__(self, lib, workdir):
        self.lib = lib
        self.workdir = workdir
        self.payloads: dict[str, dict] = {}
        self.posets: dict[str, object] = {}
        self.paths: dict[str, str] = {}

    def write(self, name: str, kind: str, payload) -> str:
        path = self.workdir / f"{name.replace(':', '_')}.json"
        text = payload if isinstance(payload, str) else gen.dump(gen.document(kind, payload))
        path.write_text(text, encoding="utf-8")
        self.paths[name] = str(path)
        return str(path)

    def payload(self, name: str) -> dict:
        if name not in self.payloads:
            self.payloads[name] = shape_payload(name)
        return self.payloads[name]

    def _load(self, name: str, payload: dict):
        path = self.write(name, "poset", payload)
        kind, loaded = self.lib.documents.load_document(path)
        poset = self.lib.documents.poset_from_payload(loaded)
        problems = self.lib.faces.validate(poset)
        if kind != "poset" or problems:
            raise RuntimeError(f"generated poset {name} is invalid: {problems[:3]}")
        return poset

    def poset(self, name: str):
        if name not in self.posets:
            self.posets[name] = self._load(name, self.payload(name))
        return self.posets[name]

    def poset_path(self, name: str) -> str:
        """Path of the validated poset document; keeps neither payload nor
        poset, so that a pass's memory does not depend on which are drawn."""
        if name not in self.paths:
            self._load(name, shape_payload(name))
        return self.paths[name]

    def ktheory(self, kt: str):
        return self.lib.documents.ktheory_from_payload(gen.KTHEORY[kt])

    def symbol_payload(self, shape: str, kt: str, vanishing: bool, variant: int, codim: int) -> dict:
        rng = random.Random(f"symbol-{shape}-{kt}-{vanishing}-{variant}")
        maker = gen.symbol if codim == 2 else gen.codim1_symbol
        return maker(rng, self.payload(shape), kt, vanishing)

    def symbol(self, shape, kt, vanishing, variant, codim):
        payload = self.symbol_payload(shape, kt, vanishing, variant, codim)
        return payload, self.lib.documents.symbol_from_payload(payload, self.ktheory(kt))


@dataclass
class Query:
    spec: tuple
    run: Callable[[], object]
    check: Callable[[object], tuple[list[str], object]]  # -> (problems, digest source)

    @property
    def key(self) -> str:
        return spec_key(self.spec)


# ---------------------------------------------------------------------------
# homology-mix


def _homology_answer(result):
    groups = {p: _group(g) for p, g in result.groups.items()}
    periodized = tuple(_group(g) for g in result.periodized)
    return groups, periodized


def _homology_digest(groups, periodized):
    return {
        "groups": {str(p): _group_json(g) for p, g in sorted(groups.items())},
        "periodized": [_group_json(g) for g in periodized],
    }


def homology_query(inputs: Inputs, spec) -> Query:
    lib = inputs.lib
    kind = spec[0]
    if kind == "hom":
        _, shape, coeff, low, high = spec
        poset = inputs.poset(shape)
        G = lib.documents.parse_coefficient(coeff)
        pair = lib.faces.FilteredPair(poset, low, high)

        def run():
            return lib.conormal.homology(lib.conormal.build_complex(pair, G))

        def check(result):
            groups, periodized = _homology_answer(result)
            problems = oracles.check_homology(inputs.payload(shape), (low, high), COEFFS[coeff], groups, periodized)
            return problems, _homology_digest(groups, periodized)

    elif kind == "six":
        _, shape, coeff, q, m, l = spec
        poset = inputs.poset(shape)
        G = lib.documents.parse_coefficient(coeff)

        def run():
            return lib.conormal.six_term(poset, q, m, l, G)

        def check(seq):
            groups = {name: _group(g) for name, g in seq.groups.items()}
            problems = oracles.check_six_term(inputs.payload(shape), (q, m, l), COEFFS[coeff], groups)
            return problems, {name: _group_json(g) for name, g in sorted(groups.items())}

    elif kind == "ses":
        _, shape, coeff = spec
        poset = inputs.poset(shape)
        G = lib.documents.parse_coefficient(coeff)

        def run():
            return lib.conormal.connected_boundary_ses(poset, G)

        def check(report):
            parts = [_group(report.left), _group(report.middle), _group(report.right)]
            problems = oracles.check_boundary_ses(inputs.payload(shape), COEFFS[coeff], *parts)
            if report.exact is not True:
                problems.append("boundary sequence not reported exact")
            return problems, {"groups": [_group_json(g) for g in parts], "exact": report.exact}

    else:
        raise ValueError(f"unknown homology spec {spec}")
    return Query(spec, run, check)


def _homology_universe():
    """Homology of every pair of the 3-cube and of the prisms over the 3- to
    5-gon at every coefficient group, and of the 4-cube's pairs that stop
    at codimension 2 or start there; the six-term triples below
    codimension 3 and boundary sequences of the 3-cube and the 3- and
    4-gon prisms.  Deeper pairs and triples cost up to a second each; a pass of
    cheaper queries runs more often in a run, which steadies each query's
    median time."""
    coeffs = list(COEFFS)
    small = ("cube3", "prism3", "prism4")
    triples = [(q, m, l) for q in range(-1, 1) for m in range(q + 1, 2) for l in range(m + 1, 3)]
    return (
        [("hom", s, c, lo, hi) for s in small + ("prism5",) for c in coeffs for lo, hi in _pairs(3)]
        + [("hom", "cube4", "Z", lo, hi) for lo, hi in _pairs(4) if hi <= 2 or lo >= 2]
        + [("hom", "cube4", "Z/4", lo, hi) for lo, hi in _pairs(4) if hi <= 2]
        + [("six", s, "Z", q, m, l) for s in small for q, m, l in triples]
        + [("six", s, c, -1, 0, 1) for s in small for c in coeffs[1:]]
        + [("ses", s, "Z") for s in small]
    )


# ---------------------------------------------------------------------------
# obstruction-codim2


def obstruction_query(inputs: Inputs, spec) -> Query:
    lib = inputs.lib
    kind = spec[0]
    obs = lib.obstruction
    if kind == "space":
        _, shape, kt = spec
        poset = inputs.poset(shape)
        K = inputs.ktheory(kt)
        k0, k1 = gen.KTHEORY_GROUPS[kt]

        def run():
            return obs.codim2_obstruction_space(poset, K)

        def check(report):
            middle = _group(report.middle) if report.middle is not None else None
            parts = (_group(report.left), _group(report.right), middle, report.middle_status)
            problems = oracles.check_obstruction_space(inputs.payload(shape), k0, k1, parts)
            digest = [_group_json(parts[0]), _group_json(parts[1]),
                      _group_json(middle) if middle else None, parts[3]]
            return problems, digest

    elif kind == "van":
        _, shape, kt, vanishing, variant = spec
        poset = inputs.poset(shape)
        K = inputs.ktheory(kt)
        payload, datum = inputs.symbol(shape, kt, bool(vanishing), variant, 2)

        def run():
            return obs.codim2_vanishes(poset, K, datum)

        def check(v):
            verdict = _verdict_dict(v)
            problems = oracles.check_codim2_verdict(
                inputs.payload(shape), gen.KTHEORY_GROUPS[kt][1], payload, bool(vanishing), verdict
            )
            return problems, _verdict_digest(verdict)

    elif kind == "c1g":
        _, shape, kt = spec
        poset = inputs.poset(shape)
        K = inputs.ktheory(kt)

        def run():
            return obs.codim1_groups(poset, K)

        def check(g):
            groups = {
                "ka0": [_group(x) for x in g.ka0],
                "ka1_over_a0": [_group(x) for x in g.ka1_over_a0],
                "ka1": [_group(x) for x in g.ka1],
            }
            problems = oracles.check_codim1_groups(inputs.payload(shape), *gen.KTHEORY_GROUPS[kt], groups)
            return problems, {k: [_group_json(x) for x in v] for k, v in groups.items()}

    elif kind == "c1v":
        _, shape, kt, vanishing, variant = spec
        poset = inputs.poset(shape)
        K = inputs.ktheory(kt)
        payload, datum = inputs.symbol(shape, kt, bool(vanishing), variant, 1)

        def run():
            return obs.codim1_vanishes(poset, K, datum)

        def check(v):
            verdict = _verdict_dict(v)
            return oracles.check_codim1_verdict(inputs.payload(shape), payload, verdict), _verdict_digest(verdict)

    else:
        raise ValueError(f"unknown obstruction spec {spec}")
    return Query(spec, run, check)


def _verdict_dict(v) -> dict:
    return {
        "vanishes": v.vanishes,
        "failing_codim2": list(v.failing_codim2),
        "failing_codim1": list(v.failing_codim1),
        "codim1_class_vanishes": v.codim1_class_vanishes,
        "certificate": _chain(v.certificate) if v.certificate is not None else None,
    }


def _verdict_digest(verdict: dict) -> dict:
    return {k: v for k, v in verdict.items() if k != "certificate"}


def _rand(n: int):
    return [f"rand{n}v{v}" for v in range(VARIANTS)]


def _obstruction_universe():
    """Obstruction spaces on the 16- and 32-gon and on random codim-2 posets
    of 50 and 75 faces; verdicts on k-gons (k = 16 ... 64) and random posets
    of 50-150 faces, vanishing and not, at every K-theory input; codim-1
    groups and verdicts on the codim-1 skeleta.  The 64- and 128-gon spaces
    (1.7 s and more) are timed by ``run.py --roadmap-rows`` instead."""
    kts = tuple(gen.KTHEORY)
    pc = ("point", "circle")

    def van(shapes, variants):
        return [("van", s, kt, v, i) for s in shapes for kt in kts for v in (1, 0) for i in variants]

    skeleta = ["skel1:kgon16", "skel1:kgon32"]
    return (
        [("space", s, kt) for s in ("kgon16", "kgon32") for kt in pc]
        + [("space", "kgon16", "torsion")]
        + [("space", s, "circle") for s in _rand(50) + _rand(75)]
        + van(["kgon16", "kgon32", "kgon48", "kgon64"], range(VARIANTS))
        + van(_rand(50) + _rand(100) + _rand(150), range(2))
        + [("c1g", "skel1:kgon32", "circle")]
        + [("c1g", s, kt) for s in ["skel1:kgon16"] + [f"skel1:{r}" for r in _rand(50)] for kt in pc]
        + [("c1v", s, kt, v, i) for s in skeleta for kt in kts for v in (1, 0) for i in range(2)]
        + [("c1v", f"skel1:{s}", kt, v, 0) for s in _rand(50) for kt in kts for v in (1, 0)]
    )


# ---------------------------------------------------------------------------
# cli-families


class _Discard(io.TextIOBase):
    def write(self, text):
        return len(text)


def cli_query(inputs: Inputs, spec) -> Query:
    """CLI queries answer ``(exit code, standard output)``; reports are
    read back from the captured JSON output."""
    lib = inputs.lib
    kind = spec[0]

    def call(argv):
        def run():
            out = io.StringIO()
            with redirect_stdout(out), redirect_stderr(_Discard()):
                code = lib.cli.main(argv)
            return code, out.getvalue()
        return run

    def report(text):
        return json.loads(text)["result"]

    def expect_code(code, want):
        return [] if code == want else [f"exit code {code}, expected {want}"]

    def family_payload(d, embeddable, variant):
        return gen.cube_family(random.Random(f"family-{d}-{embeddable}-{variant}"), d, bool(embeddable))

    def family_path(d, embeddable, variant):
        name = f"family{d}{'e' if embeddable else 'n'}v{variant}"
        if name not in inputs.paths:
            payload = family_payload(d, embeddable, variant)
            if lib.faces.validate(lib.documents.poset_from_payload(payload["fiber"])):
                raise RuntimeError(f"generated fiber of {name} is invalid")
            inputs.write(name, "family", payload)
        return inputs.paths[name]

    if kind == "family":
        _, d, embeddable, variant = spec
        run = call(["family", family_path(d, embeddable, variant), "--check-embeddable", "--format", "json"])

        def check(answer):
            code, text = answer
            if code != 0:
                return [f"exit code {code}"], [code]
            result = report(text)
            problems = oracles.check_family(family_payload(d, embeddable, variant), bool(embeddable), result)
            return problems, [code, result["counts"], result["embeddable"], result["witness"]]

    elif kind == "validate-family":
        run = call(["validate", family_path(*spec[1:]), "--format", "json"])

        def check(answer):
            code, text = answer
            problems = expect_code(code, 0)
            if not problems and not report(text)["valid"]:
                problems.append("valid family reported invalid")
            return problems, [code]

    elif kind == "validate-poset":
        _, shape = spec
        run = call(["validate", inputs.poset_path(shape), "--format", "json"])

        def check(answer):
            code, text = answer
            problems = expect_code(code, 0)
            if not problems and not report(text)["valid"]:
                problems.append("valid poset reported invalid")
            return problems, [code]

    elif kind == "broken":
        _, d, variant = spec
        name = f"broken{d}v{variant}"
        payload = gen.broken_poset(random.Random(f"broken-{d}-{variant}"), d)
        if name not in inputs.paths:
            if not lib.faces.validate(lib.documents.poset_from_payload(payload)):
                raise RuntimeError(f"corrupted poset {name} passes validation")
        path = inputs.paths.get(name) or inputs.write(name, "poset", payload)
        run = call(["validate", path, "--format", "json"])

        def check(answer):
            code, text = answer
            problems = expect_code(code, 1)
            if not problems and report(text)["valid"]:
                problems.append("corrupted poset reported valid")
            return problems, [code]

    elif kind == "garbled":
        _, variant = spec
        name = f"garbled-{variant}"
        path = inputs.paths.get(name) or inputs.write(name, "poset", gen.GARBLED[variant])
        run = call(["validate", path])

        def check(answer):
            code, _ = answer
            return expect_code(code, 2), [code]

    elif kind == "codim3":
        _, shape = spec
        kpath = inputs.paths.get("kt-circle") or inputs.write("kt-circle", "ktheory", gen.KTHEORY["circle"])
        run = call(["obstruction", inputs.poset_path(shape), kpath])

        def check(answer):
            code, _ = answer
            return expect_code(code, 3), [code]

    elif kind == "gallery":
        _, name = spec
        target = str(inputs.workdir / f"gallery_{name}.json")
        run = call(["gallery", name, "--out", target])

        def check(answer):
            code, _ = answer
            if code != 0:
                return [f"exit code {code}"], [code]
            with open(target, encoding="utf-8") as fh:
                written = fh.read()
            problems = [] if json.loads(written).get("kind") == "family" else ["gallery wrote no family document"]
            return problems, [code, oracles.digest(written)]

    elif kind == "gallery-family":
        _, name = spec
        source = inputs.workdir / f"gallery_{name}.json"
        if not source.exists():
            with redirect_stdout(_Discard()):
                lib.cli.main(["gallery", name, "--out", str(source)])
        family = json.loads(source.read_text(encoding="utf-8"))["payload"]
        run = call(["family", str(source), "--check-embeddable", "--format", "json"])

        def check(answer):
            code, text = answer
            if code != 0:
                return [f"exit code {code}"], [code]
            result = report(text)
            problems = oracles.check_family(family, GALLERY[name], result)
            return problems, [code, result["counts"], result["embeddable"], result["witness"]]

    elif kind == "cli-homology":
        _, shape, coeff, low, high = spec
        run = call(["homology", inputs.poset_path(shape), "--pair", str(low), str(high),
                    "--coeff", coeff, "--format", "json"])

        def check(answer):
            code, text = answer
            if code != 0:
                return [f"exit code {code}"], [code]
            result = report(text)
            groups = {int(p): _payload_group(v["group"]) for p, v in result["degrees"].items()}
            per = result["periodized"]
            periodized = (_payload_group(per["H0_pcn"]), _payload_group(per["H1_pcn"]))
            problems = oracles.check_homology(inputs.payload(shape), (low, high), COEFFS[coeff], groups, periodized)
            return problems, [code, _homology_digest(groups, periodized)]

    elif kind == "cli-obstruction":
        _, shape, kt, vanishing, variant = spec
        codim = max(f["codim"] for f in inputs.payload(shape)["faces"])
        payload = inputs.symbol_payload(shape, kt, bool(vanishing), variant, codim)
        kpath = inputs.paths.get(f"kt-{kt}") or inputs.write(f"kt-{kt}", "ktheory", gen.KTHEORY[kt])
        sname = f"symbol-{shape}-{kt}-{vanishing}-{variant}"
        spath = inputs.paths.get(sname) or inputs.write(sname, "symbol", payload)
        run = call(["obstruction", inputs.poset_path(shape), kpath, spath, "--format", "json"])
        k0, k1 = gen.KTHEORY_GROUPS[kt]

        def check(answer):
            code, text = answer
            if code != 0:
                return [f"exit code {code}"], [code]
            result = report(text)
            poset_payload = inputs.payload(shape)
            verdict = result["verdict"]
            if codim == 1:
                groups = {name: [_payload_group(g) for g in result["groups"][name]]
                          for name in ("KA0", "KA1_over_A0", "KA1")}
                problems = oracles.check_codim1_groups(poset_payload, k0, k1, {
                    "ka0": groups["KA0"], "ka1_over_a0": groups["KA1_over_A0"], "ka1": groups["KA1"]})
                problems += oracles.check_codim1_verdict(poset_payload, payload, verdict)
                part = result["groups"]
            else:
                space = result["obstruction_space"]
                middle = _payload_group(space["middle"]) if space["middle"] else None
                problems = oracles.check_obstruction_space(poset_payload, k0, k1, (
                    _payload_group(space["left"]), _payload_group(space["right"]), middle, space["status"]))
                problems += oracles.check_codim2_verdict(poset_payload, k1, payload, bool(vanishing), verdict)
                part = space
            return problems, [code, part, _verdict_digest(verdict)]

    else:
        raise ValueError(f"unknown cli spec {spec}")
    return Query(spec, run, check)


def _cli_universe():
    """``family --check-embeddable`` and ``validate`` on n-cube fibers
    (d = 3 ... 6) with seeded monodromy, ``validate`` on cubes, corrupted
    and garbled documents, ``obstruction`` on codimension-3 posets, the
    gallery, and ``homology``/``obstruction`` on the 1- and 2-cube."""
    fibers = [(d, e, v) for d in range(3, 7) for e in (1, 0) for v in range(VARIANTS)]
    return (
        [("family", *f) for f in fibers]
        + [("validate-family", *f) for f in fibers]
        + [("validate-poset", f"cube{d}") for d in range(3, 7)]
        + [("broken", d, v) for d in range(3, 6) for v in range(VARIANTS)]
        + [("garbled", name) for name in gen.GARBLED]
        + [("codim3", s) for s in ("cube3", "cube4", "prism3", "prism4", "prism5")]
        + [("gallery", name) for name in GALLERY]
        + [("gallery-family", name) for name in GALLERY]
        + [("cli-homology", f"cube{d}", c, lo, d) for d in (1, 2) for c in COEFFS for lo in (-1, 0)]
        + [("cli-obstruction", "cube2", kt, v, i) for kt in gen.KTHEORY for v in (1, 0) for i in range(2)]
        + [("cli-obstruction", "cube1", kt, v, 0) for kt in gen.KTHEORY for v in (1, 0)]
    )


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """Why each workload exists is recorded beside its name in BENCHMARK.json."""

    name: str
    universe: Callable[[], list[tuple]]
    make: Callable[[Inputs, tuple], Query]
    warmup: tuple  # run once per set-up; outside the universe, so no pass repeats it

    def pass_specs(self, seed: int, cost_ms: dict[str, float]) -> list[tuple]:
        """One spec from each of PASS_SIZE strata of neighbouring recorded
        cost, in seeded order.  The draw in a stratum is among its specs
        within a factor STRATUM_SPREAD of the cost of its middle spec: a
        stratum that straddles a gap between kinds of query (a top stratum
        of obstruction-codim2 holds 50 ms and 145 ms obstruction spaces)
        would otherwise move the pass's total cost by up to 9 % with the
        seed.  At the recorded costs this leaves out 2 of the 1001 specs,
        both variants of kinds that other specs still cover."""
        ranked = sorted(self.universe(), key=lambda spec: (cost_ms[spec_key(spec)], spec_key(spec)))
        n = len(ranked)
        rng = random.Random(f"{self.name}-{seed}")
        specs = []
        for i in range(PASS_SIZE):
            stratum = ranked[i * n // PASS_SIZE:(i + 1) * n // PASS_SIZE]
            middle = cost_ms[spec_key(stratum[(len(stratum) - 1) // 2])]
            near = [s for s in stratum if middle / STRATUM_SPREAD <= cost_ms[spec_key(s)] <= middle * STRATUM_SPREAD]
            specs.append(rng.choice(near))
        rng.shuffle(specs)
        return specs


WORKLOADS = {
    w.name: w
    for w in (
        Workload("homology-mix", _homology_universe, homology_query, ("hom", "cube2", "Z + Z/4", -1, 2)),
        Workload("obstruction-codim2", _obstruction_universe, obstruction_query, ("van", "kgon12", "circle", 1, 0)),
        Workload("cli-families", _cli_universe, cli_query, ("family", 2, 1, 0)),
    )
}
