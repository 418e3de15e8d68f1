"""Command-line front end.

Subcommands: validate, homology, family, obstruction, gallery.  Reports are
fully deterministic; timing lives in a separate top-level field that golden
comparisons drop.  Exit codes: 0 success, 1 domain failure, 2 parse failure
or an unwritable ``--out`` path, 3 unsupported codimension, 4 internal error
(a failed cross-check or a shape error inside the algebra, always a bug).
Set CORNER_INDEX_LOG=debug for diagnostics on standard error.
"""

from __future__ import annotations

import argparse
import functools
import logging
import os
import sys
import time

from . import documents
from .abelian import DimensionError, FGAbelianGroup, GroupMismatchError, InternalConsistencyError
from .conormal import build_complex, homology
from .documents import InputError, canonical_json, group_to_payload
from .faces import FilteredPair, require_valid, validate
from .families import GALLERY_NAMES, check_embeddable, gallery, quotient_family, validate_automorphism
from .obstruction import (
    UnsupportedCodimensionError,
    codim1_groups,
    codim1_vanishes,
    codim2_obstruction_space,
    codim2_vanishes,
)

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_PARSE = 2
EXIT_UNSUPPORTED = 3
EXIT_INTERNAL = 4

log = logging.getLogger("cornerindex")


class _StderrHandler(logging.StreamHandler):
    """Writes each record to ``sys.stderr`` as it is when the record is
    emitted, so a replaced standard error is followed."""

    def __init__(self):
        logging.Handler.__init__(self)  # StreamHandler's would assign a stream

    @property
    def stream(self):
        return sys.stderr


_log_handler = _StderrHandler()
_log_handler.setFormatter(logging.Formatter("cornerindex %(levelname)s: %(message)s"))


def _configure_logging():
    """Follow CORNER_INDEX_LOG as set for this call: the one cornerindex
    handler is attached while it is set and detached once it is unset."""
    level = os.environ.get("CORNER_INDEX_LOG", "").strip()
    if level:
        log.addHandler(_log_handler)  # no-op when already attached
        log.setLevel(getattr(logging, level.upper(), logging.DEBUG))
    elif _log_handler in log.handlers:
        log.removeHandler(_log_handler)
        log.setLevel(logging.NOTSET)


def _load(path: str, expected_kind: str) -> dict:
    kind, payload = documents.load_document(path)
    if kind != expected_kind:
        raise InputError(f"{path}: expected a {expected_kind} document, found {kind}")
    return payload


def _write(path: str, text: str) -> bool:
    """Write ``text`` to ``path``; when that fails, say why on standard
    error and return False."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
        return False
    return True


def _chain_json(vector) -> list:
    return [documents.element_to_payload(e) for e in vector.coords]


# ---------------------------------------------------------------------------
# command handlers; each returns (result dict, exit code)


def _cmd_validate(args):
    kind, payload = documents.load_document(args.file)
    if kind == "poset":
        poset = documents.poset_from_payload(payload)
        violations = validate(poset)
    elif kind == "family":
        spec = documents.family_from_payload(payload)
        violations = [f"fiber: {v}" for v in validate(spec.fiber)]
        if not violations:
            for idx, gen in enumerate(spec.generators):
                violations.extend(
                    f"generator {idx}: {v}" for v in validate_automorphism(spec.fiber, gen)
                )
    else:
        raise InputError(f"validate expects a poset or family document, found {kind}")
    result = {"kind": kind, "valid": not violations, "violations": violations}
    return result, EXIT_OK if not violations else EXIT_DOMAIN


def _cmd_homology(args):
    payload = _load(args.file, "poset")
    poset = documents.poset_from_payload(payload)
    coefficient = documents.parse_coefficient(args.coeff)
    # report an invalid poset's violations before range-checking --pair
    require_valid(poset)
    d = poset.codimension()
    low, high = (args.pair if args.pair is not None else (-1, d))
    complex = build_complex(FilteredPair(poset, low, high), coefficient)
    log.debug("complex built: degrees %s", list(complex.degrees))
    result_obj = homology(complex)
    degrees = {}
    for p in complex.degrees:
        degrees[str(p)] = {
            "faces": list(complex.bases[p]),
            "group": group_to_payload(result_obj.groups[p]),
            "representatives": [_chain_json(v) for v in result_obj.representatives[p]],
        }
    result = {
        "pair": [low, high],
        "coefficient": group_to_payload(coefficient),
        "degrees": degrees,
        "periodized": {
            "H0_pcn": group_to_payload(result_obj.periodized[0]),
            "H1_pcn": group_to_payload(result_obj.periodized[1]),
        },
    }
    return result, EXIT_OK


def _cmd_family(args):
    payload = _load(args.file, "family")
    spec = documents.family_from_payload(payload)
    quotient = quotient_family(spec)
    total = quotient.total
    per_codim = {}
    for f in total.faces:
        per_codim[str(f.codim)] = per_codim.get(str(f.codim), 0) + 1
    result = {
        "base_label": spec.base_label,
        "counts": {
            "fiber_faces": len(spec.fiber.faces),
            "fiber_hypersurfaces": len(spec.fiber.hypersurfaces),
            "total_faces": len(total.faces),
            "total_hypersurfaces": len(total.hypersurfaces),
            "total_faces_by_codim": per_codim,
        },
        "face_orbits": dict(quotient.orbit_map),
        "hypersurface_orbits": dict(quotient.hypersurface_orbit_map),
    }
    if args.check_embeddable:
        verdict = check_embeddable(quotient)
        result["embeddable"] = verdict.embeddable
        result["witness"] = verdict.witness
        if verdict.embeddable:
            result["total"] = documents.poset_to_payload(total)
    return result, EXIT_OK


def _cmd_obstruction(args):
    poset_payload = _load(args.poset, "poset")
    poset = documents.poset_from_payload(poset_payload)
    ktheory = documents.ktheory_from_payload(_load(args.ktheory, "ktheory"))
    datum = None
    if args.symbol:
        datum = documents.symbol_from_payload(_load(args.symbol, "symbol"), ktheory)

    require_valid(poset)
    d = poset.codimension()
    if d not in (1, 2):
        raise UnsupportedCodimensionError(
            f"poset has codimension {d}; this calculator covers codimension 1 and 2 only "
            "(torsion obstructs the reduction beyond that)"
        )
    result: dict = {
        "codim": d,
        "ktheory": documents.ktheory_to_payload(ktheory),
    }
    if d == 1:
        groups = codim1_groups(poset, ktheory)
        result["groups"] = {
            "KA0": [group_to_payload(g) for g in groups.ka0],
            "KA1_over_A0": [group_to_payload(g) for g in groups.ka1_over_a0],
            "KA1": [group_to_payload(g) for g in groups.ka1],
        }
        if datum is not None:
            verdict = codim1_vanishes(poset, ktheory, datum)
            result["verdict"] = _verdict_json(verdict)
    else:
        report = codim2_obstruction_space(poset, ktheory)
        result["obstruction_space"] = {
            "left": group_to_payload(report.left),
            "right": group_to_payload(report.right),
            "middle": group_to_payload(report.middle) if report.middle is not None else None,
            "status": report.middle_status,
        }
        if datum is not None:
            verdict = codim2_vanishes(poset, ktheory, datum)
            result["verdict"] = _verdict_json(verdict)
    return result, EXIT_OK


def _verdict_json(verdict) -> dict:
    return {
        "vanishes": verdict.vanishes,
        "failing_codim2": list(verdict.failing_codim2),
        "failing_codim1": list(verdict.failing_codim1),
        "codim1_class_vanishes": verdict.codim1_class_vanishes,
        "certificate": _chain_json(verdict.certificate) if verdict.certificate else None,
    }


def _cmd_gallery(args):
    spec = gallery(args.name)
    doc = documents.document("family", documents.family_to_payload(spec))
    text = canonical_json(doc)
    if args.out:
        if not _write(args.out, text):
            return None, EXIT_PARSE
        return {"name": args.name, "written": args.out}, EXIT_OK
    sys.stdout.write(text)
    return None, EXIT_OK


# ---------------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: it depends on no input,
    and ``parse_args`` returns a fresh namespace on every call."""
    parser = argparse.ArgumentParser(
        prog="cornerindex",
        description="Exact conormal homology and boundary-index obstruction calculator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("table", "json"), default="table")
        p.add_argument("--out", help="write the report (or the generated file) here")

    p = sub.add_parser("validate", help="check a poset or family document")
    p.add_argument("file")
    common(p)
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("homology", help="conormal homology of a poset")
    p.add_argument("file")
    p.add_argument("--pair", nargs=2, type=int, metavar=("M", "L"), default=None,
                   help="relative pair (X_L, X_M); default is the absolute complex")
    p.add_argument("--coeff", default="Z", help='coefficient group, e.g. "Z^2 + Z/4"')
    common(p)
    p.set_defaults(handler=_cmd_homology)

    p = sub.add_parser("family", help="quotient a fiber poset by its monodromy")
    p.add_argument("file")
    p.add_argument("--check-embeddable", action="store_true")
    common(p)
    p.set_defaults(handler=_cmd_family)

    p = sub.add_parser("obstruction", help="obstruction groups and vanishing verdicts")
    p.add_argument("poset")
    p.add_argument("ktheory")
    p.add_argument("symbol", nargs="?", default=None)
    common(p)
    p.set_defaults(handler=_cmd_obstruction)

    p = sub.add_parser("gallery", help="write a built-in example family")
    p.add_argument("name", help=f"one of: {', '.join(GALLERY_NAMES)}")
    common(p)
    p.set_defaults(handler=_cmd_gallery)

    return parser


def _render_table(value, indent=0) -> list[str]:
    pad = "  " * indent
    lines = []
    if isinstance(value, dict):
        if set(value) == {"rank", "torsion"}:
            return [pad + str(FGAbelianGroup(value["rank"], tuple(value["torsion"])))]
        if set(value) == {"free", "torsion"}:
            coords = ", ".join(str(x) for x in list(value["free"]) + list(value["torsion"]))
            return [pad + f"({coords})"]
        for key in value:
            inner = value[key]
            if isinstance(inner, (dict, list)):
                lines.append(f"{pad}{key}:")
                lines.extend(_render_table(inner, indent + 1))
            else:
                lines.append(f"{pad}{key}: {inner}")
    elif isinstance(value, list):
        if not value:
            lines.append(pad + "(none)")
        for item in value:
            if isinstance(item, (dict, list)):
                lines.extend(_render_table(item, indent))
            else:
                lines.append(f"{pad}- {item}")
    else:
        lines.append(f"{pad}{value}")
    return lines


def main(argv=None) -> int:
    _configure_logging()
    parser = _build_parser()
    effective_argv = list(argv) if argv is not None else sys.argv[1:]
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        result, code = args.handler(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except UnsupportedCodimensionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except (DimensionError, GroupMismatchError) as exc:
        # input is checked before it reaches the algebra, so a shape error
        # is a bug, not a domain failure
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except InternalConsistencyError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    if result is None:
        return code
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    report = {
        "command": {"name": args.command, "argv": effective_argv},
        "result": result,
        "timing_ms": round(elapsed_ms, 3),
    }
    if args.format == "json":
        text = canonical_json(report)
    else:
        text = "\n".join(_render_table(result)) + "\n"
    if args.out and args.command != "gallery":
        if not _write(args.out, text):
            return EXIT_PARSE
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
