"""Command-line front end.

Commands::

    polyk validate FILE
    polyk report FILE [--faces] [--boundary] [--homology] [--ktheory] [--json]
    polyk compare FILE_A FILE_B
    polyk corpus DIR [--json]

Exit codes: 0 success, 1 input error, 2 internal error (an invariant
violation or any other unexpected exception), 3 compared polytopes not
isomorphic, 141 standard output closed early (as in ``polyk ... | head``;
nothing is printed on stderr then).  Human-readable output goes to stdout,
diagnostics to stderr; ``--json`` replaces the human report with a
machine-readable document that is byte-identical across runs for a fixed
input and tool version (timing is therefore reported only in human mode).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from . import __version__
from .cellular import AbelianGroup, HomologyResult
from .comb_type import is_isomorphic
from .errors import (
    EXIT_BROKEN_PIPE,
    EXIT_INPUT_ERROR,
    EXIT_INTERNAL_ERROR,
    EXIT_NOT_ISOMORPHIC,
    EXIT_OK,
    InputError,
    InternalInvariantError,
)
from .files import load_polytope, polytope_to_json
from .ktheory import KReport
from .pipeline import PipelineResult, run_pipeline
from .polytope import face_label, face_lattice

DEFAULT_SECTIONS = frozenset({"homology", "ktheory"})  # report with no section flag, and corpus


def _homology_json(h: HomologyResult) -> list[dict]:
    return [{"degree": j, **g.to_json()} for j, g in enumerate(h.groups, h.min_degree)]


def report_document(result: PipelineResult, sections: frozenset[str] | set[str]) -> dict:
    """The machine-readable report; sections chosen by flag names."""
    P, L, X, rep = result.polytope, result.lattice, result.complex, result.report
    doc: dict = {
        "tool": {"name": "polyk", "version": __version__},
        "input": polytope_to_json(P),
        "f_vector": list(L.f_vector),
    }
    if "faces" in sections:
        doc["faces"] = {
            str(j): [list(f.vertex_set) for f in L.faces(j)]
            for j in range(-1, L.dim + 1)
        }
    if "boundary" in sections:
        doc["boundary"] = [
            {
                "j": j,
                "rows": [face_label(s) for s in X.face_labels(j - 1)],
                "cols": [face_label(s) for s in X.face_labels(j)],
                "matrix": [list(r) for r in X.matrix(j)],
            }
            for j in range(0, X.dim + 1)
        ]
    if "homology" in sections:
        doc["homology"] = {
            "augmented": _homology_json(rep.augmented_homology),
            "reduced": _homology_json(rep.reduced_homology),
        }
    if "ktheory" in sections:
        doc["ktheory"] = _ktheory_json(result, rep)
    return doc


def _ktheory_json(result: PipelineResult, rep: KReport) -> dict:
    return {
        "e1_odd_ranks": [[p, result.e1.odd_rank(p)] for p in range(1, result.e1.dim + 3)],
        "K_A_Omega": {"K0": rep.k_algebra[0].to_json(), "K1": rep.k_algebra[1].to_json()},
        "K_A_Omega_mod_K": {"K0": rep.k_quotient[0].to_json(), "K1": rep.k_quotient[1].to_json()},
        "e2_nonzero": [{"degree": j, "group": g.to_json()} for j, g in rep.e2_nonzero],
        "conclusions": list(rep.kk_conclusions),
    }


def _render_matrix(rows: list[str], cols: list[str], matrix) -> list[str]:
    width = max([len(r) for r in rows + cols] + [2]) + 1
    lines = [" " * width + "".join(c.rjust(width) for c in cols)]
    for label, row in zip(rows, matrix):
        lines.append(label.rjust(width) + "".join(str(x).rjust(width) for x in row))
    return lines


def render_human(doc: dict, elapsed: float) -> str:
    """The human report: the document ``report_document`` made, formatted,
    with the elapsed time."""
    P = doc["input"]
    lines = [
        f"polytope {P['name']} (dim {P['dim']}, {len(P['vertices'])} vertices)",
        f"f-vector: {doc['f_vector']}",
    ]
    if "faces" in doc:
        lines.append("faces:")
        for j, faces in doc["faces"].items():
            labels = " ".join(face_label(f) for f in faces)
            lines.append(f"  dim {j}: {labels}")
    if "boundary" in doc:
        lines.append("boundary matrices:")
        for b in doc["boundary"]:
            j = b["j"]
            lines.append(f"  D_{j} (rows: faces of dim {j - 1}, cols: faces of dim {j})")
            lines.extend("  " + ln for ln in _render_matrix(b["rows"], b["cols"], b["matrix"]))
    if "homology" in doc:
        lines.append("homology:")
        for kind, groups in doc["homology"].items():
            line = ", ".join(f"H_{g['degree']} = {AbelianGroup.from_json(g)}" for g in groups)
            lines.append(f"  {kind + ':':<11}{line}")
    if "ktheory" in doc:
        k = doc["ktheory"]
        ranks = [rank for _, rank in k["e1_odd_ranks"]]
        lines.append("k-theory:")
        lines.append(f"  E^1 odd-row ranks (p = 1..{len(ranks)}): {ranks}")
        for algebra, key in (("A_Omega", "K_A_Omega"), ("A_Omega/K", "K_A_Omega_mod_K")):
            for i in (0, 1):
                lines.append(f"  K_{i}({algebra}) = {AbelianGroup.from_json(k[key][f'K{i}'])}")
        lines.extend(f"  - {c}" for c in k["conclusions"])
    lines.append(f"elapsed: {elapsed:.3f} s")
    return "\n".join(lines)


def cmd_validate(args: argparse.Namespace) -> int:
    load_polytope(args.file)
    print("valid")
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    sections = {name for name in ("faces", "boundary", "homology", "ktheory")
                if getattr(args, name)} or DEFAULT_SECTIONS
    start = time.monotonic()
    polytope = load_polytope(args.file)
    result = run_pipeline(polytope)
    elapsed = time.monotonic() - start
    doc = report_document(result, sections)
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(render_human(doc, elapsed))
    return EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    pa = load_polytope(args.file_a)
    pb = load_polytope(args.file_b)
    iso = is_isomorphic(face_lattice(pa), face_lattice(pb))
    if not iso.isomorphic:
        print(f"not isomorphic: {iso.certificate}")
        return EXIT_NOT_ISOMORPHIC
    print(f"isomorphic: {len(iso.mapping)} faces matched (including the empty "
          "face and the polytope itself)")
    for a, b in iso.mapping:
        print(f"  dim {a.dim}: {face_label(a.vertex_set)} -> {face_label(b.vertex_set)}")
    return EXIT_OK


def cmd_corpus(args: argparse.Namespace) -> int:
    directory = Path(args.dir)
    if not directory.is_dir():
        raise InputError(f"not a directory: {directory}")
    paths = sorted(directory.glob("*.json"))
    if not paths:
        raise InputError(f"no *.json polytope files in {directory}")
    results: dict[str, dict] = {}
    worst = EXIT_OK
    for path in paths:
        try:
            result = run_pipeline(load_polytope(path))
            doc = report_document(result, DEFAULT_SECTIONS)
            results[path.name] = {"status": "ok", "report": doc}
        except InputError as exc:
            results[path.name] = {"status": "input-error", "message": str(exc)}
            worst = max(worst, EXIT_INPUT_ERROR)
        except InternalInvariantError as exc:
            results[path.name] = {"status": "internal-error", "message": str(exc)}
            worst = max(worst, EXIT_INTERNAL_ERROR)
    if args.json:
        print(json.dumps({"files": results}, indent=2, sort_keys=True))
    else:
        for name, entry in results.items():
            if entry["status"] == "ok":
                conclusions = entry["report"]["ktheory"]["conclusions"]
                flag = "ok" if not any(c.startswith("FALSIFIED") for c in conclusions) else "FALSIFIED"
                print(f"{name}: {flag}, f-vector {entry['report']['f_vector']}")
            else:  # the line names the file once, not again as the message's prefix
                message = entry["message"].removeprefix(f"{directory / name}: ")
                print(f"{name}: {entry['status']}: {message}")
    return worst


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyk",
        description="Exact face-lattice, cellular-homology, and K-theory reports "
                    "for rational convex polytopes.")
    parser.add_argument("--version", action="version", version=f"polyk {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="validate a polytope file")
    p_val.add_argument("file")
    p_val.set_defaults(func=cmd_validate)

    p_rep = sub.add_parser("report", help="run the full pipeline and report")
    p_rep.add_argument("file")
    p_rep.add_argument("--faces", action="store_true", help="list all faces")
    p_rep.add_argument("--boundary", action="store_true", help="print boundary matrices")
    p_rep.add_argument("--homology", action="store_true", help="print homology groups")
    p_rep.add_argument("--ktheory", action="store_true", help="print the K-theory report")
    p_rep.add_argument("--json", action="store_true", help="machine-readable output")
    p_rep.set_defaults(func=cmd_report)

    p_cmp = sub.add_parser("compare", help="decide combinatorial-type isomorphism")
    p_cmp.add_argument("file_a")
    p_cmp.add_argument("file_b")
    p_cmp.set_defaults(func=cmd_compare)

    p_cor = sub.add_parser("corpus", help="report on every polytope file in a directory")
    p_cor.add_argument("dir")
    p_cor.add_argument("--json", action="store_true", help="machine-readable output")
    p_cor.set_defaults(func=cmd_corpus)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe must fail here, not at interpreter exit
        return code
    except BrokenPipeError:
        # The reader went away.  Point stdout at the null device so the
        # interpreter's final flush of what is still buffered stays quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except InternalInvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR
    except Exception as exc:  # exit code 1 is reserved for input errors
        print(f"internal error: {args.command}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
