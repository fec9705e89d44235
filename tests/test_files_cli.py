"""Input parsing, the CLI contract (exit codes 0/1/2/3), JSON determinism
against checked-in goldens, and machine-readable round-trips."""

import importlib.util
import json
import os
import re
import sys
from pathlib import Path

import pytest

import polyk.cellular as cellular
import polyk.cli as cli
from polyk.cli import main
from polyk.errors import InputError, InternalInvariantError
from polyk.corpus import cross_polytope
from polyk.files import load_polytope, parse_polytope_text, polytope_to_json
from polyk.ktheory import AbelianGroup
from polyk.polytope import validate

REPO = Path(__file__).resolve().parent.parent
POLYTOPES = REPO / "polytopes"
GOLDEN = Path(__file__).resolve().parent / "data" / "golden"


# --- parsing ---

def test_parse_valid_with_rationals():
    pf = parse_polytope_text(
        '{"name": "t", "dim": 2, "vertices": [[0, 0], ["1/2", 1], [1, "0"]]}')
    assert pf.dim == 2 and len(pf.vertices) == 3
    assert pf.vertices[1][0] == 0.5  # Fraction(1, 2) compares equal


def test_parse_rejects_zero_denominator():
    with pytest.raises(InputError, match="zero denominator"):
        parse_polytope_text('{"name": "t", "dim": 1, "vertices": [["1/0"], [1]]}')


def test_parse_rejects_floats():
    with pytest.raises(InputError, match="floating-point"):
        parse_polytope_text('{"name": "t", "dim": 1, "vertices": [[0.5], [1]]}')


def test_parse_rejects_malformed_rational():
    with pytest.raises(InputError, match="malformed rational"):
        parse_polytope_text('{"name": "t", "dim": 1, "vertices": [["1//2"], [1]]}')


@pytest.mark.parametrize("value", ["0\n", "1/2\n", "\u0663", "1/\u0662", " 1", "+1"],
                         ids=["trailing-newline", "fraction-newline", "arabic-indic-digit",
                              "arabic-indic-denominator", "leading-space", "plus-sign"])
def test_parse_rejects_rational_that_is_not_ascii_digits_only(value):
    # the whole string must be ASCII digits, one optional minus and one
    # optional "/q"; a trailing newline or a non-ASCII digit is malformed
    text = json.dumps({"name": "t", "dim": 1, "vertices": [[value], [1]]})
    with pytest.raises(InputError, match="malformed rational"):
        parse_polytope_text(text)


def test_parse_rejects_missing_fields():
    with pytest.raises(InputError, match="missing field"):
        parse_polytope_text('{"name": "t", "vertices": [[0], [1]]}')


def test_parse_rejects_wrong_coordinate_count():
    with pytest.raises(InputError, match="vertex 1 has 1 coordinates"):
        parse_polytope_text('{"name": "t", "dim": 2, "vertices": [[0, 0], [1]]}')


def test_parse_reports_location():
    with pytest.raises(InputError, match="vertex 1, coordinate 0"):
        parse_polytope_text('{"name": "t", "dim": 1, "vertices": [[0], ["2/0"]]}')


def test_parse_invalid_json_mentions_line():
    with pytest.raises(InputError, match="line"):
        parse_polytope_text('{"name": "t",\n  broken')


def test_load_polytope(tmp_path):
    f = tmp_path / "seg.json"
    f.write_text('{"name": "seg", "dim": 1, "vertices": [[0], ["3/2"]]}', encoding="utf-8")
    p = load_polytope(f)
    assert p.name == "seg" and p.nvertices == 2


# --- CLI exit codes ---

def test_cli_validate_ok(capsys):
    assert main(["validate", str(POLYTOPES / "triangle.json")]) == 0
    assert capsys.readouterr().out.strip() == "valid"


def test_cli_validate_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"name": "b", "dim": 2, '
                   '"vertices": [[0,0],[1,0],[0,1],["1/2","1/4"]]}', encoding="utf-8")
    assert main(["validate", str(bad)]) == 1
    assert "point 3 not extreme" in capsys.readouterr().err


def test_cli_compare_names_the_file_that_fails_validation(tmp_path, capsys):
    inner = tmp_path / "inner.json"
    inner.write_text('{"name": "i", "dim": 2, '
                     '"vertices": [[0,0],[1,0],[0,1],["1/4","1/4"]]}', encoding="utf-8")
    assert main(["compare", str(POLYTOPES / "triangle.json"), str(inner)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {inner}: point 3 not extreme")


def test_cli_validate_missing_file(capsys):
    assert main(["validate", "/nonexistent/poly.json"]) == 1
    assert "cannot read" in capsys.readouterr().err


def test_cli_report_non_utf8_file_is_input_error(tmp_path, capsys):
    # a Latin-1 name: the byte 0xe9 at offset 10 is not followed by the
    # continuation bytes UTF-8 needs after it
    bad = tmp_path / "latin1.json"
    bad.write_bytes(b'{"name": "\xe9", "dim": 1, "vertices": [[0], [1]]}')
    assert main(["report", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err == (f"error: {bad}: not UTF-8: byte 0xe9 at offset 10 "
                   "(invalid continuation byte)\n")


@pytest.mark.parametrize("flags", [[], ["--json"]])
def test_cli_report_lone_surrogate_name_is_input_error(tmp_path, capsys, flags):
    # the escape \ud800 decodes to a lone surrogate, valid JSON but no
    # UTF-8 text: the human report could not print it, and neither output
    # may take it
    bad = tmp_path / "surrogate.json"
    bad.write_text('{"name": "a\\ud800b", "dim": 1, "vertices": [[0], [1]]}', encoding="utf-8")
    assert main(["report", *flags, str(bad)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == (f"error: {bad}: name does not encode as UTF-8: character 1 "
                                 "is '\\ud800' (surrogates not allowed)\n")


def test_cli_report_injected_internal_error(monkeypatch, capsys):
    real = cellular.incidence_sign
    state = {"flipped": False}

    def sabotage(t, sigma, e, f):  # flips the first sign, on (empty face, vertex)
        s = real(t, sigma, e, f)
        if not state["flipped"]:
            state["flipped"] = True
            return -s
        return s

    monkeypatch.setattr(cellular, "incidence_sign", sabotage)
    rc = main(["report", str(POLYTOPES / "square.json")])
    assert rc == 2 and state["flipped"]
    err = capsys.readouterr().err
    assert "internal error" in err and "boundary squared nonzero at j=1" in err


def test_cli_unexpected_exception_is_internal_error(monkeypatch, capsys):
    def explode(a, b):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "is_isomorphic", explode)
    rc = main(["compare", str(POLYTOPES / "square.json"), str(POLYTOPES / "quadrilateral.json")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "internal error: compare: RecursionError: maximum recursion depth exceeded" in err
    assert "Traceback" not in err


def test_cli_broken_pipe_exits_quietly(capsys, tmp_path):
    class ClosedPipe:
        """A stdout whose reader has gone away, backed by a file descriptor of
        its own so that redirecting it touches nothing else."""

        def __init__(self):
            self.fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)

        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            pass

        def fileno(self):
            return self.fd

    pipe, saved = ClosedPipe(), sys.stdout
    sys.stdout = pipe
    try:
        rc = main(["compare", str(POLYTOPES / "square.json"), str(POLYTOPES / "quadrilateral.json")])
        assert os.path.samestat(os.fstat(pipe.fd), os.stat(os.devnull))
    finally:
        sys.stdout = saved
        os.close(pipe.fd)
    assert rc == 141
    assert capsys.readouterr().err == ""


def test_cli_compare_isomorphic(capsys):
    rc = main(["compare", str(POLYTOPES / "square.json"), str(POLYTOPES / "quadrilateral.json")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "isomorphic: 10 faces matched" in out


def test_cli_compare_not_isomorphic(capsys):
    rc = main(["compare", str(POLYTOPES / "cube.json"), str(POLYTOPES / "octahedron.json")])
    assert rc == 3
    assert "f-vector mismatch" in capsys.readouterr().out


def test_cli_compare_self_identity(capsys):
    rc = main(["compare", str(POLYTOPES / "cube.json"), str(POLYTOPES / "cube.json")])
    assert rc == 0


def test_cli_compare_cross7_with_unimodular_image(tmp_path, capsys):
    # 2,188 faces, more than the interpreter's recursion limit; the image is
    # x -> Ax + t with A unit upper bidiagonal (determinant 1), vertices reversed
    P = cross_polytope(7)
    image = [tuple(v[i] + (v[i + 1] if i < 6 else 0) + i - 3 for i in range(7))
             for v in reversed(P.vertices)]
    files = []
    for name, vertices in (("cross7", P.vertices), ("cross7_image", image)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(polytope_to_json(validate(vertices, name=name))))
        files.append(str(path))
    rc = main(["compare", *files])
    assert rc == 0
    assert "isomorphic: 2188 faces matched" in capsys.readouterr().out


# --- report content ---

def test_cli_report_cube_ktheory(capsys):
    assert main(["report", str(POLYTOPES / "cube.json"), "--ktheory"]) == 0
    out = capsys.readouterr().out
    assert "K_0(A_Omega) = 0" in out
    assert "K_1(A_Omega) = 0" in out
    assert "K_1(A_Omega/K) = Z" in out
    assert "K_0(A_Omega/K) = 0" in out


def test_cli_report_segment_boundary(capsys):
    assert main(["report", str(POLYTOPES / "segment.json"), "--boundary"]) == 0
    out = capsys.readouterr().out
    assert "D_0" in out and "D_1" in out
    assert "{0,1}" in out  # row labels by vertex sets


def test_cli_report_point_full(capsys):
    assert main(["report", str(POLYTOPES / "point.json")]) == 0
    out = capsys.readouterr().out
    assert "f-vector: [1, 1]" in out


# the human report of the square with every section, as the CLI printed it
# when it still formatted the pipeline result directly; only the elapsed
# line varies, and it is left out
SQUARE_HUMAN = """\
polytope square (dim 2, 4 vertices)
f-vector: [1, 4, 4, 1]
faces:
  dim -1: {}
  dim 0: {0} {1} {2} {3}
  dim 1: {0,1} {0,2} {1,3} {2,3}
  dim 2: {0,1,2,3}
boundary matrices:
  D_0 (rows: faces of dim -1, cols: faces of dim 0)
       {0} {1} {2} {3}
    {}   1   1   1   1
  D_1 (rows: faces of dim 0, cols: faces of dim 1)
         {0,1} {0,2} {1,3} {2,3}
     {0}    -1    -1     0     0
     {1}     1     0    -1     0
     {2}     0     1     0    -1
     {3}     0     0     1     1
  D_2 (rows: faces of dim 1, cols: faces of dim 2)
             {0,1,2,3}
       {0,1}         1
       {0,2}        -1
       {1,3}         1
       {2,3}        -1
homology:
  augmented: H_-1 = 0, H_0 = 0, H_1 = 0, H_2 = 0
  reduced:   H_0 = Z, H_1 = 0, H_2 = 0
k-theory:
  E^1 odd-row ranks (p = 1..4): [1, 4, 4, 1]
  K_0(A_Omega) = 0
  K_1(A_Omega) = 0
  K_0(A_Omega/K) = 0
  K_1(A_Omega/K) = Z
  - second page vanishes: K_0(A_Omega) = K_1(A_Omega) = 0
  - A_Omega is KK-contractible (K-theoretic verification)
  - reduced homology is Z concentrated in degree 0: K_1(A_Omega/K) = Z, K_0(A_Omega/K) = 0
  - A_Omega/K is KK-equivalent to C_0(R); the Z in K_1 is realized by the Fredholm index isomorphism
"""


def test_cli_report_square_human_transcript(capsys):
    args = ["report", str(POLYTOPES / "square.json"), "--faces", "--boundary", "--homology",
            "--ktheory"]
    assert main(args) == 0
    lines = capsys.readouterr().out.splitlines(keepends=True)
    assert re.fullmatch(r"elapsed: \d+\.\d{3} s\n", lines[-1])
    assert "".join(lines[:-1]) == SQUARE_HUMAN


# --- JSON determinism and round-trip ---

GOLDEN_CASES = ["segment", "triangle", "square", "cube"]
REPORT_FLAGS = ["--faces", "--boundary", "--homology", "--ktheory", "--json"]


def run_json_report(name, capsys):
    assert main(["report", str(POLYTOPES / f"{name}.json")] + REPORT_FLAGS) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("name", GOLDEN_CASES)
def test_json_reports_byte_identical_across_runs(name, capsys):
    first = run_json_report(name, capsys)
    second = run_json_report(name, capsys)
    assert first.encode("utf-8") == second.encode("utf-8")


@pytest.mark.parametrize("name", GOLDEN_CASES)
def test_json_reports_match_goldens(name, capsys):
    out = run_json_report(name, capsys)
    golden = (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
    assert out == golden


def test_make_goldens_check_names_differing_files(tmp_path, monkeypatch, capsys):
    # --check compares fresh reports with the goldens and writes nothing:
    # exit 0 on a byte-identical copy, 1 naming each file that differs
    spec = importlib.util.spec_from_file_location("make_goldens",
                                                  REPO / "scripts" / "make_goldens.py")
    make_goldens = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_goldens)
    for name in GOLDEN_CASES:
        (tmp_path / f"{name}.json").write_bytes((GOLDEN / f"{name}.json").read_bytes())
    monkeypatch.setattr(make_goldens, "GOLDEN_DIR", tmp_path)
    assert make_goldens.check() == 0
    assert capsys.readouterr().out == "all 4 goldens match\n"
    (tmp_path / "square.json").write_text("{}\n", encoding="utf-8")
    (tmp_path / "cube.json").unlink()
    assert make_goldens.check() == 1
    assert capsys.readouterr().out.splitlines() == [
        f"differs: {tmp_path / 'square.json'}", f"differs: {tmp_path / 'cube.json'}"]
    assert (tmp_path / "square.json").read_text(encoding="utf-8") == "{}\n"


def test_json_report_roundtrips_group_descriptors(capsys, pipelines):
    out = run_json_report("cube", capsys)
    doc = json.loads(out)
    kt = doc["ktheory"]
    rep = pipelines["cube"].report
    assert AbelianGroup.from_json(kt["K_A_Omega"]["K0"]) == rep.k_algebra[0]
    assert AbelianGroup.from_json(kt["K_A_Omega"]["K1"]) == rep.k_algebra[1]
    assert AbelianGroup.from_json(kt["K_A_Omega_mod_K"]["K0"]) == rep.k_quotient[0]
    assert AbelianGroup.from_json(kt["K_A_Omega_mod_K"]["K1"]) == rep.k_quotient[1]
    hom = doc["homology"]
    for entry in hom["augmented"]:
        g = pipelines["cube"].report.augmented_homology.group(entry["degree"])
        assert entry["free_rank"] == g.free_rank and tuple(entry["torsion"]) == g.invariant_factors
    assert doc["f_vector"] == list(pipelines["cube"].lattice.f_vector)


def test_json_vertices_echo_exactly(capsys):
    assert main(["report", str(POLYTOPES / "pentagon.json"), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["input"]["vertices"][2] == ["3", "3/2"]
    assert doc["input"]["vertices"][4] == ["-1/2", "3/2"]


# --- corpus command ---

def test_cli_corpus_human(capsys):
    rc = main(["corpus", str(POLYTOPES)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "cube.json: ok" in out


def test_cli_corpus_json(tmp_path, capsys):
    (tmp_path / "a.json").write_text(
        '{"name": "seg", "dim": 1, "vertices": [[0], [1]]}', encoding="utf-8")
    (tmp_path / "b.json").write_text(
        '{"name": "bad", "dim": 2, "vertices": [[0,0],[1,1],[2,2]]}', encoding="utf-8")
    rc = main(["corpus", str(tmp_path), "--json"])
    assert rc == 1  # worst per-file status: input error
    doc = json.loads(capsys.readouterr().out)
    assert doc["files"]["a.json"]["status"] == "ok"
    assert doc["files"]["b.json"]["status"] == "input-error"


def test_cli_corpus_json_carries_each_files_report(capsys):
    # corpus --json holds, per file, the document report --json prints
    # with no section flag: both take the default sections from one place
    assert main(["corpus", str(POLYTOPES), "--json"]) == 0
    files = json.loads(capsys.readouterr().out)["files"]
    assert sorted(files) == sorted(path.name for path in POLYTOPES.glob("*.json"))
    for name, entry in files.items():
        assert main(["report", str(POLYTOPES / name), "--json"]) == 0
        assert entry == {"status": "ok", "report": json.loads(capsys.readouterr().out)}, name


OVERSIZED = {
    # a vertices array nested 100,000 deep, past the JSON parser's recursion
    "deep.json": ('{"name": "deep", "dim": 1, "vertices": ' + "[" * 100_000 + "]" * 100_000 + "}",
                  r"nested too deeply to parse \(the JSON parser stops at the recursion "
                  rf"limit, {sys.getrecursionlimit()}\)"),
    # a 5,000-digit integer coordinate, and one as the denominator of "p/q"
    "bigint.json": ('{"name": "bigint", "dim": 1, "vertices": [[0], [' + "7" * 5000 + "]]}",
                    rf"integer with 5000 digits exceeds the limit of "
                    rf"{sys.get_int_max_str_digits()} digits"),
    "bigfrac.json": ('{"name": "bigfrac", "dim": 1, "vertices": [[0], ["1/' + "3" * 5000 + '"]]}',
                     rf"vertex 1, coordinate 0: integer with 5000 digits exceeds the limit "
                     rf"of {sys.get_int_max_str_digits()} digits"),
}


@pytest.mark.parametrize("name", sorted(OVERSIZED))
def test_cli_oversized_input_is_input_error(name, tmp_path, capsys):
    # exit 1 (bad input) with the file and the limit named, not exit 2
    text, message = OVERSIZED[name]
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    assert main(["report", str(path)]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(rf"error: {re.escape(str(path))}: {message}\n", err), err


def test_cli_corpus_lists_oversized_input_as_input_error(tmp_path, capsys):
    # the run goes on past each such file and reports every one
    for name, (text, _) in OVERSIZED.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    (tmp_path / "seg.json").write_text(
        '{"name": "seg", "dim": 1, "vertices": [[0], [1]]}', encoding="utf-8")
    assert main(["corpus", str(tmp_path), "--json"]) == 1
    files = json.loads(capsys.readouterr().out)["files"]
    assert files["seg.json"]["status"] == "ok"
    for name, (_, message) in OVERSIZED.items():
        assert files[name]["status"] == "input-error"
        assert re.search(message, files[name]["message"]), files[name]["message"]


MALFORMED = {
    "boolean-coordinate": ('{"name": "t", "dim": 1, "vertices": [[true], [1]]}',
                           "vertex 0, coordinate 0: boolean is not a coordinate"),
    "list-coordinate": ('{"name": "t", "dim": 1, "vertices": [[[0]], [1]]}',
                        'vertex 0, coordinate 0: coordinate must be an integer or "p/q" '
                        "string, got list"),
    "top-level-array": ('[[0], [1]]', "top level must be an object"),
    "name-not-string": ('{"name": 7, "dim": 1, "vertices": [[0], [1]]}',
                        "name must be a string"),
    "negative-dim": ('{"name": "t", "dim": -1, "vertices": [[0], [1]]}',
                     "dim must be a non-negative integer"),
    "boolean-dim": ('{"name": "t", "dim": true, "vertices": [[0], [1]]}',
                    "dim must be a non-negative integer"),
    "empty-vertices": ('{"name": "t", "dim": 1, "vertices": []}',
                       "vertices must be a non-empty array"),
    "object-vertices": ('{"name": "t", "dim": 1, "vertices": {"0": [0]}}',
                        "vertices must be a non-empty array"),
    "vertex-not-array": ('{"name": "t", "dim": 1, "vertices": [[0], 1]}',
                         "vertex 1 must be an array"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_cli_malformed_file_is_one_error_line(name, tmp_path, capsys):
    # exit 1, one "error:" line on stderr naming the file, nothing on stdout
    text, message = MALFORMED[name]
    path = tmp_path / f"{name}.json"
    path.write_text(text, encoding="utf-8")
    assert main(["report", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: {message}\n"


def test_cli_corpus_not_a_directory(tmp_path, capsys):
    path = tmp_path / "seg.json"
    path.write_text('{"name": "seg", "dim": 1, "vertices": [[0], [1]]}', encoding="utf-8")
    assert main(["corpus", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: not a directory: {path}\n"


def test_cli_compare_dimension_mismatch(capsys):
    rc = main(["compare", str(POLYTOPES / "point.json"), str(POLYTOPES / "segment.json")])
    assert rc == 3
    assert capsys.readouterr().out == "not isomorphic: dimension mismatch: 0 != 1\n"


def test_cli_corpus_empty_dir(tmp_path, capsys):
    assert main(["corpus", str(tmp_path)]) == 1
    assert "no *.json" in capsys.readouterr().err


def test_cli_corpus_lists_internal_error_and_goes_on(tmp_path, capsys, monkeypatch):
    # a file whose pipeline raises an internal error (injected here, as no
    # valid input does) is listed with its status and message, the run goes
    # on past it and past a malformed file, and the worst exit code, 2,
    # wins; the human report gives each failed file one line that names it
    # once, while --json keeps the message whole, path prefix and all
    files = {"seg.json": '{"name": "seg", "dim": 1, "vertices": [[0], [1]]}',
             "broken.json": '{"name": "broken", "dim": 1, "vertices": [[0], [2]]}',
             "malformed.json": '{"name": "t", "dim": 1, "vertices": [[0], 1]}'}
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    real = cli.run_pipeline

    def failing(P):
        if P.name == "broken":
            raise InternalInvariantError("injected fault")
        return real(P)

    monkeypatch.setattr(cli, "run_pipeline", failing)
    assert main(["corpus", str(tmp_path)]) == 2
    assert capsys.readouterr().out.splitlines() == [
        "broken.json: internal-error: injected fault",
        "malformed.json: input-error: vertex 1 must be an array",
        "seg.json: ok, f-vector [1, 2, 1]"]
    assert main(["corpus", str(tmp_path), "--json"]) == 2
    listed = json.loads(capsys.readouterr().out)["files"]
    assert listed["broken.json"] == {"status": "internal-error", "message": "injected fault"}
    assert listed["malformed.json"] == {
        "status": "input-error",
        "message": f"{tmp_path / 'malformed.json'}: vertex 1 must be an array"}
    assert listed["seg.json"]["status"] == "ok"
