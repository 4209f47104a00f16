import glob
import hashlib
import io
import json
import os

import pytest

from lietower import cli
from lietower.exprs import ParseError

FILES = os.path.join(os.path.dirname(__file__), "..", "demos", "files")

REMARK_TEXT = """\
kind: dgl

[generators]
x : 0
y : 0
z : 1

[differential]
d z = x - [y, x]
"""


def shipped_files():
    return sorted(glob.glob(os.path.join(FILES, "*")))


def test_parse_remark_document():
    doc = cli.parse(REMARK_TEXT)
    assert doc.kind == "dgl"
    assert doc.gens == [("x", 0), ("y", 0), ("z", 1)]
    P = doc.to_dgl()
    assert "z" in P.diff


def test_parse_rejects_empty_generators():
    with pytest.raises(ParseError) as err:
        cli.parse("kind: dgl\n[generators]\n")
    assert "no generators" in err.value.message


def test_parse_locates_syntax_errors():
    text = "kind: dgl\n[generators]\nx : 0\nz : 1\n[differential]\nd z = [x\n"
    with pytest.raises(ParseError) as err:
        cli.parse(text)
    assert err.value.line == 6


def test_parse_rejects_unknown_name():
    text = "kind: dgl\n[generators]\nx : 0\nz : 1\n[differential]\nd z = w\n"
    with pytest.raises(ParseError) as err:
        cli.parse(text)
    assert "unknown name" in err.value.message
    assert err.value.line == 6


def test_parse_rejects_duplicate_name():
    text = "kind: dgl\n[generators]\nx : 0\nx : 1\n"
    with pytest.raises(ParseError) as err:
        cli.parse(text)
    assert "duplicate" in err.value.message


def test_parse_rejects_unknown_section():
    with pytest.raises(ParseError):
        cli.parse("kind: dgl\n[generators]\nx : 0\n[brackets]\n")


def test_round_trip_on_shipped_files():
    assert len(shipped_files()) >= 5
    for path in shipped_files():
        with open(path) as fh:
            text = fh.read()
        doc = cli.parse(text)
        again = cli.parse(doc.pretty())
        assert doc == again, path
        assert cli.parse(again.pretty()) == again


def run_cli(args):
    import sys
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(args)
    return code, buf.getvalue()


def test_cli_validate_success():
    path = os.path.join(FILES, "stubborn_cycle.dgl")
    code, out = run_cli(["validate", path])
    assert code == 0
    assert "valid" in out


def test_cli_tower_remark():
    path = os.path.join(FILES, "stubborn_cycle.dgl")
    code, out = run_cli(
        ["tower", path, "--degrees", "0..1", "--tower", "2..6", "--max-length", "6"]
    )
    assert code == 0
    assert "dim H = 1" in out
    assert "reps: y" in out


def test_cli_tower_structured_deterministic():
    path = os.path.join(FILES, "stubborn_cycle.dgl")
    args = ["tower", path, "--degrees", "0..0", "--tower", "2..5", "--max-length", "5",
            "--format", "structured"]
    code1, out1 = run_cli(args)
    code2, out2 = run_cli(args)
    assert code1 == code2 == 0
    assert out1 == out2  # byte identical
    payload = json.loads(out1)
    rows = payload["reports"][0]["rows"]
    assert [r["dim_H"] for r in rows] == [1, 1, 1, 1]
    assert payload["reports"][0]["stabilized_from"] == 2
    assert set(rows[0]) == {"n", "dim_H", "dim_image", "representatives"}


@pytest.mark.parametrize(
    "degrees, max_length, digest",
    [
        ("0..2", 6, "cea6f1687b6bb699856706cca05708bf766e3df10527092bccc716cf7b31a2e3"),
        ("0..2", 7, "9afce4dc43974e6d14473b9adc7bb40064f3c0b697e825e22daaa99d752141c0"),
        ("1..1", 8, "f37c634e3c16157035338ae121c89064b7c8335efae6316e89555de389b8f780"),
    ],
)
def test_cli_tower_golden_stubborn_cycle(degrees, max_length, digest):
    # the benchmark's fixed tower requests (perfbench/references.json)
    path = os.path.join(FILES, "stubborn_cycle.dgl")
    code, out = run_cli(["tower", path, "--degrees", degrees, "--max-length", str(max_length),
                         "--format", "structured"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_cli_pronil_affine_fails():
    path = os.path.join(FILES, "affine_line.lietable")
    code, out = run_cli(["pronil", path])
    assert code == 0
    assert "fails" in out
    code, out = run_cli(["pronil", path, "--format", "structured"])
    payload = json.loads(out)
    assert payload["audit"]["combined"]["outcome"] == "fails"
    assert payload["audit"]["condition_a"]["outcome"] == "fails"
    assert payload["definitional"]["outcome"] == "fails"


def test_cli_pronil_heisenberg_holds():
    path = os.path.join(FILES, "heisenberg.lietable")
    code, out = run_cli(["pronil", path, "--format", "structured"])
    assert code == 0
    payload = json.loads(out)
    assert payload["audit"]["combined"]["outcome"] == "holds"


def test_cli_homology_rejects_degree0(tmp_path):
    path = os.path.join(FILES, "stubborn_cycle.dgl")
    code, out = run_cli(["homology", path])
    assert code == 2


def test_cli_homology_on_positive_degrees(tmp_path):
    text = "kind: dgl\n\n[generators]\nu1 : 1\nu3 : 3\n\n[differential]\nd u3 = [u1, u1]\n"
    p = tmp_path / "model.dgl"
    p.write_text(text)
    code, out = run_cli(["homology", str(p), "--degrees", "1..4", "--format", "structured"])
    assert code == 0
    payload = json.loads(out)
    assert [r["dim_H"] for r in payload["rows"]] == [1, 0, 0, 1]


def test_cli_neisendorfer_heisenberg():
    path = os.path.join(FILES, "heisenberg.sullivan")
    code, out = run_cli(
        ["neisendorfer", path, "--degrees", "0..0", "--tower", "4..8",
         "--max-length", "8", "--max-degree", "3", "--format", "structured"]
    )
    assert code == 0
    payload = json.loads(out)
    rows = payload["reports"][0]["rows"]
    assert [r["dim_H"] for r in rows] == [3, 3, 3, 3, 3]
    assert payload["audit"]["combined"]["outcome"] == "holds"
    # the emitted model is itself a parseable dgl document
    model_doc = cli.parse(payload["model"])
    assert model_doc.kind == "dgl"
    assert cli.parse(model_doc.pretty()) == model_doc


def test_cli_duality_sphere():
    path = os.path.join(FILES, "even_sphere.sullivan")
    code, out = run_cli(["duality", path, "--max-degree", "6", "--max-length", "3"])
    assert code == 0
    assert "ok" in out


def test_cli_lemma2_sphere():
    path = os.path.join(FILES, "even_sphere.sullivan")
    code, out = run_cli(["lemma2", path, "--degrees", "1..4", "--format", "structured"])
    assert code == 0
    payload = json.loads(out)
    assert [r["dim_H"] for r in payload["report"]["rows"]] == [1, 1, 0, 0]


def test_cli_boundary_remark():
    path = os.path.join(FILES, "stubborn_cycle.dgl")
    code, out = run_cli(
        ["boundary", path, "--target", "x", "--max-length", "6",
         "--certify-lengths", "1..5", "--format", "structured"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["status"] == "SAT"
    assert payload["no_witness_within_bound"] is True
    code, out = run_cli(["boundary", path, "--target", "x", "--max-length", "6", "--exact"])
    assert code == 0
    assert "UNSAT" in out


def test_cli_validate_coalgebra():
    path = os.path.join(FILES, "projective_plane.coalgebra")
    code, out = run_cli(["validate", path])
    assert code == 0


def test_cli_parse_error_exit_code(tmp_path):
    p = tmp_path / "broken.dgl"
    p.write_text("kind: dgl\n[generators]\nx 0\n")
    code, out = run_cli(["validate", str(p)])
    assert code == 2


def test_cli_invalid_dgl_exit_code(tmp_path):
    p = tmp_path / "bad.dgl"
    p.write_text("kind: dgl\n[generators]\ny : 1\nz : 1\n[differential]\nd z = y\n")
    code, out = run_cli(["validate", str(p)])
    assert code == 2


def test_cli_out_flag(tmp_path):
    path = os.path.join(FILES, "affine_line.lietable")
    target = tmp_path / "report.json"
    code, _ = run_cli(["pronil", path, "--format", "structured", "--out", str(target)])
    assert code == 0
    payload = json.loads(target.read_text())
    assert payload["command"] == "pronil"


def test_document_pretty_is_canonical():
    doc = cli.parse(REMARK_TEXT)
    assert doc.pretty() == cli.parse(doc.pretty()).pretty()


@pytest.mark.parametrize(
    "args",
    [
        ["tower", "--degrees", "a..b"],
        ["tower", "--tower", "x..3"],
        ["boundary", "--target", "x", "--certify-lengths", "1..q"],
    ],
)
def test_cli_non_integer_range_exit_code(args, capsys):
    path = os.path.join(FILES, "stubborn_cycle.dgl")
    code, out = run_cli([args[0], path, *args[1:]])
    assert code == 2
    assert out == ""
    assert "range" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args, digest",
    [
        (["--certify-lengths", "1..5", "--format", "structured"],
         "78b9bfeff9e97699dd4a98ead99dd5fd52a45f1dd8d3397d09d5b6780098a214"),
        (["--exact"], "2808fa82850ac51f899614b56fa60d6224e310fc51eff9f32046bdf8429f1e56"),
    ],
)
def test_cli_boundary_golden_stubborn_cycle(args, digest):
    # the outputs of test_cli_boundary_remark, byte for byte
    path = os.path.join(FILES, "stubborn_cycle.dgl")
    code, out = run_cli(["boundary", path, "--target", "x", "--max-length", "6", *args])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_cli_negative_generator_degree_exit_code(tmp_path, capsys):
    p = tmp_path / "negative.dgl"
    p.write_text("kind: dgl\n[generators]\nx : -1\n")
    code, out = run_cli(["validate", str(p)])
    assert code == 2
    assert out == ""
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "negative degree -1 for 'x'" in err


def test_cli_wrongly_graded_bracket_exit_code(tmp_path, capsys):
    p = tmp_path / "graded.lietable"
    p.write_text("kind: lie-table\n[generators]\na : 0\nb : 1\nc : 0\n[brackets]\n[a, b] = c\n")
    code, out = run_cli(["pronil", str(p)])
    assert code == 2
    assert out == "error: bracket [a, b] has a component of degree 0, expected 1\n"
    assert capsys.readouterr().err == ""


def test_cli_boundary_target_named_window_exit_code():
    # a parse error whose text mentions "window" is still a parse error
    path = os.path.join(FILES, "stubborn_cycle.dgl")
    code, out = run_cli(["boundary", path, "--target", "window"])
    assert code == 2
    assert out == "error: 1:1: unknown name 'window'\n"


def test_cli_exact_boundary_beyond_coordinate_bound_exit_code():
    path = os.path.join(FILES, "stubborn_cycle.dgl")
    code, out = run_cli(["boundary", path, "--target", "[y,[y,[y,[y,[y,[y,[y,x]]]]]]]",
                         "--exact", "--max-length", "3"])
    assert code == 3
    assert out == "window insufficient: word length 8 exceeds coordinate bound 3\n"


def test_cli_exit_3_is_chosen_by_error_type(monkeypatch):
    from lietower.functors import FunctorError, WindowError

    def raising(err):
        def cmd(doc, cfg):
            raise err
        return cmd

    path = os.path.join(FILES, "stubborn_cycle.dgl")
    too_small = WindowError("window too small to close the differential")
    monkeypatch.setitem(cli.DISPATCH, "validate", raising(too_small))
    assert run_cli(["validate", path])[0] == 3
    monkeypatch.setitem(cli.DISPATCH, "validate", raising(FunctorError("no window involved")))
    assert run_cli(["validate", path]) == (2, "error: no window involved\n")


def test_cli_exit_4_on_a_linalg_or_name_error(monkeypatch):
    from lietower.freelie import NameError_
    from lietower.linalg import NotAComplexError

    path = os.path.join(FILES, "stubborn_cycle.dgl")
    for err in (NotAComplexError("composite differential is nonzero"), NameError_("unknown generator 'q'")):
        def cmd(doc, cfg, err=err):
            raise err
        monkeypatch.setitem(cli.DISPATCH, "tower", cmd)
        assert run_cli(["tower", path]) == (4, f"internal invariant breach: {err}\n")


def test_cli_boundary_validates_its_presentation(tmp_path, capsys):
    # d y = [x, x] has degree 2, not 1: the solver never sees it
    p = tmp_path / "wrong_degree.dgl"
    p.write_text("kind: dgl\n[generators]\nx : 1\ny : 2\n[differential]\nd y = [x, x]\n")
    code, out = run_cli(["boundary", str(p), "--target", "[x,x]", "--exact"])
    assert code == 2
    assert out.startswith("input fails validation:\nINVALID\n  [degree] d(y): component of degree 2")
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "flag, value, least", [("--max-length", "1", 2), ("--max-degree", "0", 1), ("--stab-suffix", "0", 1)]
)
def test_cli_bound_below_its_least_value_names_the_option(flag, value, least, capsys):
    path = os.path.join(FILES, "stubborn_cycle.dgl")
    code, out = run_cli(["tower", path, flag, value])
    assert code == 2
    assert out == ""
    assert capsys.readouterr().err == f"parse error at 0:0: {flag} must be >= {least}, got {value}\n"


@pytest.mark.parametrize("lengths", ["0..2", "3..1"])
def test_cli_certify_lengths_outside_range_exit_code(lengths, capsys):
    path = os.path.join(FILES, "stubborn_cycle.dgl")
    code, out = run_cli(["boundary", path, "--target", "x", "--certify-lengths", lengths])
    assert code == 2
    assert out == ""
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "certify-lengths range" in err and "1 <= A <= B" in err


def test_cli_boundary_mixed_degree_target_exit_code(tmp_path):
    p = tmp_path / "two_degrees.dgl"
    p.write_text("kind: dgl\n[generators]\nx : 0\nw : 2\n")
    code, out = run_cli(["boundary", str(p), "--target", "x+w"])
    assert code == 2
    assert out == "error: target is not degree-homogeneous: degrees [0, 2]\n"


def test_cli_out_to_missing_directory_exit_code(tmp_path, capsys):
    path = os.path.join(FILES, "stubborn_cycle.dgl")
    code, out = run_cli(["validate", path, "--out", str(tmp_path / "missing" / "report.txt")])
    assert code == 2
    assert out == ""
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("cannot write output: ")


@pytest.mark.parametrize(
    "command, name, degrees",
    [
        ("tower", "stubborn_cycle.dgl", "2..1"),
        ("homology", "stubborn_cycle.dgl", "3..2"),
        ("lemma2", "even_sphere.sullivan", "3..2"),
    ],
)
def test_cli_empty_degree_range_exit_code(command, name, degrees, capsys):
    code, out = run_cli([command, os.path.join(FILES, name), "--degrees", degrees])
    assert code == 2
    assert out == ""
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "degree range" in err and "needs A <= B" in err


def test_cli_lemma2_without_positive_degree_exit_code():
    # lemma2 starts at degree 1, so 0..0 checks nothing and must not report "ok"
    path = os.path.join(FILES, "even_sphere.sullivan")
    code, out = run_cli(["lemma2", path, "--degrees", "0..0"])
    assert code == 2
    assert out == "error: 0:0: lemma2 needs a degree >= 1 in --degrees, got (0, 0)\n"


def test_cli_validate_rejects_a_differential_of_the_wrong_degree(tmp_path, capsys):
    p = tmp_path / "graded.sullivan"
    p.write_text(
        "kind: sullivan\n[generators]\na : 1\nb : 2\nc : 1\nw : 10\n"
        "[differential]\nd a = w * c\nd w = b * b\n"
    )
    code, out = run_cli(["validate", str(p)])
    assert code == 2
    assert out == "error: d a has a component of degree 11, expected 2\n"
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("name", sorted(os.listdir(FILES)))
@pytest.mark.parametrize("command", cli.COMMANDS)
def test_cli_exit_code_contract_on_shipped_files(command, name):
    # the README promises exit 0, 2, 3 or 4 for every input; an uncaught
    # exception fails the test as exit 1 would
    code, _ = run_cli([command, os.path.join(FILES, name)])
    assert code in (0, 2, 3, 4)
