import io
import json

import pytest

from triaut.cli import run

TOWER_MAP = "n=3\nx1 -> x1\nx2 -> x2 + x1^2\nx3 -> x3 + x2^2\n"
TOWER_SQUARE = ("n=3\nx1 -> x1\nx2 -> x2 + 2*x1^2\n"
                "x3 -> x3 + 2*x2^2 + 2*x1^2*x2 + x1^4\n")
HEISENBERG = "n=2\ndx1 <- 1\ndx2 <- 0\n\nn=2\ndx1 <- 0\ndx2 <- x1\n"
SHEAR_FLOW = "n=2\ndx1 <- 0\ndx2 <- x1\n"


def invoke(argv, stdin_text=None, monkeypatch=None):
    out, err = io.StringIO(), io.StringIO()
    if stdin_text is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    code = run(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def phi_file(tmp_path):
    path = tmp_path / "phi.aut"
    path.write_text(TOWER_MAP)
    return str(path)


@pytest.fixture
def heis_file(tmp_path):
    path = tmp_path / "heis.der"
    path.write_text(HEISENBERG)
    return str(path)


@pytest.fixture
def flow_file(tmp_path):
    path = tmp_path / "flow.der"
    path.write_text(SHEAR_FLOW)
    return str(path)


def test_power_prints_the_degree_four_square(phi_file):
    code, out, err = invoke(["power", phi_file, "2"])
    assert code == 0 and err == ""
    assert out == TOWER_SQUARE


def test_compose_with_identity(tmp_path, phi_file):
    ident = tmp_path / "id.aut"
    ident.write_text("n=3\nx1 -> x1\nx2 -> x2\nx3 -> x3\n")
    code, out, _ = invoke(["compose", str(ident), phi_file])
    assert code == 0
    assert out == TOWER_MAP


def test_invert_reads_stdin(monkeypatch):
    code, out, _ = invoke(["invert", "-"], stdin_text="n=2\nx1 -> x1\nx2 -> x2 + x1^2\n",
                          monkeypatch=monkeypatch)
    assert code == 0
    assert out == "n=2\nx1 -> x1\nx2 -> x2 - x1^2\n"


def test_commutator_of_map_with_itself_is_identity(phi_file):
    code, out, _ = invoke(["commutator", phi_file, phi_file])
    assert code == 0
    assert out == "n=3\nx1 -> x1\nx2 -> x2\nx3 -> x3\n"


def test_factor_lists_the_two_shears(phi_file):
    code, out, _ = invoke(["factor", phi_file])
    assert code == 0
    blocks = [b for b in out.split("\n\n") if b.strip()]
    assert len(blocks) == 2


def test_factor_of_identity_is_empty(tmp_path):
    ident = tmp_path / "id.aut"
    ident.write_text("n=2\nx1 -> x1\nx2 -> x2\n")
    code, out, _ = invoke(["factor", str(ident)])
    assert code == 0
    assert "empty factorization" in out
    code, out, _ = invoke(["factor", str(ident), "--json"])
    assert json.loads(out)["result"] == {"factors": [], "count": 0}


def test_compose_dimension_mismatch_is_exit_two(tmp_path, phi_file):
    small = tmp_path / "small.aut"
    small.write_text("n=2\nx1 -> x1\nx2 -> x2\n")
    code, _, err = invoke(["compose", str(small), phi_file])
    assert code == 2
    assert "mismatch" in err


def test_closure_accepts_multiple_files(tmp_path):
    first = tmp_path / "a.der"
    first.write_text("n=2\ndx1 <- 1\ndx2 <- 0\n")
    second = tmp_path / "b.der"
    second.write_text("n=2\ndx1 <- 0\ndx2 <- x1\n")
    code, out, _ = invoke(["closure", str(first), str(second)])
    assert code == 0
    assert "dimension: 3" in out


def test_exp_command(flow_file):
    code, out, _ = invoke(["exp", flow_file, "1/2"])
    assert code == 0
    assert out == "n=2\nx1 -> x1\nx2 -> 1/2*x1 + x2\n"


def test_bracket_command(tmp_path, flow_file):
    ddx1 = tmp_path / "ddx1.der"
    ddx1.write_text("n=2\ndx1 <- 1\ndx2 <- 0\n")
    code, out, _ = invoke(["bracket", str(ddx1), flow_file])
    assert code == 0
    assert out == "n=2\ndx1 <- 0\ndx2 <- 1\n"


def test_closure_reports_heisenberg(heis_file):
    code, out, _ = invoke(["closure", heis_file])
    assert code == 0
    assert "dimension: 3" in out
    assert "nilpotency class: 2" in out
    assert "lower central series: [3, 1, 0]" in out


def test_closure_json_schema(heis_file):
    code, out, _ = invoke(["closure", heis_file, "--json"])
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"command", "inputs", "result", "diagnostics"}
    assert payload["result"]["dimension"] == 3
    assert payload["diagnostics"] == []


def test_fuzz_degree_json_is_seed_deterministic():
    argv = ["fuzz-degree", "2", "2", "--trials", "80", "--seed", "11", "--json"]
    code1, out1, _ = invoke(argv)
    code2, out2, _ = invoke(argv)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["result"]["bound"] == 2
    assert payload["result"]["max_degree"] <= 2


def test_derived_depth_command():
    code, out, _ = invoke(["derived-depth", "2", "3", "--trials", "5", "--seed", "1"])
    assert code == 0
    assert "5 iterated" in out


def test_unipotent_test_command(heis_file):
    code, out, _ = invoke(["unipotent-test", heis_file, "--trials", "20",
                           "--word-len", "4", "--seed", "2"])
    assert code == 0
    assert "all unitriangular" in out


def test_counterexample_command():
    code, out, _ = invoke(["counterexample", "1", "0", "--word-len", "6"])
    assert code == 0
    assert "[-3, -2, -1, 0, 1, 2, 3]" in out


def test_missing_file_is_exit_two():
    code, _, err = invoke(["invert", "/nonexistent/file.aut"])
    assert code == 2
    assert "error" in err


def test_triangularity_violation_is_exit_two(tmp_path):
    bad = tmp_path / "bad.aut"
    bad.write_text("n=2\nx1 -> x1\nx2 -> x2 + x2^2\n")
    code, _, err = invoke(["invert", str(bad)])
    assert code == 2
    assert "coordinate 2" in err


def test_degenerate_counterexample_is_exit_two():
    code, _, err = invoke(["counterexample", "1", "1"])
    assert code == 2


def test_property_violation_is_exit_one(heis_file):
    # an unreachable closure cap converts the guaranteed-terminating
    # saturation into a reportable property failure
    code, _, err = invoke(["closure", heis_file, "--cap", "0"])
    assert code == 1
    assert "property violation" in err


def test_json_error_payload_keeps_schema(tmp_path):
    bad = tmp_path / "bad.aut"
    bad.write_text("garbage")
    code, out, _ = invoke(["invert", str(bad), "--json"])
    assert code == 2
    payload = json.loads(out)
    assert set(payload) == {"command", "inputs", "result", "diagnostics"}
    assert payload["result"] is None
    assert payload["diagnostics"]


def test_usage_error_is_exit_two():
    code, _, _ = invoke(["compose"])  # missing operands
    assert code == 2
    code, _, _ = invoke(["no-such-command"])
    assert code == 2


def test_help_exits_zero():
    code, _, _ = invoke(["--help"])
    assert code == 0


def _json_header(argv):
    code, out, _ = invoke(argv[:1] + ["--json"] + argv[1:])
    assert code == 0
    payload = json.loads(out)
    return payload["command"], payload["inputs"]


def test_json_command_and_inputs_are_pinned_for_every_subcommand(
        tmp_path, phi_file, heis_file, flow_file):
    ddx1 = tmp_path / "ddx1.der"
    ddx1.write_text("n=2\ndx1 <- 1\ndx2 <- 0\n")
    ddx1 = str(ddx1)

    def named(*pairs):
        return [{"name": name, "value": value} for name, value in pairs]

    cases = [
        (["compose", phi_file, phi_file],
         named(("outer", phi_file), ("inner", phi_file))),
        (["invert", phi_file], named(("automorphism", phi_file))),
        (["power", phi_file, "3"], named(("automorphism", phi_file), ("k", 3))),
        (["commutator", phi_file, phi_file],
         named(("phi", phi_file), ("psi", phi_file))),
        (["factor", phi_file], named(("automorphism", phi_file))),
        (["exp", flow_file, "2/4"], named(("derivation", flow_file), ("s", "1/2"))),
        (["bracket", ddx1, flow_file], named(("first", ddx1), ("second", flow_file))),
        (["closure", "--cap", "7", heis_file, ddx1],
         named(("derivations", heis_file), ("derivations", ddx1))),
        (["fuzz-degree", "2", "3", "--trials", "4", "--word-len", "2", "--seed", "9"],
         named(("n", 2), ("m", 3), ("word_len", 2), ("trials", 4), ("seed", 9))),
        (["fuzz-degree", "1", "1"],
         named(("n", 1), ("m", 1), ("word_len", 8), ("trials", 1000), ("seed", 0))),
        (["derived-depth", "2", "1", "--trials", "3", "--seed", "5"],
         named(("n", 2), ("depth", 1), ("trials", 3), ("seed", 5))),
        (["unipotent-test", heis_file, flow_file, "--trials", "3", "--word-len", "2",
          "--seed", "4"],
         named(("derivations", heis_file), ("derivations", flow_file),
               ("word_len", 2), ("trials", 3), ("seed", 4))),
        (["counterexample", "--word-len", "4", "--", "-1/2", "6/2"],
         named(("a", "-1/2"), ("b", "3"), ("word_len", 4))),
    ]
    seen = set()
    for argv, inputs in cases:
        assert _json_header(argv) == (argv[0], inputs)
        seen.add(argv[0])
    assert len(seen) == 12
