import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest

from triaut import cli
from triaut.cli import run
from triaut.errors import PropertyViolation
from triaut.parsing import parse_automorphism

TOWER_MAP = "n=3\nx1 -> x1\nx2 -> x2 + x1^2\nx3 -> x3 + x2^2\n"
TOWER_SQUARE = ("n=3\nx1 -> x1\nx2 -> x2 + 2*x1^2\n"
                "x3 -> x3 + 2*x2^2 + 2*x1^2*x2 + x1^4\n")
HEISENBERG = "n=2\ndx1 <- 1\ndx2 <- 0\n\nn=2\ndx1 <- 0\ndx2 <- x1\n"
SHEAR_FLOW = "n=2\ndx1 <- 0\ndx2 <- x1\n"


def invoke(argv, stdin_text=None):
    out, err = io.StringIO(), io.StringIO()
    stdin = None if stdin_text is None else io.StringIO(stdin_text)
    code = run(argv, stdout=out, stderr=err, stdin=stdin)
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


@pytest.fixture
def ddx1_file(tmp_path):
    path = tmp_path / "ddx1.der"
    path.write_text("n=2\ndx1 <- 1\ndx2 <- 0\n")
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


def test_invert_reads_stdin():
    code, out, _ = invoke(["invert", "-"], stdin_text="n=2\nx1 -> x1\nx2 -> x2 + x1^2\n")
    assert code == 0
    assert out == "n=2\nx1 -> x1\nx2 -> x2 - x1^2\n"


def test_every_dash_operand_of_a_call_reads_the_same_stdin():
    # stdin is read once per call: `compose - -` squares the map on stdin
    square = invoke(["compose", "-", "-"], stdin_text=TOWER_MAP)
    assert square == invoke(["power", "-", "2"], stdin_text=TOWER_MAP) == (0, TOWER_SQUARE, "")
    code, out, _ = invoke(["closure", "-", "-", "--json"], stdin_text=SHEAR_FLOW)
    assert code == 0
    assert json.loads(out)["inputs"] == named(("derivations", "-"), ("derivations", "-"))


def test_each_call_reads_its_own_stdin_with_one_parser(monkeypatch):
    monkeypatch.setattr("sys.stdin", None)  # the process stdin must not be touched
    cli._parser()
    built = cli._parser.cache_info().misses
    for k, expected in ((1, "x2 + x1^2"), (3, "x2 + 3*x1^2")):
        code, out, _ = invoke(["power", "-", str(k)], stdin_text=TOWER_MAP)
        assert code == 0
        assert f"x2 -> {expected}\n" in out
    assert cli._parser.cache_info().misses == built


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


def test_exp_rejects_a_parameter_that_is_not_a_rational(flow_file):
    code, out, err = invoke(["exp", flow_file, "--", "abc"])
    assert code == 2 and out == ""
    assert err.endswith("triaut exp: error: argument s: not an exact rational: 'abc'\n")


def test_exp_takes_a_parameter_past_the_int_str_digit_limit(flow_file):
    s = "1/" + "3" * 5000
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    code, out, err = invoke(["exp", "--json", flow_file, "--", s])
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["inputs"] == [{"name": "derivation", "value": flow_file},
                             {"name": "s", "value": s}]
    assert doc["result"]["automorphism"] == f"n=2\nx1 -> x1\nx2 -> {s}*x1 + x2\n"
    assert invoke(["exp", flow_file, "--", "-" + "7" * 5000])[:2] == \
        (0, f"n=2\nx1 -> x1\nx2 -> -{'7' * 5000}*x1 + x2\n")
    if limit is not None:
        assert sys.get_int_max_str_digits() == limit


def test_results_past_the_int_str_digit_limit_exit_zero(tmp_path):
    # the square's tails hold integers of up to 9,000 digits
    sevens = "7" * 3000
    path = tmp_path / "big.aut"
    path.write_text(f"n=2\nx1 -> x1 + {sevens}\nx2 -> x2 + {sevens}*x1^2\n")
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    code, out, err = invoke(["compose", str(path), str(path)])
    assert (code, err) == (0, "")
    assert len(out) == 21045
    assert invoke(["invert", "-"], stdin_text=out)[0] == 0
    assert parse_automorphism(out).to_text() == out
    if limit is not None:
        assert sys.get_int_max_str_digits() == limit


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


@pytest.mark.parametrize("tail", ["x1^65536", "x1^40000*x1^40000"])
def test_exponent_beyond_the_limit_is_exit_two(tmp_path, tail):
    bad = tmp_path / "big.aut"
    bad.write_text(f"n=2\nx1 -> x1\nx2 -> x2 + {tail}\n")
    code, out, err = invoke(["invert", str(bad)])
    assert code == 2 and out == ""
    assert "2**16" in err


def test_degenerate_counterexample_is_exit_two():
    code, _, err = invoke(["counterexample", "1", "1"])
    assert code == 2


def test_property_violation_is_exit_one(heis_file, monkeypatch):
    # a falsified property, and only that, is exit 1; there is no user-set
    # closure cap, so --cap is a usage error
    code, _, err = invoke(["closure", heis_file, "--cap", "0"])
    assert code == 2
    assert "unrecognized arguments: --cap 0" in err

    def falsified(generators):
        raise PropertyViolation("closure still growing")

    monkeypatch.setattr(cli, "lie_closure", falsified)
    code, _, err = invoke(["closure", heis_file])
    assert code == 1
    assert err == "property violation: closure still growing\n"
    code, out, _ = invoke(["closure", heis_file, "--json"])
    assert code == 1
    assert json.loads(out) == {"command": "closure", "inputs": [], "result": None,
                               "diagnostics": ["closure still growing"]}


def test_closure_runs_past_fifty_rounds_on_valid_input(tmp_path):
    # {d/dx1, x1^60 d/dx2} closes after 61 rounds, in dimension 62
    gens = tmp_path / "deep.der"
    gens.write_text("n=2\ndx1 <- 1\ndx2 <- 0\n\nn=2\ndx1 <- 0\ndx2 <- x1^60\n")
    code, out, _ = invoke(["closure", str(gens), "--json"])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["dimension"] == 62
    assert result["nilpotency_class"] == 61


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


def named(*pairs):
    return [{"name": name, "value": value} for name, value in pairs]


def _every_subcommand(ddx1, phi_file, heis_file, flow_file):
    """(argv, echoed inputs) pairs covering all 12 subcommands; the
    harness commands run with non-default flags first, then with none."""
    return [
        (["compose", phi_file, phi_file],
         named(("outer", phi_file), ("inner", phi_file))),
        (["invert", phi_file], named(("automorphism", phi_file))),
        (["power", phi_file, "3"], named(("automorphism", phi_file), ("k", 3))),
        (["commutator", phi_file, phi_file],
         named(("phi", phi_file), ("psi", phi_file))),
        (["factor", phi_file], named(("automorphism", phi_file))),
        (["exp", flow_file, "2/4"], named(("derivation", flow_file), ("s", "1/2"))),
        (["bracket", ddx1, flow_file], named(("first", ddx1), ("second", flow_file))),
        (["closure", heis_file, ddx1],
         named(("derivations", heis_file), ("derivations", ddx1))),
        (["fuzz-degree", "2", "3", "--trials", "4", "--word-len", "2", "--seed", "9"],
         named(("n", 2), ("m", 3), ("word_len", 2), ("trials", 4), ("seed", 9))),
        (["fuzz-degree", "1", "1"],
         named(("n", 1), ("m", 1), ("word_len", 8), ("trials", 1000), ("seed", 0))),
        (["derived-depth", "2", "1", "--trials", "3", "--seed", "5"],
         named(("n", 2), ("depth", 1), ("trials", 3), ("seed", 5))),
        (["derived-depth", "2", "1"],
         named(("n", 2), ("depth", 1), ("trials", 50), ("seed", 0))),
        (["unipotent-test", heis_file, flow_file, "--trials", "3", "--word-len", "2",
          "--seed", "4"],
         named(("derivations", heis_file), ("derivations", flow_file),
                ("word_len", 2), ("trials", 3), ("seed", 4))),
        (["counterexample", "--word-len", "4", "--", "-1/2", "6/2"],
         named(("a", "-1/2"), ("b", "3"), ("word_len", 4))),
    ]


def test_json_command_and_inputs_are_pinned_for_every_subcommand(
        ddx1_file, phi_file, heis_file, flow_file):
    seen = set()
    for argv, inputs in _every_subcommand(ddx1_file, phi_file, heis_file, flow_file):
        assert _json_header(argv) == (argv[0], inputs)
        seen.add(argv[0])
    assert len(seen) == 12


COMPOSE_USAGE = ("usage: triaut compose [-h] [--json] outer inner\n"
                 "triaut compose: error: the following arguments are required: outer, inner\n")


def test_usage_error_text_goes_to_the_given_stderr(capsys):
    code, out, err = invoke(["compose"])
    assert (code, out, err) == (2, "", COMPOSE_USAGE)
    code, out, err = invoke(["power", "phi.aut", "two"])
    assert code == 2 and out == ""
    assert err.endswith("triaut power: error: argument k: invalid int value: 'two'\n")
    assert capsys.readouterr() == ("", "")


def test_help_text_goes_to_the_given_stdout(capsys):
    code, out, err = invoke(["--help"])
    assert code == 0 and err == ""
    assert out.startswith("usage: triaut [-h]")
    assert all(name in out for name in ("compose", "derived-depth", "counterexample"))
    code, out, _ = invoke(["fuzz-degree", "--help"])
    assert code == 0 and "number of sampled trials (default 1000)" in out
    assert capsys.readouterr() == ("", "")


def test_json_usage_error_keeps_schema():
    code, out, err = invoke(["compose", "--json"])
    assert code == 2 and err == COMPOSE_USAGE
    assert json.loads(out) == {
        "command": "compose", "inputs": [], "result": None,
        "diagnostics": ["the following arguments are required: outer, inner"]}
    code, out, _ = invoke(["no-such-command", "--json"])
    payload = json.loads(out)
    assert code == 2 and payload["command"] is None and payload["result"] is None
    assert payload["diagnostics"][0].startswith("argument command: invalid choice")
    # argparse reads a prefix of --json of 3 or more characters as the flag
    for flag in ("--js", "--j"):
        code, out, err = invoke(["compose", "a.aut", flag])
        assert code == 2 and err.endswith("required: inner\n")
        assert json.loads(out) == {
            "command": "compose", "inputs": [], "result": None,
            "diagnostics": ["the following arguments are required: inner"]}
    # ... also in the "=VALUE" form, which it refuses for a switch
    for flag in ("--json=1", "--js=1"):
        code, out, err = invoke(["compose", "a.aut", "b.aut", flag])
        message = "argument --json: ignored explicit argument '1'"
        assert code == 2 and err.endswith(f"triaut compose: error: {message}\n")
        assert json.loads(out) == {
            "command": "compose", "inputs": [], "result": None, "diagnostics": [message]}
    # after '--', "--json" is an operand, not the flag; "--" itself is no
    # prefix, also before "=" (argparse finds "--=1" ambiguous)
    for argv in (["compose", "--", "--json"], ["compose", "--"],
                 ["compose", "a.aut", "b.aut", "--=1"]):
        code, out, _ = invoke(argv)
        assert (code, out) == (2, "")


@pytest.mark.parametrize("argv, name", [
    (["compose", "-", "--", "--"], "inner"),
    (["power", "-", "--", "--"], "k"),
    (["exp", "-", "--", "--"], "s"),
    (["counterexample", "--", "1/2", "--"], "b"),
])
def test_an_operand_argparse_leaves_empty_is_a_usage_error(argv, name):
    # argparse drops a second "--" from the operand that consumed it and
    # hands the handler a list; a release that keeps it reads a file "--"
    for json_flag in ([], ["--json"]):
        code, out, err = invoke(argv[:1] + json_flag + argv[1:], TOWER_MAP)
        assert code == 2 and "Traceback" not in err
        usage = f"triaut {argv[0]}: error: argument {name}: expected one argument\n"
        if err.endswith(usage):
            assert err.startswith(f"usage: triaut {argv[0]} ")
            diagnostics = [usage.partition("error: ")[2].rstrip("\n")]
        else:
            assert err.startswith("error: ") and "'--'" in err
            diagnostics = [err[len("error: "):].rstrip("\n")]
        if json_flag:
            assert json.loads(out) == {"command": argv[0], "inputs": [], "result": None,
                                       "diagnostics": diagnostics}
        else:
            assert out == ""


def test_file_operands_read_the_same_with_any_line_ends(tmp_path):
    # "\r\n" and "\r" read as "\n", also where an error shows its column
    for body in (TOWER_MAP, "n=1\nx1 -> x1 + $\n"):
        for end in ("\r\n", "\r"):
            plain, other = tmp_path / "plain.aut", tmp_path / "other.aut"
            plain.write_bytes(body.encode())
            other.write_bytes(body.replace("\n", end).encode())
            assert invoke(["invert", str(other)]) == invoke(["invert", str(plain)])
    bad = tmp_path / "bad.aut"
    bad.write_bytes(b"n=1\r\nx1 -> x1 \xff\r\n")
    code, out, err = invoke(["invert", str(bad)])
    assert (code, out) == (2, "")
    assert err == "error: 'utf-8' codec can't decode byte 0xff in position 14: invalid start byte\n"


def test_in_process_calls_are_independent(ddx1_file, phi_file, heis_file, flow_file):
    cases = _every_subcommand(ddx1_file, phi_file, heis_file, flow_file)
    first = {}
    for _ in range(2):
        for argv, inputs in cases:
            argv = argv[:1] + ["--json"] + argv[1:]
            for call in (argv, ["compose", "--json"], argv[:1] + ["--help"]):
                result = invoke(call)
                assert first.setdefault(tuple(call), result) == result
            code, out, _ = first[tuple(argv)]
            assert code == 0 and json.loads(out)["inputs"] == inputs


# Each row is parsed twice: by `cli._parse`, which reads a valid call from
# the `_COMMANDS` table and leaves anything else to argparse, and by the
# top-level argparse parser alone.
PARITY_ARGV = [
    ["compose", "a.aut", "b.aut"],
    ["compose", "a.aut", "b.aut", "--json"],
    ["compose", "--json", "a.aut", "b.aut"],
    ["power", "a.aut", "-3"],
    ["exp", "flow.der", "--", "-1/2"],
    ["counterexample", "--word-len", "4", "--", "-1/2", "1/3"],
    ["closure", "a.der", "b.der", "c.der"],
    ["fuzz-degree", "2", "3", "--trials", "4", "--word-len", "2", "--seed", "9"],
    ["fuzz-degree", "2", "3", "--tri", "4"],
    ["unipotent-test", "a.der"],
    ["compose"],
    ["compose", "a.aut"],
    ["closure"],
    ["compose", "a.aut", "b.aut", "c.aut"],
    ["compose", "a.aut", "b.aut", "--nope"],
    ["compose", "a.aut", "b.aut", "--json=1"],
    ["exp", "flow.der", "-1/2"],
    ["power", "a.aut", "two"],
    ["exp", "flow.der", "1/0"],
    ["derived-depth", "2", "1", "--seed"],
    ["no-such-command"],
    ["--json", "compose", "a.aut", "b.aut"],
    [],
    ["-h"],
    ["--help"],
    ["compose", "-h"],
    ["fuzz-degree", "--help"],
    ["compose", "a.aut", "--js"],
    ["compose", "a.aut", "b.aut", "--js"],
    ["compose", "--", "--json"],
    # argparse reads these two apart from a naive table parse: an option
    # ends the run of a nargs="+" positional, and a second "--" is an operand
    ["closure", "a.der", "--json", "b.der"],
    ["compose", "-", "--", "--"],
    ["compose", "a.aut", "b.aut", "--"],
    ["compose", "a.aut", "b.aut", "--json", "--"],
    ["compose", "--json", "--", "a.aut", "b.aut"],
    ["fuzz-degree", "--seed", "-1", "2", "3"],
    ["fuzz-degree", "2", "3", "--seed", "--json"],
    ["fuzz-degree", "2", "3", "--seed=4"],
    ["fuzz-degree", "2", "3", "--seed", "-1_0"],
    ["fuzz-degree", "2", "3", "--trials", "-5 "],
    ["exp", "flow.der", "-.5"],
    ["power", "a.aut", "-1e3"],
]


def _parse_outcome(parse, argv):
    """(namespace, or the usage error's args, or the exit code; stdout; stderr)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            outcome = vars(parse(list(argv)))
    except cli._UsageError as exc:
        outcome = exc.args
    except SystemExit as exc:
        outcome = exc.code
    return outcome, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", PARITY_ARGV, ids=" ".join)
def test_subcommand_dispatch_matches_the_top_level_parse(argv):
    assert _parse_outcome(cli._parse, argv) == _parse_outcome(cli._parser().parse_args, argv)


# One argv of each shape the cli-mix benchmark workload runs.
CLI_MIX_ARGV = [
    ["compose", "a.aut", "b.aut", "--json"],
    ["commutator", "a.aut", "b.aut", "--json"],
    ["invert", "a.aut", "--json"],
    ["factor", "a.aut", "--json"],
    ["power", "--json", "a.aut", "--", "-2"],
    ["exp", "--json", "flow.der", "--", "-1/2"],
    ["bracket", "a.der", "b.der", "--json"],
    ["closure", "a.der", "--json"],
    ["fuzz-degree", "2", "3", "--json", "--trials", "10", "--word-len", "4", "--seed", "17"],
    ["derived-depth", "3", "2", "--json", "--trials", "2", "--seed", "17"],
    ["unipotent-test", "a.der", "--json", "--trials", "5", "--word-len", "3", "--seed", "17"],
    ["counterexample", "--json", "--word-len", "9", "--", "-1/2", "1/3"],
]


def test_a_valid_call_is_parsed_by_its_subcommand_parser_alone(monkeypatch):
    # a valid call is read from the table: no argparse parse runs at all
    def refuse(self, args=None, namespace=None):
        raise AssertionError("argparse parse")

    monkeypatch.setattr(cli.argparse.ArgumentParser, "parse_args", refuse)
    monkeypatch.setattr(cli.argparse.ArgumentParser, "parse_known_args", refuse)
    args = cli._parse(["counterexample", "--word-len", "4", "--", "-1/2", "1/3"])
    assert (args.command, args.word_len, args.json) == ("counterexample", 4, False)
    assert (args.a, args.b) == (Fraction(-1, 2), Fraction(1, 3))
    for argv in CLI_MIX_ARGV:
        args = cli._parse(argv)
        assert (args.command, args.json) == (argv[0], True)
    with pytest.raises(AssertionError, match="argparse parse"):
        cli._parse(["compose", "a.aut", "b.aut", "c.aut"])
    monkeypatch.undo()
    for argv in CLI_MIX_ARGV:
        assert vars(cli._parse(argv)) == vars(cli._parser().parse_args(argv))


# Tokens for generated argv: every flag in full, abbreviated and in
# --flag=value form, "--", "-", -h, negative numbers, rationals, bad ints
# and paths.
ARGV_TOKENS = [
    "--json", "--seed", "--trials", "--word-len", "--js", "--j", "--se", "--tri",
    "--word", "--json=1", "--seed=3", "--trials=2", "--word-len=4", "--nope", "-x",
    "--", "-", "-h", "--help", "-3", "-12", "-.5", "-0.5", "-1/2", "-1e3", "-1 2",
    "-1_0", "0", "2", "3", "+4", " 5", "1/2", "2/4", "1/0", "0.25", "1e3", "two", "",
    "a.aut", "b.der", "x",
]


def test_table_parse_gives_argparse_namespace_or_leaves_the_call_to_it():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    def values(valid):
        # seven in eight values are of the kind the argument takes
        return st.sampled_from(valid * (7 * len(ARGV_TOKENS) // len(valid)) + ARGV_TOKENS)

    kinds = {str: values(["a.aut", "-", "2", "-3"]), int: values(["2", "3", "0", "-3"]),
             cli._rational: values(["1/2", "-3", "2", "-.5"])}

    @st.composite
    def argvs(draw):
        """A call near a valid one: about the command's operand count,
        shared flags with values, in any order, maybe one token anywhere."""
        name = draw(st.sampled_from(sorted(cli._COMMANDS) + ["no-such-command", "-h"]))
        positionals = cli._COMMANDS[name].positionals if name in cli._COMMANDS else ()
        count = draw(st.sampled_from([len(positionals)] * 4 + [0, 1, 2, 3]))
        groups = [[draw(kinds[positionals[min(i, len(positionals) - 1)][1].get("type", str)]
                        if positionals else kinds[str])] for i in range(count)]
        for flag in draw(st.lists(st.sampled_from(ARGV_TOKENS[:4]), max_size=3)):
            groups.append([flag] if flag == "--json" else [flag, draw(kinds[int])])
        rest = [token for group in draw(st.permutations(groups)) for token in group]
        for token in draw(st.lists(st.sampled_from(ARGV_TOKENS), max_size=1)):
            rest.insert(draw(st.integers(0, len(rest))), token)
        return [name] + rest

    @hypothesis.settings(max_examples=500, derandomize=True, deadline=None, database=None)
    @hypothesis.given(argvs())
    def check(argv):
        args = cli._table_parse(list(argv))
        expected = _parse_outcome(cli._parser().parse_args, argv)
        if args is not None:
            assert vars(args) == expected[0] and expected[1:] == ("", "")
        assert _parse_outcome(cli._parse, argv) == expected

    check()


JSON_VALUES = [
    {}, [], (), "", 0, -7, 10 ** 40, -(10 ** 40), None, True, False,
    [[], {}, ()],
    {"a": [], "b": {}, "c": ()},
    [(1, 2), (3, (4, [5, (None,)]))],
    {"witness": ("x1", "x2^-1"), "counts": [(2, 0), (4, 1)]},
    'a "quote", a backslash \\ and a slash /',
    "caf\u00e9 \u2202 \U0001d465 \u2028",
    "\x00\x01\x1f\t\n\r\x7f",
    {"k\u00e9y \"1\"": {"nested": [None, True, False, -1, "\\"]}},
    {"command": None, "inputs": [], "result": None, "diagnostics": ["error: x"]},
]


@pytest.mark.parametrize("value", JSON_VALUES, ids=repr)
def test_json_writer_matches_json_dumps(value):
    assert cli._json(value) == json.dumps(value, indent=2)


def test_json_writer_refuses_what_json_dumps_refuses():
    for value in ([object()], {"k": {1, 2}}):
        with pytest.raises(TypeError) as expected:
            json.dumps(value, indent=2)
        with pytest.raises(TypeError) as got:
            cli._json(value)
        assert str(got.value) == str(expected.value)


def test_json_writer_matches_json_dumps_on_generated_values():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    leaves = st.none() | st.booleans() | st.integers() | st.text()
    values = st.recursive(
        leaves, lambda inner: (st.lists(inner, max_size=4)
                               | st.lists(inner, max_size=4).map(tuple)
                               | st.dictionaries(st.text(), inner, max_size=4)),
        max_leaves=24)

    @hypothesis.settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @hypothesis.given(values)
    def check(value):
        assert cli._json(value) == json.dumps(value, indent=2)

    check()
