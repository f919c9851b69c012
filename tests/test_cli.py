import json
import re
import time
import warnings

import numpy as np
import pytest

from kcontract import cli, models
from kcontract import lin_contraction as lc, lin_synthesis as ls
from kcontract.expressions import MAX_DEPTH, MAX_OPERATORS
from kcontract.nl_verify import MAX_LMI_ENTRIES
from test_models import edit, rossler_mod_doc


def strict_loads(text):
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=reject)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    return code, strict_loads(capsys.readouterr().out)


@pytest.fixture
def lin_model(tmp_path):
    path = tmp_path / "lin.json"
    path.write_text('{"kind":"linear","A":[[1,0],[0,-3]],"B":[[0],[1]]}')
    return str(path)


@pytest.fixture
def builtin_model(tmp_path):
    def make(name):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"kind": "builtin", "name": name}))
        return str(path)
    return make


def test_counts(capsys):
    code, rep = run_cli(capsys, "counts", "--n", "10", "--k", "2")
    assert code == 0
    assert rep["N1"] == 1036 and rep["N2"] == 92


def test_counts_past_the_digit_cap_exits_2_quickly(capsys):
    # refused from an estimate of N1's digits, before C(n, k) is computed
    start = time.perf_counter()
    code, rep = run_cli(capsys, "counts", "--n", "1000000000", "--k", "500000000")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and f"more than {lc.MAX_COUNT_DIGITS} digits" in rep["error"]


@pytest.mark.parametrize("command", ["certify-lin", "synth-lin"])
def test_oversized_lyapunov_solve_exits_2_quickly(capsys, tmp_path, monkeypatch, command):
    # at n = 65 the Kronecker system would hold 65^4 > 2^24 entries
    def never(*args, **kwargs):
        raise AssertionError("a Lyapunov solve past the size cap")

    monkeypatch.setattr(lc, "solve_lyapunov", never)
    monkeypatch.setattr(ls, "solve_lyapunov", never)
    n = 65
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"kind": "linear", "A": (-np.eye(n)).tolist(),
                                "B": np.eye(n)[:, :1].tolist()}))
    start = time.perf_counter()
    code, rep = run_cli(capsys, command, "--model", str(path), "--k", "1")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and f"would form {n ** 4} matrix entries" in rep["error"]


def test_analyze_lin_accept_and_reject(capsys, lin_model):
    code, rep = run_cli(capsys, "analyze-lin", "--model", lin_model, "--k", "2")
    assert code == 0 and rep["verdict"] == "accept"
    assert rep["margins"][0][1] == pytest.approx(-2.0)

    code, rep = run_cli(capsys, "analyze-lin", "--model", lin_model, "--k", "1")
    assert code == 1 and rep["verdict"] == "reject"


@pytest.mark.parametrize("k, A", [
    # spectrum {+-0.5i} hidden by a similarity: computed top-1 sum -2.8e-16
    (1, [[-8.957776268809933, 1.4522630286367872],
         [-55.42505324094806, 8.957776268809933]]),
    # spectrum {+-1.5i, -3, -3} hidden by a similarity: computed top-2 sum -2.4e-15
    (2, [[-1.1957707274946427, 5.090044035528864, -3.8789030755346516, -2.3922020073605434],
         [-1.3831482920800546, 0.18808666940099347, -1.3887400009856337, -1.0962246930858937],
         [-0.9988804130723635, -1.851465829026309, -1.447198691459807, 0.924961110482796],
         [-0.6934605545788126, 1.5875262479247776, -0.6895790522990988, -3.545117250446545]]),
])
def test_analyze_lin_rejects_sum_zero_up_to_rounding(capsys, tmp_path, k, A):
    path = tmp_path / "marginal.json"
    path.write_text(json.dumps({"kind": "linear", "A": A}))
    code, rep = run_cli(capsys, "analyze-lin", "--model", str(path), "--k", str(k))
    assert code == 1 and rep["verdict"] == "reject"
    assert rep["margins"][0][1] < 0  # the rounding noise that used to be accepted
    code, rep = run_cli(capsys, "certify-lin", "--model", str(path), "--k", str(k))
    assert code == 1 and rep["verdict"] == "reject"


def test_usage_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, rep = run_cli(capsys, "analyze-lin", "--model", str(bad), "--k", "2")
    assert code == 2 and rep["verdict"] == "error"
    assert "error" in rep


def test_non_finite_literal_exits_2(capsys, tmp_path):
    path = tmp_path / "inf.json"
    path.write_text(json.dumps({
        "kind": "nonlinear", "dim": 1, "f": ["1e999*x1 + 1"],
        "box": {"lower": [-1], "upper": [1]},
    }))
    code, rep = run_cli(capsys, "simulate", "--model", str(path), "--x0", "0", "--t", "0.1")
    assert code == 2 and rep["verdict"] == "error"
    assert "position 0" in rep["error"]


NAN, INF = float("nan"), float("inf")
LINEAR_DOC = {"kind": "linear", "A": [[-1.0, 0.0], [0.0, -1.0]], "B": [[0.0], [1.0]]}
BUILTIN_DOC = {"kind": "builtin", "name": "synchronverter", "params": {"J": 0.25}}
DECLARED = "^{} is not accepted: the envelope is derived from f$"


@pytest.mark.parametrize("path, value, field", [
    pytest.param(("dim",), 2.7, "dim", id="dim-fraction"),
    pytest.param(("dim",), 0, "dim", id="dim-zero"),
    pytest.param(("box", "lower", 0), NAN, "box lower", id="box-nan"),
    pytest.param(("box", "upper", 2), INF, "box upper", id="box-inf"),
    pytest.param(("box", "lower"), [-1.0, -1.0, -0.5, 0.0], "box lower", id="box-length"),
    # the envelope is derived from f: a declared one is refused by name,
    # whatever it holds, before any of it is read
    pytest.param(("A0",), [[NAN] * 3] * 3, DECLARED.format("A0"), id="A0-nan"),
    pytest.param(("A0",), [[-INF] * 3] * 3, DECLARED.format("A0"), id="A0-inf"),
    pytest.param(("A0",), "1", DECLARED.format("A0"), id="A0-string"),
    pytest.param(("A0",), [[0.0, 1.0, -2.0], [-1.0, 0.0, -1.0]], DECLARED.format("A0"),
                 id="A0-shape"),
    pytest.param(("terms",), [{"A": [[NAN] * 3] * 3, "theta": "x1^2"}], DECLARED.format("terms"),
                 id="term-nan"),
    pytest.param(("terms",), [{"A": [[0.0] * 3] * 3, "theta": "x1^2", "bounds": [0.0, 1.0]}],
                 DECLARED.format("terms"), id="bounds"),
    pytest.param(("terms",), 5, DECLARED.format("terms"), id="terms-number"),
    pytest.param(("terms",), [{"theta": "x1^2"}], DECLARED.format("terms"), id="term-A-missing"),
    pytest.param(("B",), [[0.0], [1.0]], "B", id="B-rows"),
    pytest.param(("B", 1, 0), NAN, "B", id="B-nan"),
    pytest.param(("f",), ["x2 - 2*x3", "-x1 - x3"], "f", id="f-length"),
    pytest.param(("f", 1), "x2/(1 + x1^2)", "f2 = .*denominator", id="variable-denominator"),
    pytest.param(("f", 1), "-x1 - x3 + sin(1)", "f2 = .*constant argument",
                 id="sin-constant"),
    # a path that starts with "linear" edits LINEAR_DOC
    pytest.param(("linear", "A", 0, 0), "-1", "^A must be a .* array of numbers",
                 id="linear-A-string"),
    pytest.param(("linear", "A", 1, 1), True, "^A must be a .* array of numbers",
                 id="linear-A-bool"),
    pytest.param(("linear", "A", 0, 1), NAN, "^A must be finite", id="linear-A-nan"),
    pytest.param(("linear", "A"), [[-1.0, 0.0]], "^linear model A must be square",
                 id="linear-A-square"),
    pytest.param(("linear", "B", 1, 0), "1", "^B must be a .* array of numbers",
                 id="linear-B-string"),
    pytest.param(("linear", "B", 0, 0), INF, "^B must be finite", id="linear-B-inf"),
    pytest.param(("linear", "B"), [[1.0]], r"^B has shape \(1, 1\)", id="linear-B-rows"),
    pytest.param(("linear", "B"), [0.0, 1.0], r"^B has shape \(2,\)", id="linear-B-vector"),
    # a value of ... deletes the field
    pytest.param(("kind",), ..., "^the document has no field kind$", id="kind-missing"),
    pytest.param(("dim",), ..., "^the document has no field dim$", id="dim-missing"),
    pytest.param(("f",), ..., "^the document has no field f$", id="f-missing"),
    pytest.param(("box",), ..., "^the document has no field box$", id="box-missing"),
    pytest.param(("box",), [0, 1], "^box must be a JSON object, got list$", id="box-array"),
    pytest.param(("box", "upper"), ..., "^box has no field upper$", id="box-upper-missing"),
    pytest.param(("linear", "A"), ..., "^the document has no field A$",
                 id="linear-A-missing"),
    # an empty path replaces the whole document
    pytest.param((), [LINEAR_DOC], "^the document must be a JSON object, got list$",
                 id="document-array"),
    # a path that starts with "builtin" edits BUILTIN_DOC
    pytest.param(("builtin", "name"), ..., "^the document has no field name$",
                 id="builtin-name-missing"),
    pytest.param(("builtin", "name"), ["a"], "^builtin name must be a string", id="builtin-name-list"),
    pytest.param(("builtin", "params"), [1], "^builtin params must be an object",
                 id="builtin-params-array"),
    pytest.param(("builtin", "params", "J"), "x", "^builtin params must be an object",
                 id="builtin-params-string"),
    pytest.param(("builtin", "params", "J"), True, "^builtin params must be an object",
                 id="builtin-params-bool"),
    pytest.param(("builtin", "params", "J"), 0, "^synchronverter J and L must be nonzero",
                 id="builtin-params-zero"),
    # T_m / J is inf: the parameters it is formed from are named
    pytest.param(("builtin", "params", "T_m"), 1e308,
                 r"^synchronverter parameters T_m = 1e\+308, J = 0\.25 give a coefficient of f "
                 r"that is not finite \(inf\)$", id="builtin-params-overflow"),
    pytest.param(("name",), {"a": 1}, "^name must be a string, got", id="name-object"),
    pytest.param(("name",), [1], "^name must be a string, got", id="name-list"),
    pytest.param(("linear", "name"), {"a": 1}, "^name must be a string, got",
                 id="linear-name-object"),
])
def test_bad_nonlinear_document_exits_2(capsys, tmp_path, path, value, field):
    # each bad field is refused by name while the model loads, before any work;
    # the linear cases check that a linear document goes through the same finite()
    path_ = tmp_path / "bad.json"
    doc, argv = rossler_mod_doc(), ("simulate", "--x0", "0.1,0.1,0.1", "--t", "0.1")
    if path[:1] == ("linear",):
        doc, path, argv = LINEAR_DOC, path[1:], ("analyze-lin", "--k", "1")
    elif path[:1] == ("builtin",):
        doc, path = BUILTIN_DOC, path[1:]
    path_.write_text(json.dumps(edit(doc, path, value) if path else value))
    code, rep = run_cli(capsys, *argv, "--model", str(path_))
    assert code == 2 and rep["verdict"] == "error"
    assert re.search(field, rep["error"])


@pytest.mark.parametrize("expr", [
    "x1^1000000", "(x1 + x2 + x3 + 1)^60", "((x1 + x2)^30)^30",
    "0.1^1000000000", "3^1000000000", "(0.1*x1)^900",
])
def test_oversized_expression_exits_2_quickly(capsys, tmp_path, expr):
    # refused from the factors' sizes and coefficient bits, before the
    # expansion or the coefficient is formed
    path = tmp_path / "big.json"
    path.write_text(json.dumps(edit(rossler_mod_doc(), ("f", 0), expr)))
    start = time.perf_counter()
    code, rep = run_cli(capsys, "simulate", "--model", str(path), "--x0", "0.1,0.1,0.1",
                        "--t", "0.1")
    assert time.perf_counter() - start < 2.0
    assert code == 2 and "f1 = " in rep["error"]
    assert re.search(r"(normal-form cap of|cap of \d+ bits)", rep["error"])


def nested_field(kind, levels):
    """A 1-state document whose field nests levels deep: a sum of levels + 1
    terms x1, or x1 inside levels parentheses or negations."""
    f, slope = {"sum": ("+".join(["x1"] * (levels + 1)), levels + 1.0),
                "parentheses": ("(" * levels + "x1" + ")" * levels, 1.0),
                "negations": ("-" * levels + "x1", (-1.0) ** levels)}[kind]
    return {"kind": "nonlinear", "dim": 1, "f": [f], "box": {"lower": [-1], "upper": [1]}}


@pytest.mark.parametrize("kind", ["sum", "parentheses", "negations"])
def test_deep_expression_exits_2_quickly(capsys, tmp_path, kind):
    # refused by the parser, before it or a later stage recurses too deep
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(nested_field(kind, 1000)))
    start = time.perf_counter()
    code, rep = run_cli(capsys, "simulate", "--model", str(path), "--x0", "0.1", "--t", "0.01")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and f"deeper than {MAX_DEPTH} levels" in rep["error"]


@pytest.mark.parametrize("operators", [MAX_OPERATORS + 1, 199_999])
def test_too_many_operators_exits_2_quickly(capsys, tmp_path, operators):
    # refused by its operator count, before Python's parser reads it
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(nested_field("sum", operators)))
    start = time.perf_counter()
    code, rep = run_cli(capsys, "simulate", "--model", str(path), "--x0", "0.1", "--t", "0.01")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and f"more than {MAX_OPERATORS} operators" in rep["error"]


@pytest.mark.parametrize("kind", ["sum", "parentheses", "negations"])
def test_expression_at_the_depth_bound_loads_and_simulates(capsys, tmp_path, kind):
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(nested_field(kind, MAX_DEPTH)))
    code, rep = run_cli(capsys, "simulate", "--model", str(path), "--x0", "0.001", "--t", "0.01")
    assert code == 0 and rep["samples"] == 11


@pytest.mark.parametrize("zero", ["0^1000000000", "(x1 - x1)^1000000000"])
def test_power_of_zero_loads_quickly(capsys, tmp_path, zero):
    # a zero base makes the power zero at once, whatever its exponent
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(edit(rossler_mod_doc(), ("f", 0), f"x2 - 2*x3 + {zero}")))
    start = time.perf_counter()
    code, rep = run_cli(capsys, "simulate", "--model", str(path), "--x0", "0.1,0.1,0.1",
                        "--t", "0.1")
    assert time.perf_counter() - start < 2.0
    assert code == 0 and rep["verdict"] != "error"


@pytest.mark.parametrize("f, box, at", [
    # overflows at the centre x1 = 10
    ("x1^400", [9, 11], r"\[10\.0\]"),
    # exactly 0, but inf - inf = nan in floats wherever |x1| > 1e-46
    ("(1e200*x1)*(1e200*x1) - (1e200*x1)*(1e200*x1)", [-1, 1], r"\[-?0\.\d+\]"),
], ids=["centre", "sampled"])
def test_field_not_finite_in_the_box_exits_2(capsys, tmp_path, f, box, at):
    # the envelope is exact, but f is not finite in floats in the box
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps({
        "kind": "nonlinear", "dim": 1, "f": [f],
        "box": {"lower": [box[0]], "upper": [box[1]]},
    }))
    code, rep = run_cli(capsys, "simulate", "--model", str(path), "--x0", str(box[0]),
                        "--t", "0.1")
    assert code == 2
    assert re.fullmatch(rf"f is not finite in floats at x = {at} in the box", rep["error"])


@pytest.mark.parametrize("f, x1, code", [
    # sin(x1) at x1 = 1e300, where the stationary points of sin are no distinct floats
    ("-x2 + sin(x1)", [1e300, 1e300], 1),
    # theta x1^2 reaches 1e400 on the box: its bound overflows to inf
    ("-x1 + (1e-100*x1)^3", [-1e200, 1e200], 2),
], ids=["sin-far", "power-overflow"])
def test_verify_nl_far_out_box_returns_quickly(capsys, tmp_path, f, x1, code):
    model, cert = tmp_path / "far.json", tmp_path / "cert.json"
    model.write_text(json.dumps({"kind": "nonlinear", "dim": 2, "f": ["x2", f],
                                 "box": {"lower": [x1[0], -1], "upper": [x1[1], 1]}}))
    cert.write_text(json.dumps({"k": 1, "mu0": -0.1, "mu1": -0.1, "P0": np.eye(2).tolist(),
                                "P1": np.eye(2).tolist()}))
    start = time.perf_counter()
    got, rep = run_cli(capsys, "verify-nl", "--model", str(model), "--cert", str(cert))
    assert time.perf_counter() - start < 1.0 and got == code
    if code == 2:
        assert rep == {"error": "envelope parameter 1 (x1^2) has the non-finite bound "
                                "(0.0, inf) on the box", "verdict": "error"}


def test_missing_subcommand_usage(capsys):
    code, rep = run_cli(capsys)
    assert code == 2 and rep["verdict"] == "error"


@pytest.mark.parametrize("argv, message", [
    (["counts", "--n", "ten", "--k", "2"], "invalid int value: 'ten'"),
    (["counts", "--k", "2"], "required: --n"),
    (["frobnicate"], "invalid choice: 'frobnicate'"),
])
def test_usage_errors_print_the_json_error_report(capsys, argv, message):
    code, rep = run_cli(capsys, *argv)
    assert code == 2 and rep == {"error": rep["error"], "verdict": "error"}
    assert message in rep["error"]


def test_help_exits_0(capsys):
    assert cli.main(["counts", "--help"]) == 0
    assert "--n" in capsys.readouterr().out


def test_certify_lin_roundtrip(capsys, lin_model, tmp_path):
    out = tmp_path / "cert.json"
    code, rep = run_cli(capsys, "certify-lin", "--model", lin_model, "--k", "2",
                        "--out", str(out))
    assert code == 0 and rep["verdict"] == "accept"
    doc = json.loads(out.read_text())
    assert doc["ell"] == 2 and doc["ds"] == [0, 1, 2]


def test_stabilizable_and_synth(capsys, tmp_path):
    path = tmp_path / "pair.json"
    path.write_text('{"kind":"linear","A":[[0,1],[0,0]],"B":[[0],[1]]}')
    code, rep = run_cli(capsys, "stabilizable", "--model", str(path), "--k", "1")
    assert code == 0
    code, rep = run_cli(capsys, "synth-lin", "--model", str(path), "--k", "1",
                        "--rho", "10")
    assert code == 0
    assert rep["closed_loop_margin"] < 0


def test_simulate_writes_csv(capsys, builtin_model, tmp_path):
    out = tmp_path / "trace.csv"
    code, rep = run_cli(capsys, "simulate", "--model", builtin_model("rossler_mod"),
                        "--x0", "0.2,0.5,0", "--t", "1.0", "--h", "0.001",
                        "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,x1,x2,x3"
    assert len(lines) == 1002


def test_simulate_negative_x0_both_forms(capsys, builtin_model):
    model = builtin_model("rossler_mod")
    outs = []
    for x0 in (["--x0", "-0.3,-0.3,-0.5"], ["--x0=-0.3,-0.3,-0.5"]):
        code = cli.main(["simulate", "--model", model, *x0, "--t", "0.1"])
        assert code == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert strict_loads(outs[0])["final_state"][0] < 0


def test_simulate_compound_fit(capsys, builtin_model):
    code, rep = run_cli(capsys, "simulate", "--model", builtin_model("rossler_mod"),
                        "--x0", "0.2,0.5,0", "--t", "10", "--compound", "3")
    assert code == 0
    assert rep["decay_fit"]["a"] == pytest.approx(0.5, abs=1e-3)


def test_simulate_compound_fit_stops_at_underflow(capsys, tmp_path):
    # RK4 scales y by 0.375 a step at h * (-1000) = -1: |y| reaches 0.0 before t = 1,
    # and the decay is fitted on the samples before it
    path = tmp_path / "fast.json"
    path.write_text(json.dumps({"kind": "nonlinear", "dim": 1, "f": ["-1000*x1"],
                                "box": {"lower": [-1], "upper": [1]}}))
    code, rep = run_cli(capsys, "simulate", "--model", str(path), "--x0", "0.5", "--t", "1",
                        "--compound", "1")
    assert code == 0 and rep["truncated"] is False and rep["verdict"] == "success"
    assert rep["decay_fit"]["a"] == pytest.approx(-np.log(0.375) / 1e-3, rel=1e-4)


@pytest.mark.parametrize("compound", ["0", "2", "3"])
def test_simulate_blow_up_reports_truncation(capsys, builtin_model, compound):
    # x1^3 overflows a Python float near t = 2.82 (sim.integrate truncates there);
    # a truncated compound trace has no decay to fit
    code, rep = run_cli(capsys, "simulate", "--model", builtin_model("rossler_mod"),
                        "--x0=-0.49835108,0.89350589,-0.31067962", "--t", "5",
                        "--compound", compound)
    assert code == 1 and rep["truncated"] is True and rep["verdict"] == "failure"
    assert rep["samples"] == 2820
    assert ("decay_fit" in rep) == (compound != "0") and rep.get("decay_fit") is None


@pytest.mark.parametrize("compound", ["0", "2", "3"])
def test_simulate_blow_up_warns_nothing(capsys, builtin_model, compound):
    # the last states of the truncated run are near 1e189: their norms, in the
    # attractor label and the compound norms, overflow without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, rep = run_cli(capsys, "simulate", "--model", builtin_model("rossler_mod"),
                            "--x0=-0.49835108,0.89350589,-0.31067962", "--t", "5",
                            "--compound", compound)
    assert code == 1 and rep["truncated"] is True and rep["samples"] == 2820


@pytest.mark.parametrize("model", ["lin", "rossler_mod"])
def test_simulate_x0_of_wrong_length_exits_2(capsys, lin_model, builtin_model, model):
    # the length of x0 is checked before integration, with a message naming it
    path = lin_model if model == "lin" else builtin_model(model)
    code, rep = run_cli(capsys, "simulate", "--model", path, "--x0", "1,1,1,1", "--t", "0.1")
    assert code == 2 and rep["verdict"] == "error"
    assert "x0" in rep["error"]


def test_volume_linear(capsys, tmp_path):
    path = tmp_path / "lin2.json"
    path.write_text('{"kind":"linear","A":[[-1,0],[0,-2]]}')
    code, rep = run_cli(capsys, "volume", "--model", str(path), "--grid", "32",
                        "--t", "0.5")
    assert code == 0
    assert rep["ratio"] == pytest.approx(np.exp(-1.5), abs=1e-2)


def test_volume_blow_up_reports_failure(capsys, tmp_path):
    # x1' = x1^3 from x1 near 3 leaves every float before t = 1: the flowed
    # square has no area, and the report says so in strict JSON
    path = tmp_path / "cubic.json"
    path.write_text(json.dumps({
        "kind": "nonlinear", "dim": 2, "f": ["x1^3", "-x2"],
        "box": {"lower": [2.9, -0.1], "upper": [3.1, 0.1]},
    }))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, rep = run_cli(capsys, "volume", "--model", str(path), "--grid", "8", "--t", "1")
    assert code == 1 and rep["verdict"] == "failure" and rep["truncated"] is True
    assert rep["Vt"] is None and rep["ratio"] is None and rep["V0"] > 0


def test_volume_zero_area_square_exits_2(capsys, tmp_path, monkeypatch):
    # a box of zero width in axis 1 makes the initial square a segment: no
    # area to transport, so nothing is flowed
    from kcontract import sim

    def refuse(*args):
        raise AssertionError("zero-area square flowed")
    monkeypatch.setattr(sim, "flow_immersion", refuse)
    path = tmp_path / "flat.json"
    path.write_text(json.dumps({
        "kind": "nonlinear", "dim": 2, "f": ["-x1", "-x2"],
        "box": {"lower": [0.0, 0.0], "upper": [0.0, 1.0]},
    }))
    code, rep = run_cli(capsys, "volume", "--model", str(path), "--grid", "8", "--t", "0.1")
    assert code == 2 and rep["verdict"] == "error"
    assert "positive area" in rep["error"]


def test_volume_one_dimensional_nonlinear_exits_2(capsys, tmp_path):
    path = tmp_path / "nl1.json"
    path.write_text(json.dumps({
        "kind": "nonlinear", "dim": 1, "f": ["-x1"], "box": {"lower": [-1], "upper": [1]},
    }))
    code, rep = run_cli(capsys, "volume", "--model", str(path), "--grid", "8", "--t", "0.1")
    assert code == 2 and rep["verdict"] == "error"
    assert "dimension >= 2" in rep["error"]


@pytest.mark.parametrize("command", ["simulate", "volume"])
def test_infinite_time_exits_2(capsys, lin_model, command):
    extra = ("--x0", "1,1") if command == "simulate" else ()
    code, rep = run_cli(capsys, command, "--model", lin_model, *extra, "--t", "inf")
    assert code == 2 and rep["verdict"] == "error"
    assert "finite" in rep["error"]


@pytest.mark.parametrize("value", ["inf", "nan"])
@pytest.mark.parametrize("option, argv", [
    ("slack", ["verify-nl", "--cert", "missing.json", "--slack", "V"]),
    ("slack", ["synth-nl", "--cert", "missing.json", "--slack", "V"]),
    ("rho", ["synth-lin", "--k", "2", "--rho", "V"]),
    ("h", ["simulate", "--x0=0.2,0.5,0", "--t", "0.1", "--h", "V"]),
    ("x0", ["simulate", "--x0=0.2,V,0", "--t", "0.1"]),
    ("h", ["volume", "--t", "0.1", "--h", "V"]),
], ids=lambda case: case if isinstance(case, str) else case[0])
def test_non_finite_option_exits_2(capsys, builtin_model, option, argv, value):
    # rejected, naming the option, before the certificate (missing here) is read
    argv = [arg.replace("V", value) for arg in argv]
    code, rep = run_cli(capsys, *argv, "--model", builtin_model("rossler_mod"))
    assert code == 2 and rep["verdict"] == "error"
    assert f"--{option} must be finite" in rep["error"]


def test_simulate_compound_linear_exits_2(capsys, lin_model):
    code, rep = run_cli(capsys, "simulate", "--model", lin_model, "--x0", "1,1",
                        "--t", "0.1", "--compound", "2")
    assert code == 2 and rep["verdict"] == "error"


def test_simulate_oversized_compound_exits_2(capsys, tmp_path, monkeypatch):
    # simulate --compound 12 on 24 states: C(24, 12) = 2.7M compound rows
    from kcontract import compound

    def refuse(*args):
        raise AssertionError("oversized compound enumerated")
    monkeypatch.setattr(compound, "combinations", refuse)
    n = 24
    path = tmp_path / "big.json"
    path.write_text(json.dumps({
        "kind": "nonlinear", "dim": n,
        "f": ["-x1 - x1^3"] + [f"-x{i + 1}" for i in range(1, n)],
        "box": {"lower": [-1.0] * n, "upper": [1.0] * n},
    }))
    code, rep = run_cli(capsys, "simulate", "--model", str(path), "--x0", ",".join(["0.1"] * n),
                        "--t", "0.1", "--compound", "12")
    assert code == 2 and rep["verdict"] == "error"


@pytest.mark.parametrize("compound", ["-1", "4"])
def test_simulate_compound_out_of_range_exits_2(capsys, builtin_model, compound):
    code, rep = run_cli(capsys, "simulate", "--model", builtin_model("rossler_mod"),
                        "--x0", "0.1,0.1,0.1", "--t", "0.1", "--compound", compound)
    assert code == 2 and rep["verdict"] == "error"
    assert rep["error"] == ("--compound must be in [1, n] for a model of dimension n = 3, "
                            f"got {compound}")


@pytest.mark.parametrize("argv", [
    ("simulate", "--x0", "0.1,0.1,0.1", "--t", "0.0004"),  # t < h / 2
    ("simulate", "--x0", "0.1,0.1,0.1", "--t", "0.0005"),  # round(0.5) is 0
    ("simulate", "--x0", "0.1,0.1,0.1", "--t", "0.0004", "--compound", "2"),
    ("volume", "--grid", "3", "--t", "0.1", "--h", "0.2"),
])
def test_run_of_zero_steps_exits_2(capsys, builtin_model, argv):
    # a run that rounds to no step would report x0 (or a ratio of 1.0) as
    # a successful flow
    code, rep = run_cli(capsys, *argv, "--model", builtin_model("rossler_mod"))
    assert code == 2 and rep["verdict"] == "error"
    assert "rounds to 0 steps" in rep["error"]


def test_derived_envelope_prints_as_declared(capsys, tmp_path):
    # the builtin, declared by name, and the document its to_json writes (kind,
    # name, dim, f and box) print the same reports, inputs_digest included
    from kcontract.reproduce import load_data
    derived = models.builtin("synchronverter").to_json()
    assert sorted(derived) == ["box", "dim", "f", "kind", "name"]
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(load_data("synchronverter_cert.json")))
    outputs = {}
    for label, doc in (("declared", {"kind": "builtin", "name": "synchronverter"}),
                       ("derived", derived)):
        path = tmp_path / f"{label}.json"
        path.write_text(json.dumps(doc))
        for argv in (("verify-nl", "--cert", str(cert)),
                     ("simulate", "--x0", "0,0,314,0.1", "--t", "0.05", "--compound", "2")):
            assert cli.main([*argv, "--model", str(path)]) == 0
            outputs.setdefault(label, []).append(capsys.readouterr().out)
    assert outputs["derived"] == outputs["declared"]


def chain_doc(n):
    """x_i' = -x_i + 0.5 x_(i+1)^2: n - 1 envelope parameters x2..xn."""
    return {"kind": "nonlinear", "dim": n,
            "f": [f"-x{i} + 0.5*x{i + 1}^2" for i in range(1, n)] + [f"-x{n}"],
            "box": {"lower": [-1.0] * n, "upper": [1.0] * n}}


@pytest.mark.parametrize("doc, entries", [
    (chain_doc(300), 300 ** 3),
    ({"kind": "nonlinear", "dim": 100000, "f": [f"x{i + 1}" for i in range(100000)]},
     100000 ** 2),
], ids=["chain-300", "dim-100000"])
def test_oversized_envelope_exits_2_quickly(capsys, tmp_path, doc, entries):
    # a few kilobytes of field would derive dim^2 (1 + thetas) dense entries
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    code, rep = run_cli(capsys, "simulate", "--model", str(path), "--x0", "0", "--t", "0.1")
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert f"would hold {entries} matrix entries, past the cap of {MAX_LMI_ENTRIES}" in rep["error"]


def test_verify_nl_with_packaged_cert(capsys, builtin_model, tmp_path):
    from kcontract.reproduce import load_data
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(load_data("synchronverter_cert.json")))
    code, rep = run_cli(capsys, "verify-nl", "--model", builtin_model("synchronverter"),
                        "--cert", str(cert))
    assert code == 0 and rep["verdict"] == "accept"
    assert rep["slack"] == pytest.approx(1e-2)

    # at zero slack the printed rounding breaks strictness: legitimate reject
    code, rep = run_cli(capsys, "verify-nl", "--model", builtin_model("synchronverter"),
                        "--cert", str(cert), "--slack", "0")
    assert code == 1 and rep["verdict"] == "reject"


BAD_DATA = [
    pytest.param("k", 2.9, "k", id="k-fraction"),
    pytest.param("k", "2", "k", id="k-string"),
    pytest.param("k", True, "k", id="k-bool"),
    pytest.param("k", 0, "k", id="k-zero"),
    pytest.param("mu0", "0.1", "mu0", id="mu0-string"),
    pytest.param("mu0", None, "mu0", id="mu0-null"),
    pytest.param("mu1", INF, "mu1", id="mu1-inf"),
    pytest.param("mu1", 10 ** 400, "mu1", id="mu1-huge-int"),
    pytest.param("printed_precision", "no", "printed_precision", id="printed-string"),
]


@pytest.mark.parametrize("field, value, named", BAD_DATA + [
    pytest.param("P0", [["0.1", "0"], ["0", "0.1"]], "P0", id="P0-strings"),
    pytest.param("P1", None, "P1", id="P1-null"),
    pytest.param("P1", [[NAN]], "P1", id="P1-nan"),
    pytest.param("P0", ..., "P0", id="P0-missing"),
])
def test_bad_certificate_exits_2(capsys, builtin_model, tmp_path, field, value, named):
    from kcontract.reproduce import load_data
    doc = load_data("synchronverter_cert.json")
    doc = {k: v for k, v in doc.items() if k != field} if value is ... else doc | {field: value}
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(doc))
    code, rep = run_cli(capsys, "verify-nl", "--model", builtin_model("synchronverter"),
                        "--cert", str(cert))
    assert code == 2 and rep["verdict"] == "error"
    assert named in rep["error"]


@pytest.mark.parametrize("field, value, named", BAD_DATA + [
    pytest.param("W0", [[NAN, 0, 0], [0, 1, 0], [0, 0, 1]], "W0", id="W0-nan"),
    pytest.param("W1", "[[1]]", "W1", id="W1-string"),
    pytest.param("W1", ..., "W1", id="W1-missing"),
])
def test_bad_design_exits_2(capsys, builtin_model, tmp_path, field, value, named):
    from kcontract.reproduce import load_data
    doc = load_data("example25_design.json")
    doc = {k: v for k, v in doc.items() if k != field} if value is ... else doc | {field: value}
    design = tmp_path / "design.json"
    design.write_text(json.dumps(doc))
    code, rep = run_cli(capsys, "synth-nl", "--model", builtin_model("example25"),
                        "--cert", str(design))
    assert code == 2 and rep["verdict"] == "error"
    assert named in rep["error"]


@pytest.mark.parametrize("command, model", [("verify-nl", "synchronverter"),
                                            ("synth-nl", "example25")])
def test_data_document_not_an_object_exits_2(capsys, builtin_model, tmp_path, command, model):
    path = tmp_path / "data.json"
    path.write_text("[1, 2]")
    code, rep = run_cli(capsys, command, "--model", builtin_model(model), "--cert", str(path))
    assert code == 2 and "JSON object" in rep["error"]


def test_parser_is_built_once_and_keeps_no_option(capsys, builtin_model, tmp_path):
    # the cached parser gives each call fresh defaults: --slack 0 does not
    # carry into the next call, which takes the data's printed-precision slack
    from kcontract.reproduce import load_data
    assert cli.build_parser() is cli.build_parser()
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(load_data("rossler_mod_cert.json")))
    argv = ["verify-nl", "--model", builtin_model("rossler_mod"), "--cert", str(cert)]
    _, rep = run_cli(capsys, *argv, "--slack", "0")
    assert rep["slack"] == 0
    _, rep = run_cli(capsys, *argv)
    assert rep["slack"] == 0.01


def test_dumps_is_strict_and_plain():
    assert cli.dumps({"b": np.arange(2), "a": np.float32(0.5), "c": np.bool_(True)}) == \
        '{"a": 0.5, "b": [0, 1], "c": true}'
    for bad in (float("inf"), np.float64("nan"), np.array([1.0, -np.inf])):
        with pytest.raises(ValueError):
            cli.dumps({"x": bad})


def test_synth_nl_from_design_data(capsys, builtin_model, tmp_path):
    from kcontract.reproduce import load_data
    design = tmp_path / "design.json"
    design.write_text(json.dumps(load_data("example25_design.json")))
    code, rep = run_cli(capsys, "synth-nl", "--model", builtin_model("example25"),
                        "--cert", str(design))
    K = np.asarray(rep["K"]).ravel()
    assert np.all(np.abs(K - [0.89, 2.16, -1.18]) <= 0.02)
    assert rep["omega"] == pytest.approx(0.048, abs=0.01)


def test_determinism_byte_identical(capsys, lin_model):
    code1 = cli.main(["analyze-lin", "--model", lin_model, "--k", "2"])
    out1 = capsys.readouterr().out
    code2 = cli.main(["analyze-lin", "--model", lin_model, "--k", "2"])
    out2 = capsys.readouterr().out
    assert code1 == code2 and out1 == out2


def test_inputs_digest_tracks_inputs(capsys, lin_model, tmp_path):
    _, rep1 = run_cli(capsys, "analyze-lin", "--model", lin_model, "--k", "2")
    other = tmp_path / "other.json"
    other.write_text('{"kind":"linear","A":[[1,0],[0,-4]],"B":[[0],[1]]}')
    _, rep2 = run_cli(capsys, "analyze-lin", "--model", str(other), "--k", "2")
    assert rep1["inputs_digest"] != rep2["inputs_digest"]
