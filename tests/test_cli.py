import json
import time
from fractions import Fraction
from pathlib import Path

import pytest

from tropoly.cli import MAX_EXPONENT, MAX_NESTING, main, parse_expression, tokenize
from tropoly.errors import ParseError
from tropoly.polynomial import Polynomial
from tropoly.semifield import BOTTOM

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_examples():
    assert parse_expression("0*x^2 + 3*x + 4") == Polynomial(
        1, {(2,): 0, (1,): 3, (0,): 4}
    )
    assert parse_expression("(x + 0)*(y + 0)") == Polynomial(
        2, {(1, 1): 0, (1, 0): 0, (0, 1): 0, (0, 0): 0}
    )
    assert parse_expression("x + -inf") == Polynomial(1, {(1,): 0})
    assert parse_expression("-5/2*x + 0.75") == Polynomial(
        1, {(1,): Fraction(-5, 2), (0,): Fraction(3, 4)}
    )
    assert parse_expression("X1*X4^2") == Polynomial(4, {(1, 0, 0, 2): 0})


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError):
        parse_expression("x +")
    with pytest.raises(ParseError):
        parse_expression("x ^ y")
    with pytest.raises(ParseError):
        parse_expression("x ^ (1/2)")
    with pytest.raises(ParseError):
        parse_expression("w + 1")
    with pytest.raises(ParseError):
        parse_expression("(x + 1")
    try:
        parse_expression("3 ? 4")
    except ParseError as exc:
        assert exc.position == 2


def test_print_parse_round_trip(rng):
    from conftest import rand_bivariate, rand_univariate

    for _ in range(40):
        p = rand_univariate(rng, max_deg=6)
        assert parse_expression(str(p), min_arity=1) == p
        q = rand_bivariate(rng)
        assert parse_expression(str(q), min_arity=2) == q


def test_classical_convention():
    p = parse_expression("8*x + 4", convention="classical", base="2")
    assert p == Polynomial(1, {(1,): 3, (0,): 2})
    p = parse_expression("1/9*x + 0", convention="classical", base="3")
    assert p == Polynomial(1, {(1,): -2})
    p = parse_expression("x + 32", convention="classical", base="1/4")
    assert p == Polynomial(1, {(1,): 0, (0,): Fraction(-5, 2)})
    with pytest.raises(ParseError):
        parse_expression("3*x + 1", convention="classical", base="2")
    with pytest.raises(ParseError):
        parse_expression("-2*x", convention="classical", base="2")


def test_cli_roots_golden(capsys):
    code, out, err = run(capsys, "roots", "0*x^2 + 3*x + 4")
    assert code == 0 and err == ""
    assert out == (GOLDEN / "roots.json").read_text()
    payload = json.loads(out)
    assert payload["result"] == [
        {"root": "3", "mult": 1},
        {"root": "1", "mult": 1},
    ]


def test_cli_equal_golden(capsys):
    code, out, err = run(
        capsys, "equal", "(x+0)*(x^2+0)", "(x+0)*(x^2+x+0)"
    )
    assert code == 0
    assert out == (GOLDEN / "equal.json").read_text()
    assert json.loads(out)["result"] == {"equal": True}


def test_cli_equal_witness(capsys):
    code, out, _ = run(capsys, "equal", "x + 0", "x")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["equal"] is False
    assert payload["result"]["witness"] == ["-1"]


def test_cli_variety_golden(tmp_path, capsys):
    svg = tmp_path / "variety.svg"
    code, out, _ = run(
        capsys, "variety", "x + y + 0", "--svg", str(svg), "--bbox=-2,-2,2,2"
    )
    assert code == 0
    assert out == (GOLDEN / "variety.json").read_text()
    assert svg.read_bytes() == (GOLDEN / "variety.svg").read_bytes()
    assert svg.read_text().count("<line") == 3


def test_cli_graph_golden(tmp_path, capsys):
    dot = tmp_path / "graph.dot"
    code, out, _ = run(capsys, "graph", "x + y + 0", "--dot", str(dot))
    assert code == 0
    assert out == (GOLDEN / "graph.json").read_text()
    assert dot.read_bytes() == (GOLDEN / "graph.dot").read_bytes()
    assert json.loads(out)["result"]["connected"] is True


def test_cli_canon(capsys):
    code, out, _ = run(capsys, "canon", "x^2 + 6")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["min"] == [
        {"exponents": [0], "coeff": "6"},
        {"exponents": [2], "coeff": "0"},
    ]
    assert payload["result"]["max"] == [
        {"exponents": [0], "coeff": "6"},
        {"exponents": [1], "coeff": "3"},
        {"exponents": [2], "coeff": "0"},
    ]


def test_cli_factor(capsys):
    code, out, _ = run(capsys, "factor", "2*x^3")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"] == {
        "leading": "2",
        "roots": [{"root": "-inf", "mult": 3}],
    }


def test_cli_divides(capsys):
    code, out, _ = run(capsys, "divides", "x + 1", "x^2 + 3*x + 4")
    assert code == 0
    assert json.loads(out)["result"]["divides"] is True
    code, out, _ = run(capsys, "divides", "x^2", "x + 0")
    assert json.loads(out)["result"] == {"divides": False}


def test_cli_divides_power(capsys):
    code, out, _ = run(capsys, "divides-power", "x + y + 0", "2*x + 2*y + 2")
    assert code == 0
    assert json.loads(out)["result"]["k"] == 1
    code, out, err = run(
        capsys, "divides-power", "x + 0", "x + 1", "--kmax", "4"
    )
    assert code == 0
    assert json.loads(out)["result"] is None
    assert "no divisibility" in err


def test_cli_radical_and_congruent(capsys):
    code, out, _ = run(capsys, "radical-member", "x + y + 0", "(x + y + 0)^2")
    assert code == 0 and json.loads(out)["result"] is True
    code, out, _ = run(capsys, "congruent", "--mod", "x + 0", "x", "0")
    assert code == 0 and json.loads(out)["result"] is True
    code, out, _ = run(capsys, "congruent", "--mod", "x + 0", "x", "1")
    assert code == 0 and json.loads(out)["result"] is False


def test_cli_exit_codes(tmp_path, capsys):
    code, _, err = run(capsys, "roots", "-inf")
    assert code == 1 and "zero polynomial" in err
    code, _, err = run(capsys, "roots", "x + y")
    assert code == 2 and "one variable" in err
    code, _, err = run(capsys, "roots", "x +")
    assert code == 2 and "position" in err
    code, _, err = run(
        capsys, "variety", "x + y + z", "--svg", str(tmp_path / "never.svg")
    )
    assert code == 2 and "two-variable" in err
    code, _, err = run(capsys, "--convention=classical", "canon", "x + 3")
    assert code == 2  # missing --base
    code, _, _ = run(capsys, "no-such-command")
    assert code == 2


def test_cli_classical_flag(capsys):
    code, out, _ = run(
        capsys, "--convention=classical", "--base", "2", "roots", "4*x + 16"
    )
    assert code == 0
    assert json.loads(out)["result"] == [{"root": "2", "mult": 1}]


def test_tokenizer_reports_bad_characters():
    with pytest.raises(ParseError) as info:
        tokenize("x ! y")
    assert info.value.position == 2


def _canon_x_power(k, text):
    term = [{"exponents": [k], "coeff": "0"}]
    return {"command": "canon", "input": text, "result": {"min": term, "max": term}}


def test_cli_long_sum_and_product(capsys):
    text = " + ".join(["x"] * 3000)
    code, out, err = run(capsys, "canon", text)
    assert code == 0 and err == ""
    assert json.loads(out) == _canon_x_power(1, text)
    text = "*".join(["x"] * 1500)
    code, out, err = run(capsys, "canon", text)
    assert code == 0 and err == ""
    assert json.loads(out) == _canon_x_power(1500, text)


def test_cli_canon_of_a_large_univariate_power(capsys):
    # 501 terms, 2 extremal: the extremal terms come from the upper chain
    start = time.perf_counter()
    code, out, err = run(capsys, "canon", "(x+0)^500")
    elapsed = time.perf_counter() - start
    assert code == 0 and err == ""
    result = json.loads(out)["result"]
    assert result["min"] == [
        {"exponents": [0], "coeff": "0"},
        {"exponents": [500], "coeff": "0"},
    ]
    assert result["max"] == [{"exponents": [k], "coeff": "0"} for k in range(501)]
    assert elapsed < 10


def test_cli_deep_nesting_is_a_usage_error(capsys):
    text = "(" * 3000 + "x" + ")" * 3000
    code, out, err = run(capsys, "canon", text)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    with pytest.raises(ParseError) as info:
        parse_expression("(" * (MAX_NESTING + 1) + "x" + ")" * (MAX_NESTING + 1))
    assert info.value.position == MAX_NESTING


def test_parse_at_the_nesting_cap():
    deep = "(" * MAX_NESTING + "x" + ")" * MAX_NESTING
    assert parse_expression(deep) == Polynomial(1, {(1,): 0})
    # a sum, a product and a power at every level: the deepest tree walk
    text = "0"
    for _ in range(MAX_NESTING):
        text = f"(x*{text}^1+0)"
    expected = Polynomial(1, {(k,): 0 for k in range(MAX_NESTING + 1)})
    assert parse_expression(text) == expected


def test_cli_exponent_above_the_cap_is_a_usage_error(capsys):
    for text in ("(x+0)^100000", f"(x+0)^{MAX_EXPONENT + 1}", "x^" + "9" * 5000):
        start = time.perf_counter()
        code, out, err = run(capsys, "canon", text)
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        assert err.startswith("error: ") and str(MAX_EXPONENT) in err
        assert "Traceback" not in err
    assert parse_expression(f"x^{MAX_EXPONENT}") == Polynomial(1, {(MAX_EXPONENT,): 0})
    assert parse_expression("x^" + "0" * 5000 + "7") == Polynomial(1, {(7,): 0})


def test_parse_powers_and_sums_match_repeated_operations():
    # a monomial's power is scaled directly; a sum is merged once
    assert parse_expression("(3/2*x*y^2)^4 + y + 0") == Polynomial(
        2, {(4, 8): 6, (0, 1): 0, (0, 0): 0}
    )
    assert parse_expression("(2*x)^0") == Polynomial.constant(1, 0)
    assert parse_expression("x + 1 + x + -inf + 3*x + 0") == Polynomial(
        1, {(1,): 3, (0,): 1}
    )
    assert parse_expression("(x+y+1)^3") == parse_expression("(x+y+1)*(x+y+1)*(x+y+1)")
