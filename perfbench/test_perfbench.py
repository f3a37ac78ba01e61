"""Self-checks of the benchmark.

    python3 -m pytest perfbench -q

They need the source tree next to `perfbench/` and take about half a
minute, most of it the two traced criterion-4 passes.
"""

import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from run import Loop, command_lists  # noqa: E402
from tropoly import canon, cli, geometry  # noqa: E402


def traced_pass(commands):
    tracer = spans.Tracer()
    with spans.traced(tracer):
        _, first, _ = Loop(cli, oracles.Outcome).passes(0, commands)
    return first, spans.layer_metrics(tracer, 1, 1.0)


def test_nullstellensatz_seed_104_matches_the_baseline_counts():
    """Criterion 4's 100 instances make 3187 `divide` calls, 51 accepted
    (ROADMAP Baseline); a second traced pass repeats every count."""
    counts = []
    for _ in range(2):
        commands = workloads.nullstellensatz(random.Random(104), pairs=100)
        first, metrics = traced_pass(commands)
        assert oracles.check_all(commands, first, 104) == {}
        counts.append({k: v["value"] for k, v in metrics.items() if v["unit"] == "count"})
    assert counts[0]["canon.divide_calls"] == 3187
    accepted = round(metrics["canon.divide_accept_ratio"]["value"] * 3187)
    assert accepted == 51
    assert counts[0] == counts[1]


def test_tracing_restores_every_function():
    before = (cli.main, canon.divide, geometry.is_strictly_feasible, canon.is_strictly_feasible)
    with spans.traced(spans.Tracer()):
        assert canon.is_strictly_feasible is not before[3]
        assert canon.is_strictly_feasible is geometry.is_strictly_feasible
    assert (cli.main, canon.divide, geometry.is_strictly_feasible,
            canon.is_strictly_feasible) == before


def test_cli_small_list_has_no_failures(tmp_path):
    commands = workloads.cli_small(
        random.Random(3), blocks=6, outdir=tmp_path, golden_dir=HERE.parent / "tests" / "golden"
    )
    _, first, _ = Loop(cli, oracles.Outcome).passes(0, commands)
    assert oracles.check_all(commands, first, 3) == {}


def test_robustness_inputs_fail_only_as_known_defects():
    probes = workloads.robustness_inputs()
    _, first, _ = Loop(cli, oracles.Outcome).passes(0, probes)
    failures = oracles.check_all(probes, first, 0)
    assert {probes[i].name for i in failures} <= set(workloads.KNOWN_DEFECTS)


def test_window_runs_fresh_lists_and_judges_each(tmp_path):
    lists = (workloads.cli_small(random.Random(i), blocks=3, outdir=tmp_path) for i in range(9))
    judged = []
    loop = Loop(cli, oracles.Outcome)
    loop.window(0, lists, lambda commands, outcomes: judged.append((len(commands), len(outcomes))))
    assert judged == [(33, 33)] * 3 + [(33, 1)]
    assert len(loop.latencies) == 100


def test_later_lists_do_not_repeat_the_first(tmp_path):
    lists = command_lists(workloads, "canon-scale", 7, tmp_path)
    first, second = ({tuple(c.argv) for c in next(lists)} for _ in range(2))
    lists.close()
    assert len(first) == len(second) == 450
    assert not first & second


def _outcome(command):
    return Loop(cli, oracles.Outcome).step(command)


def _tamper(outcome, edit):
    doc = json.loads(outcome.out)
    edit(doc["result"])
    return oracles.Outcome(outcome.code, json.dumps(doc), outcome.err)


def test_oracles_reject_wrong_answers():
    rng = random.Random(5)
    p = workloads.rand_poly(rng, 2, 10, 6)
    canon_cmd = workloads.Command(["canon", workloads.expr(p)], "canon", data={"poly": p})
    good = _outcome(canon_cmd)
    assert oracles.check_canon(canon_cmd, good, 1) is None

    def raise_max(result):
        result["max"][0]["coeff"] = str(Fraction(result["max"][0]["coeff"]) + 1)

    def drop_min_term(result):
        result["min"].pop()

    def min_is_input(result):
        result["min"] = [{"exponents": list(e), "coeff": str(c)} for e, c in p.terms.items()]

    def max_is_min(result):
        result["max"] = result["min"]

    def lower_inner_max(result):
        inner = next(t for t in result["max"] if t not in result["min"])
        inner["coeff"] = str(Fraction(inner["coeff"]) - Fraction(1, 3))

    assert len(json.loads(good.out)["result"]["min"]) < len(p.terms)
    for edit in (raise_max, drop_min_term, min_is_input, max_is_min, lower_inner_max):
        assert oracles.check_canon(canon_cmd, _tamper(good, edit), 1), edit.__name__

    q = workloads.rand_poly(rng, 2, 10, 6)
    equal_cmd = workloads.Command(["equal", workloads.expr(p), workloads.expr(q)], "equal",
                                  data={"p": p, "q": q, "constructed_equal": False})
    good = _outcome(equal_cmd)
    assert oracles.check_equal(equal_cmd, good, 1) is None
    assert oracles.check_equal(equal_cmd, _tamper(good, lambda r: r.update(equal=True)), 1)

    u = workloads.Polynomial(1, {(0,): Fraction(4), (1,): Fraction(3), (2,): Fraction(0)})
    roots_cmd = workloads.Command(["roots", workloads.expr(u)], "roots", data={"poly": u})
    good = _outcome(roots_cmd)
    assert oracles.check_roots(roots_cmd, good, 1) is None

    def shift_root(result):
        result[0]["root"] = "7/2"

    assert oracles.check_roots(roots_cmd, _tamper(good, shift_root), 1)


def test_variety_and_congruence_oracles_reject_wrong_answers(tmp_path):
    commands = workloads.varieties(random.Random(2), blocks=2, outdir=tmp_path)
    variety = commands[0]
    good = _outcome(variety)
    assert oracles.check_variety(variety, good, 1) is None
    assert len(json.loads(good.out)["result"]["cells"]) > 1
    assert oracles.check_variety(variety, _tamper(good, lambda r: r["cells"].pop()), 1)
    # groups: the second block's four congruent commands
    group = [c for c in commands if c.group == ("congruent", 1)]
    assert [c.data["role"] for c in group] == ["ab", "ba", "aa", "a1"]
    outcomes = [_outcome(c) for c in group]
    assert oracles.check_congruent_group(group, outcomes) is None
    for answer in (True, False):
        constant = [oracles.Outcome(0, json.dumps({"result": answer}), "")] * len(group)
        assert oracles.check_congruent_group(group, constant)


def test_extremal_oracle_matches_the_constructions():
    rng = random.Random(8)
    for arity, size, extremal, max_exp in ((2, 14, 6, 10), (2, 20, 8, 6), (3, 5, 5, 3)):
        poly, built = workloads.shaped_poly(rng, arity, size, extremal, max_exp)
        assert oracles.extremal_exponents(poly.terms) == built
        assert oracles.envelope_values(poly.terms) == dict(
            canon.canonicalize(poly).max_representative().terms)


def test_pair_oracle_rejects_disagreement():
    commands = workloads.nullstellensatz(random.Random(104), pairs=1)
    found, radical = (_outcome(c) for c in commands)
    assert oracles.check_nullstellensatz_pair(commands, [found, radical]) is None
    flipped = oracles.Outcome(0, json.dumps({"result": not json.loads(radical.out)["result"]}), "")
    assert oracles.check_nullstellensatz_pair(commands, [found, flipped])


def test_smallest_power_oracle():
    # p = (x + 1)^3 and q = (x + 1)^2 (x + 5): k = 2 covers multiplicity 3
    p = {(3,): Fraction(0), (0,): Fraction(3)}
    q = {(3,): Fraction(0), (2,): Fraction(5), (1,): Fraction(6), (0,): Fraction(7)}
    assert oracles.smallest_power(p, q, 8) == 2
    assert oracles.smallest_power(p, q, 1) is None
    assert oracles.smallest_power({(1,): Fraction(0)}, q, 8) is None


def test_run_refuses_a_directory_without_the_source_tree(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
