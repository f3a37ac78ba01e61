"""Acceptance suite: one test per criterion, at full stated scale.

Each test prints a PASS line with its measured wall time; stated time
budgets are asserted.  Scales, tolerance (everything here is exact
equality), and instance shapes follow the criteria directly.
"""

import itertools
import random
import time
from fractions import Fraction
from pathlib import Path

from tropoly.canon import (
    canonicalize,
    divides_power,
    monomial_versus_constraints,
    power_cancel,
    rat_add,
    rat_equal,
    rat_mul,
    rat_pow,
)
from tropoly.geometry import InequalitySystem, is_strictly_feasible
from tropoly.ideals import (
    closure_witness,
    congruent_mod,
    is_dense,
    radical_member,
)
from tropoly.polynomial import Polynomial
from tropoly.semifield import BOTTOM
from tropoly.univariate import expand_factorization, factor, root_ideal_member, roots
from tropoly.variety import dominance_graph, variety_included

from conftest import rand_bivariate, rand_coeff, rand_point, rand_univariate

GOLDEN = Path(__file__).parent / "golden"


class _Timer:
    def __init__(self, name, budget=None):
        self.name = name
        self.budget = budget

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        budget = f" (budget {self.budget}s)" if self.budget else ""
        print(f"ACCEPTANCE {self.name}: {status} in {elapsed:.2f}s{budget}")
        if exc_type is None and self.budget is not None:
            assert elapsed < self.budget, f"{self.name} exceeded {self.budget}s"
        return False


def test_criterion_01_root_bound():
    rng = random.Random(101)
    with _Timer("1 root-bound", budget=5):
        for _ in range(500):
            p = rand_univariate(rng, max_deg=10, lo=-20, hi=20)
            multiset = roots(p)
            assert len(multiset.finite_roots()) <= p.degree()
            assert multiset.total_multiplicity() == p.degree()
            for r, _m in multiset.roots:
                assert p.is_zero_at((r,))
            if multiset.bottom_multiplicity:
                assert p.is_zero_at((BOTTOM,))


def test_criterion_02_factorization_round_trip():
    rng = random.Random(102)
    with _Timer("2 factorization round trip", budget=10):
        for _ in range(500):
            p = rand_univariate(rng, max_deg=10, lo=-20, hi=20)
            leading, multiset = factor(p)
            expanded = expand_factorization(leading, multiset)
            assert expanded == canonicalize(p).max_representative()


def _functions_equal_by_dominance(p, q):
    """Independent oracle on raw supports: the functions differ iff some
    monomial of one polynomial strictly beats every monomial of the
    other somewhere."""
    for first, second in ((p, q), (q, p)):
        for alpha, c_alpha in first.terms.items():
            system = InequalitySystem(
                first.arity,
                monomial_versus_constraints(alpha, c_alpha, second.terms),
            )
            if is_strictly_feasible(system)[0]:
                return False
    return True


def _equal_pair(rng):
    """A pair of distinct polynomials in one canonical class: saturate a
    lattice point of the Newton polytope at (or below) envelope value."""
    p = rand_bivariate(rng, max_support=5, max_exp=4)
    r = canonicalize(p)
    env = r.envelope()
    lattice = list(env.lattice())
    gamma = rng.choice(lattice)
    coeff = env.value(gamma) - rng.randint(0, 3)
    q = p + Polynomial(2, {gamma: coeff})
    return p, q


def test_criterion_03_canonical_function_equivalence():
    rng = random.Random(103)
    with _Timer("3 canonical/function equivalence", budget=60):
        for index in range(200):
            if index % 2 == 0:
                p, q = _equal_pair(rng)
            else:
                p = rand_bivariate(rng, max_support=5, max_exp=4)
                q = rand_bivariate(rng, max_support=5, max_exp=4)
            rp, rq = canonicalize(p), canonicalize(q)
            equal, witness = rat_equal(rp, rq)
            assert equal == _functions_equal_by_dominance(p, q)
            if equal:
                for _ in range(1000):
                    x = rand_point(rng, 2)
                    assert p(x) == q(x)
            else:
                assert p(witness) != q(witness)


def _nullstellensatz_pair(rng, multiple):
    p = rand_bivariate(rng, max_support=4, max_exp=3, with_constant=True)
    rp = canonicalize(p)
    if multiple:
        c = rand_coeff(rng, -5, 5, 2)
        m = rng.randint(1, 2)
        r = rand_bivariate(rng, max_support=3, max_exp=2, with_constant=True)
        q = canonicalize(rat_pow(rp, m).min_representative() * r).min_representative()
        q = q.scale(c)
        return rp, canonicalize(q)
    q = rand_bivariate(rng, max_support=4, max_exp=3, with_constant=True)
    return rp, canonicalize(q)


def test_criterion_04_nullstellensatz():
    rng = random.Random(104)
    with _Timer("4 nullstellensatz", budget=120):
        for index in range(100):
            p, q = _nullstellensatz_pair(rng, multiple=index % 2 == 0)
            included = variety_included(p, q)
            witness = divides_power(p, q, 64)
            assert included == (witness is not None)
            if witness is not None:
                k, cofactor = witness
                assert rat_mul(p, cofactor) == rat_pow(q, k)


def test_criterion_05_graph_connectivity():
    rng = random.Random(105)
    with _Timer("5 graph connectivity"):
        for _ in range(200):
            r = canonicalize(rand_bivariate(rng, max_support=6, max_exp=4))
            assert dominance_graph(r).connected


def test_criterion_06_root_ideal_equivalence():
    rng = random.Random(106)
    with _Timer("6 root-ideal equivalence"):
        for _ in range(500):
            p = rand_univariate(rng, max_deg=8)
            known = roots(p).finite_roots()
            if known and rng.random() < 0.5:
                x = rng.choice(known)
            else:
                x = rand_coeff(rng)
            assert root_ideal_member(p, x) == p.is_zero_at((x,))


def test_criterion_07_power_cancellation():
    rng = random.Random(107)
    with _Timer("7 power cancellation"):
        for index in range(200):
            if index % 2 == 0:
                a, b = _equal_pair(rng)
            else:
                a = rand_bivariate(rng, max_support=4, max_exp=3)
                b = rand_bivariate(rng, max_support=4, max_exp=3)
            ra, rb = canonicalize(a), canonicalize(b)
            expected = rat_equal(ra, rb)[0]
            for m in (2, 3, 5):
                assert power_cancel(ra, rb, m) == expected


def test_criterion_08_ideal_classification():
    coeffs = (BOTTOM, Fraction(0), Fraction(1), Fraction(2))
    rng = random.Random(108)
    with _Timer("8 ideal classification"):
        for combo in itertools.product(coeffs, repeat=4):
            p = Polynomial(1, {(i,): c for i, c in enumerate(combo)})
            if p.is_zero:
                continue
            dense = is_dense(p)
            assert dense == ((0,) in p.terms)
            if dense:
                for _ in range(5):
                    a = rand_univariate(rng, max_deg=6)
                    q = closure_witness(a, p)
                    product = p * q
                    assert a + product == product


def _swapped_congruent_pair(rng):
    """Classes that agree on the variety of cX + cY (the diagonal) but
    differ off it."""
    c = rand_coeff(rng, -5, 5, 2)
    d = rand_coeff(rng, -5, 5, 2)
    modulus = canonicalize(Polynomial(2, {(1, 0): c, (0, 1): c}))
    a = canonicalize(Polynomial(2, {(1, 0): d}))
    b = canonicalize(Polynomial(2, {(0, 1): d}))
    return a, b, modulus


def test_criterion_09_congruence_and_radical():
    rng = random.Random(109)
    with _Timer("9 congruence/radical coherence"):
        for index in range(100):
            if index % 4 == 0:
                a, b, modulus = _swapped_congruent_pair(rng)
                assert congruent_mod(a, b, modulus)
            else:
                a = canonicalize(rand_bivariate(rng, max_support=4, max_exp=2))
                b = canonicalize(rand_bivariate(rng, max_support=4, max_exp=2))
                modulus = canonicalize(rand_bivariate(rng, max_support=4, max_exp=2))
            c = canonicalize(rand_bivariate(rng, max_support=3, max_exp=2))
            assert congruent_mod(a, a, modulus)
            assert congruent_mod(a, b, modulus) == congruent_mod(b, a, modulus)
            if congruent_mod(a, b, modulus):
                assert congruent_mod(rat_add(a, c), rat_add(b, c), modulus)
                assert congruent_mod(rat_mul(a, c), rat_mul(b, c), modulus)
        for index in range(40):
            p = canonicalize(
                rand_bivariate(rng, max_support=3, max_exp=2, with_constant=True)
            )
            if index % 2 == 0:
                q = rat_pow(p, rng.randint(1, 2))
            else:
                q = canonicalize(
                    rand_bivariate(rng, max_support=3, max_exp=2, with_constant=True)
                )
            assert radical_member(q, p) == (divides_power(p, q, 64) is not None)


def test_criterion_10_derivation_property():
    rng = random.Random(110)
    with _Timer("10 derivation property"):
        for _ in range(300):
            p = rand_univariate(rng, max_deg=8)
            q = rand_univariate(rng, max_deg=8)
            assert (p * q).derivative(0) == p.derivative(0) * q + p * q.derivative(0)


def test_criterion_11_cli_golden(tmp_path, capsys):
    from tropoly.cli import main

    with _Timer("11 CLI golden suite"):
        assert main(["roots", "0*x^2 + 3*x + 4"]) == 0
        assert capsys.readouterr().out == (GOLDEN / "roots.json").read_text()

        assert main(["equal", "(x+0)*(x^2+0)", "(x+0)*(x^2+x+0)"]) == 0
        assert capsys.readouterr().out == (GOLDEN / "equal.json").read_text()

        svg = tmp_path / "variety.svg"
        assert (
            main(["variety", "x + y + 0", "--svg", str(svg), "--bbox=-2,-2,2,2"]) == 0
        )
        assert capsys.readouterr().out == (GOLDEN / "variety.json").read_text()
        assert svg.read_bytes() == (GOLDEN / "variety.svg").read_bytes()

        dot = tmp_path / "graph.dot"
        assert main(["graph", "x + y + 0", "--dot", str(dot)]) == 0
        assert capsys.readouterr().out == (GOLDEN / "graph.json").read_text()
        assert dot.read_bytes() == (GOLDEN / "graph.dot").read_bytes()
