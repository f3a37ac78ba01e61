"""Seeded workload generators.

Each workload is a list of `Command`s: the argv handed to
`tropoly.cli.main`, the exit code the command must return, and what the
oracle in `oracles.py` needs to judge the answer.  The program only ever
sees the argv strings; the polynomials and constructions behind them stay
on the benchmark's side.  The same seed always yields the same list.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from tropoly.canon import canonicalize, rat_pow
from tropoly.polynomial import Polynomial

from oracles import newton_roots, value_at

VARIABLES = ("x", "y", "z")

# Inputs whose expected answer is known but which the program gets wrong
# today.  They are run and judged on every cli-small run (see
# `robustness_inputs`), and their names are printed while they fail.
KNOWN_DEFECTS = {
    "deep-nesting-3000": "canon on 3000 nested parentheses escapes with "
    "RecursionError instead of exiting 2",
}


@dataclass
class Command:
    argv: list
    kind: str
    expect_exit: int = 0
    data: dict = field(default_factory=dict)
    name: str | None = None  # set on known-answer robustness inputs
    group: tuple | None = None  # commands whose answers are checked together


def robustness_inputs():
    """Known-answer robustness inputs, run once per cli-small run after
    the timed commands.  Their argv are fixed, so they are kept apart from
    the seeded lists, and a known defect among them does not count in the
    workload's `failed`."""
    return [Command(["canon", "(" * 3000 + "x" + ")" * 3000], "usage-error",
                    expect_exit=2, name="deep-nesting-3000")]


# -- random polynomials ----------------------------------------------------


def rand_coeff(rng, lo=-10, hi=10, max_den=2):
    den = rng.randint(1, max_den)
    return Fraction(rng.randint(lo * den, hi * den), den)


def rand_poly(rng, arity, size, max_exp, lo=-10, hi=10, max_den=2):
    """Nonzero polynomial with exactly `size` distinct exponent vectors."""
    size = min(size, (max_exp + 1) ** arity)
    support = set()
    while len(support) < size:
        support.add(tuple(rng.randint(0, max_exp) for _ in range(arity)))
    return Polynomial(arity, {e: rand_coeff(rng, lo, hi, max_den) for e in sorted(support)})


def _in_hull(points):
    """Membership test for the convex hull of integer points in the plane."""
    pts = sorted(set(points))

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def half(seq):
        chain = []
        for p in seq:
            while len(chain) >= 2 and cross(chain[-2], chain[-1], p) <= 0:
                chain.pop()
            chain.append(p)
        return chain[:-1]

    hull = half(pts) + half(reversed(pts)) if len(pts) > 2 else pts
    if len(hull) < 3:
        lo, hi = pts[0], pts[-1]
        return lambda g: cross(lo, hi, g) == 0 and min(lo, hi) <= g <= max(lo, hi)
    edges = list(zip(hull, hull[1:] + hull[:1]))
    return lambda g: all(cross(a, b, g) >= 0 for a, b in edges)


def shaped_poly(rng, arity, size, extremal, max_exp):
    """Polynomial with `size` terms of which exactly `extremal` are
    extremal.  Those sit on a concave paraboloid, tilted by a random
    linear form, plus a jitter below 1/2: any convex combination of other
    lattice points lies at least 1 below the paraboloid, so each stays a
    vertex of the upper hull.  The remaining terms (arity 2 only) sit
    inside the Newton polygon, below every extremal coefficient, so below
    the envelope.  Returns the polynomial and its extremal exponents."""
    centre = Fraction(max_exp, 2)
    tilt = [rng.randint(-3, 3) for _ in range(arity)]
    shift = rng.randint(-5, 5)
    support = set()
    while len(support) < extremal:
        support.add(tuple(rng.randint(0, max_exp) for _ in range(arity)))
    terms = {
        e: shift + Fraction(rng.randint(0, 3), 8)
        + sum(t * x - (x - centre) ** 2 for t, x in zip(tilt, e))
        for e in sorted(support)
    }
    if size > extremal:
        inside = _in_hull(list(terms))
        candidates = [
            (a, b) for a in range(max_exp + 1) for b in range(max_exp + 1)
            if (a, b) not in terms and inside((a, b))
        ]
        floor = min(terms.values())
        for e in rng.sample(candidates, min(size - extremal, len(candidates))):
            terms[e] = floor - rng.randint(1, 8)
    return Polynomial(arity, terms), frozenset(support)


def rand_bivariate(rng, max_support=5, max_exp=4, lo=-10, hi=10, max_den=2,
                   with_constant=False):
    """The generator behind the acceptance criteria: random support size in
    [1, max_support], optionally with the constant term added.  Kept draw
    for draw identical so seeds reproduce the criteria's instances."""
    size = rng.randint(1, max_support)
    support = set()
    while len(support) < size:
        support.add((rng.randint(0, max_exp), rng.randint(0, max_exp)))
    if with_constant:
        support.add((0, 0))
    return Polynomial(2, {e: rand_coeff(rng, lo, hi, max_den) for e in support})


def expr(poly):
    """Expression text naming every variable in every term (`y^0`
    included), so the CLI infers the polynomial's own arity."""
    terms = []
    for exps, coeff in sorted(poly.terms.items()):
        factors = [str(coeff)] + [f"{VARIABLES[i]}^{e}" for i, e in enumerate(exps)]
        terms.append("*".join(factors))
    return " + ".join(terms)


def below_chord_pair(rng, p, extra=2):
    """A second polynomial in p's class: add terms at midpoints of two
    exponents of p, with coefficients at or below the chord.  Such a term
    lies under the concave envelope, so the function is unchanged.  A
    midpoint off the lattice adds nothing."""
    items = sorted(p.terms.items())
    terms = dict(p.terms)
    for _ in range(extra):
        (e1, c1), (e2, c2) = rng.sample(items, 2) if len(items) > 1 else (items[0], items[0])
        if any((a + b) % 2 for a, b in zip(e1, e2)):
            gamma, top = e1, c1
        else:
            gamma = tuple((a + b) // 2 for a, b in zip(e1, e2))
            top = (c1 + c2) / 2
        coeff = top - rng.randint(0, 3)
        terms[gamma] = max(terms.get(gamma, coeff), coeff)
    return Polynomial(p.arity, terms)


def balanced(rng, values):
    """Endless stream of seeded permutations of `values`: each cycle of
    len(values) draws holds every value once."""
    values = list(values)
    while True:
        order = values[:]
        rng.shuffle(order)
        yield from order


# -- canon-scale -----------------------------------------------------------

# One block of the canon-scale mix: arity-2 commands are the bulk, the
# arity-3 `canon` sets the latency tail.
_CANON_BLOCK = (
    ("canon", 2), ("equal", 2), ("canon", 2), ("equal", 2), ("canon", 2),
    ("equal", 2), ("canon", 2), ("equal", 2), ("canon", 3), ("equal", 3),
)


def canon_scale(rng, blocks):
    """Arity 2: 8-24 terms, 5-10 of them extremal, exponents up to 10.
    Arity 3: 4-6 terms, all extremal, exponents up to 3.  Support size and
    extremal count set most of a command's cost, so both are drawn
    balanced (every value once per cycle).  Half of the `equal` pairs are
    equal by construction."""
    sizes = {2: balanced(rng, range(8, 25)), 3: balanced(rng, range(4, 7))}
    extremal = balanced(rng, range(5, 11))
    constructed = balanced(rng, (True, False))

    def draw(arity):
        size = next(sizes[arity])
        if arity == 3:
            return shaped_poly(rng, 3, size, size, 3)[0]
        return shaped_poly(rng, 2, size, min(size, next(extremal)), 10)[0]

    commands = []
    for _ in range(blocks):
        for command, arity in _CANON_BLOCK:
            p = draw(arity)
            if command == "canon":
                commands.append(Command(["canon", expr(p)], "canon", data={"poly": p}))
                continue
            equal = next(constructed)
            q = below_chord_pair(rng, p) if equal else draw(arity)
            commands.append(
                Command(["equal", expr(p), expr(q)], "equal",
                        data={"p": p, "q": q, "constructed_equal": equal})
            )
    return commands


# -- nullstellensatz -------------------------------------------------------


def nullstellensatz_pair(rng, multiple):
    """Acceptance criterion 4's instance generator, draw for draw."""
    p = rand_bivariate(rng, max_support=4, max_exp=3, with_constant=True)
    rp = canonicalize(p)
    if multiple:
        c = rand_coeff(rng, -5, 5, 2)
        m = rng.randint(1, 2)
        r = rand_bivariate(rng, max_support=3, max_exp=2, with_constant=True)
        q = canonicalize(rat_pow(rp, m).min_representative() * r).min_representative()
        return p, q.scale(c)
    return p, rand_bivariate(rng, max_support=4, max_exp=3, with_constant=True)


def nullstellensatz(rng, pairs, kmax=64):
    commands = []
    for index in range(pairs):
        multiple = index % 2 == 0
        p, q = nullstellensatz_pair(rng, multiple)
        data = {"p": p, "q": q, "multiple": multiple}
        commands.append(Command(["divides-power", expr(p), expr(q), "--kmax", str(kmax)],
                                "divides-power", data=data, group=("pair", index)))
        commands.append(Command(["radical-member", expr(q), expr(p)],
                                "radical-member", data=data, group=("pair", index)))
    return commands


# -- varieties -------------------------------------------------------------


def varieties(rng, blocks, outdir):
    """Per block: the variety of one modulus with an SVG, the dominance
    graph of another, and congruence of two classes with 3-4 terms modulo
    a third, in both orders, reflexively, and against the first class
    raised by 1.  Moduli have 8-20 terms,
    4-8 of them extremal, and exponents up to 6; size and extremal count
    are drawn balanced, and every command draws its own modulus, since
    the modulus sets most of a command's cost.  Every fourth block
    uses criterion 9's swapped pair instead (d*x and d*y modulo
    c*x + c*y), congruent by construction."""
    sizes = balanced(rng, range(8, 21))
    extremal = balanced(rng, range(4, 9))
    small = balanced(rng, (3, 4))

    def modulus():
        return shaped_poly(rng, 2, next(sizes), next(extremal), 6)

    commands = []
    for block in range(blocks):
        m, m_extremal = modulus()
        svg = f"{outdir}/variety-{block}.svg"
        commands.append(Command(["variety", expr(m), "--svg", svg], "variety",
                                data={"poly": m, "svg": svg, "extremal": m_extremal}))
        m = modulus()[0]
        dot = f"{outdir}/graph-{block}.dot"
        commands.append(Command(["graph", expr(m), "--dot", dot], "graph",
                                data={"poly": m, "dot": dot}))
        swapped = block % 4 == 0
        if swapped:
            c, d = rand_coeff(rng, -5, 5, 2), rand_coeff(rng, -5, 5, 2)
            mod = Polynomial(2, {(1, 0): c, (0, 1): c})
            a = Polynomial(2, {(1, 0): d})
            b = Polynomial(2, {(0, 1): d})
        else:
            mod = modulus()[0]
            a = rand_poly(rng, 2, next(small), 3)
            b = rand_poly(rng, 2, next(small), 3)
        raised = Polynomial(2, {e: c + 1 for e, c in a.terms.items()})
        for lhs, rhs, role in ((a, b, "ab"), (b, a, "ba"), (a, a, "aa"), (a, raised, "a1")):
            commands.append(Command(
                ["congruent", "--mod", expr(mod), expr(lhs), expr(rhs)], "congruent",
                data={"mod": mod, "a": lhs, "b": rhs, "role": role, "swapped": swapped},
                group=("congruent", block),
            ))
    return commands


# -- cli-small -------------------------------------------------------------

GOLDEN = (
    (["roots", "0*x^2 + 3*x + 4"], "roots.json", ()),
    (["equal", "(x+0)*(x^2+0)", "(x+0)*(x^2+x+0)"], "equal.json", ()),
    (["variety", "x + y + 0", "--svg", "{out}/golden.svg", "--bbox=-2,-2,2,2"],
     "variety.json", (("{out}/golden.svg", "variety.svg"),)),
    (["graph", "x + y + 0", "--dot", "{out}/golden.dot"],
     "graph.json", (("{out}/golden.dot", "graph.dot"),)),
)


def _linear_power(rng, root, mult):
    """A class with the single root `root` of multiplicity `mult`:
    c*x^mult + (c + mult*root)."""
    c = rand_coeff(rng, -5, 5, 2)
    return Polynomial(1, {(mult,): c, (0,): c + mult * root})


def _malformed(rng, biv, uni):
    """One input that must exit 2: a syntax error, an arity mismatch or
    an argument error.  `expr` always names y, so `biv` has arity 2."""
    text = expr(biv)
    choices = (
        ["canon", text + " + + 1"],
        ["canon", "(" + text],
        ["canon", text + ")"],
        ["canon", text + " & 1"],
        ["canon", text + " + x^y"],
        ["equal", "X0 + 1", text],
        ["equal", text],
        ["roots", text],
        ["factor", text],
        ["variety", text + " + 0*z^1"],
        ["divides-power", expr(uni), expr(uni), "--kmax", "0"],
        ["frobnicate", text],
    )
    return choices[rng.randrange(len(choices))]


def cli_small(rng, blocks, outdir, golden_dir=None):
    """Tiny commands over all ten subcommands: one each per block, then one
    malformed input.  One-variable inputs have degree at most 10 and
    two-variable ones at most 5 terms with exponents up to 4.  Even blocks
    hold the constructed cases (equal pairs, multiples, roots shared with
    the other operand), odd blocks independent random operands.  Given
    `golden_dir`, the list opens with the four golden commands, whose argv
    are fixed."""
    commands = []
    if golden_dir is not None:
        commands += [
            Command(
                [a.format(out=outdir) for a in argv], "golden",
                data={"stdout": f"{golden_dir}/{stdout}",
                      "files": [(p.format(out=outdir), f"{golden_dir}/{g}") for p, g in files]},
            )
            for argv, stdout, files in GOLDEN
        ]
    sizes = balanced(rng, range(1, 6))
    degrees = balanced(rng, range(1, 11))

    def biv(size=None):
        return rand_poly(rng, 2, size or next(sizes), 4)

    def uni(max_deg=None):
        deg = next(degrees) if max_deg is None else rng.randint(1, max_deg)
        support = {deg} | {rng.randint(0, deg) for _ in range(deg)}
        return Polynomial(1, {(e,): rand_coeff(rng, -20, 20, 4) for e in sorted(support)})

    for block in range(blocks):
        constructed = block % 2 == 0
        p = biv()
        commands.append(Command(["canon", expr(p)], "canon", data={"poly": p}))
        p = uni()
        commands.append(Command(["roots", expr(p)], "roots", data={"poly": p}))
        p = uni()
        commands.append(Command(["factor", expr(p)], "factor", data={"poly": p}))

        p = biv()
        q = below_chord_pair(rng, p) if constructed else biv()
        commands.append(Command(["equal", expr(p), expr(q)], "equal",
                                data={"p": p, "q": q, "constructed_equal": constructed}))

        # a non-multiple reaches past num's largest x-exponent
        den, num = biv(rng.randint(1, 3)), biv()
        if constructed:
            num = den * biv(rng.randint(1, 3))
        else:
            top = max(e[0] for e in num.terms)
            den = Polynomial(2, {**den.terms, (top + 1, 0): Fraction(0)})
        commands.append(Command(["divides", expr(den), expr(num)], "divides",
                                data={"den": den, "num": num, "multiple": constructed}))

        q = uni(5)
        q_roots = sorted(newton_roots(q.terms)[0])
        if constructed and q_roots:
            p = _linear_power(rng, rng.choice(q_roots), rng.randint(1, 3))
        else:
            p = uni(4)
        commands.append(Command(["divides-power", expr(p), expr(q), "--kmax", "8"],
                                "divides-power-1", data={"p": p, "q": q, "kmax": 8}))
        commands.append(Command(["radical-member", expr(q), expr(p)], "radical-member-1",
                                data={"p": p, "q": q}))

        # a congruent b: a term of b lying strictly below a at every root
        mod, a = uni(4), uni(6)
        mod_roots = newton_roots(mod.terms)[0]
        if constructed and mod_roots:
            j = rng.randint(0, 6)
            c = min(value_at(a.terms, (r,)) - j * r for r in mod_roots) - 1
            b = a + Polynomial(1, {(j,): c})
        else:
            b = uni(6)
        commands.append(Command(["congruent", "--mod", expr(mod), expr(a), expr(b)],
                                "congruent-1", data={"mod": mod, "a": a, "b": b}))

        p = biv()
        svg = f"{outdir}/v{block}.svg"
        commands.append(Command(["variety", expr(p), "--svg", svg], "variety",
                                data={"poly": p, "svg": svg}))
        p = biv()
        dot = f"{outdir}/g{block}.dot"
        commands.append(Command(["graph", expr(p), "--dot", dot], "graph",
                                data={"poly": p, "dot": dot}))
        commands.append(Command(_malformed(rng, biv(), uni(3)), "usage-error", expect_exit=2))
    return commands
