"""Answer checks, run after the timed region.

Each check gets the command and what running it produced and returns
None when the answer is right, or a one-line reason.  Where a check can
be made without the program's own procedures it is: max-plus evaluation
at exact points, concave envelopes interpolated over the simplices of a
support, Newton polygons of one-variable inputs, and the constructions
the workloads used.  The remaining checks are the ones the
acceptance criteria make, through the library's Fourier-Motzkin
feasibility and class arithmetic.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import combinations, product
from math import ceil
from pathlib import Path

from tropoly.canon import canonicalize, monomial_versus_constraints, rat_mul, rat_pow
from tropoly.geometry import InequalitySystem, is_strictly_feasible
from tropoly.polynomial import Polynomial


_MISSING = object()


class Outcome:
    """What one command produced: its exit code (or the name of the
    exception that escaped `main`), stdout and stderr."""

    __slots__ = ("code", "out", "err")

    def __init__(self, code, out, err):
        self.code, self.out, self.err = code, out, err


# -- exact evaluation, independent of the program ---------------------------


def value_at(terms, point):
    return max(c + sum(e * x for e, x in zip(exps, point)) for exps, c in terms.items())


def attaining(terms, point):
    best = value_at(terms, point)
    return [e for e, c in terms.items() if c + sum(a * x for a, x in zip(e, point)) == best]


def terms_of(listing):
    return {tuple(t["exponents"]): Fraction(t["coeff"]) for t in listing}


def sample_points(seed, arity, count=12):
    rng = random.Random(seed)
    return [
        tuple(Fraction(rng.randint(-80, 80), rng.randint(1, 8)) for _ in range(arity))
        for _ in range(count)
    ]


def beats_somewhere(first, second):
    """Some monomial of `first` strictly beats every monomial of `second`
    at some point (acceptance criterion 3's oracle).  A monomial of
    `second` at the same exponent with a coefficient at least as large
    dominates everywhere, which settles that monomial without a
    feasibility run."""
    arity = len(next(iter(first)))
    for alpha, c_alpha in first.items():
        if second.get(alpha, c_alpha - 1) >= c_alpha:
            continue
        system = InequalitySystem(arity, monomial_versus_constraints(alpha, c_alpha, second))
        if is_strictly_feasible(system)[0]:
            return True
    return False


def same_function(p, q):
    return not beats_somewhere(p, q) and not beats_somewhere(q, p)


# -- concave envelopes, from the simplices of the support ---------------


def _det(m):
    """Determinant of a small square matrix, by cofactor expansion."""
    if not m:
        return 1
    return sum(
        (-1) ** j * m[0][j] * _det([row[:j] + row[j + 1:] for row in m[1:]])
        for j in range(len(m))
    )


def _adjugate(m):
    k = len(m)
    return [
        [(-1) ** (i + j) * _det([row[:i] + row[i + 1:] for r, row in enumerate(m) if r != j])
         for j in range(k)]
        for i in range(k)
    ]


def _affine_dimension(points):
    """The rank of the differences to the first point: the largest k with
    a non-zero k x k minor."""
    vectors = [[a - b for a, b in zip(p, points[0])] for p in points[1:]]
    coords = range(len(points[0]))
    for k in range(min(len(coords), len(vectors)), 0, -1):
        for chosen in combinations(vectors, k):
            if any(_det([[v[r] for r in rows] for v in chosen]) for rows in combinations(coords, k)):
                return k
    return 0


def envelope_values(terms, points=None):
    """The concave envelope of {exponent: coeff} at each point of `points`
    that lies in the Newton polytope, as {point: value}; with `points`
    None, at every lattice point of the Newton polytope.  The envelope at
    g is the largest value interpolated over a simplex of the support
    that contains g, and simplices of the support's own dimension k are
    enough: every point of the polytope lies in one (Caratheodory), and a
    smaller simplex extends to one by points of weight zero.  Barycentric
    coordinates are exact, scaled by the simplex's determinant; no program
    code is called."""
    support = sorted(terms)
    arity = len(support[0])
    k = _affine_dimension(support)
    best = {}
    for simplex in combinations(support, k + 1):
        s0, rest = simplex[0], simplex[1:]
        vectors = [[a - b for a, b in zip(e, s0)] for e in rest]
        for rows in combinations(range(arity), k):
            minor = [[v[r] for v in vectors] for r in rows]
            det = _det(minor)
            if det:
                break
        else:
            continue  # affinely dependent
        adj = _adjugate(minor)
        if det < 0:
            det, adj = -det, [[-a for a in row] for row in adj]
        if points is None:
            box = [range(min(e[c] for e in simplex), max(e[c] for e in simplex) + 1)
                   for c in range(arity)]
            candidates = product(*box)
        else:
            candidates = points
        c0 = terms[s0]
        for g in candidates:
            diff = [a - b for a, b in zip(g, s0)]
            # det times the barycentric weights of rest, from the chosen rows
            mu = [sum(adj[i][j] * diff[r] for j, r in enumerate(rows)) for i in range(k)]
            if any(m < 0 for m in mu) or sum(mu) > det:
                continue
            if any(diff[c] * det != sum(m * v[c] for m, v in zip(mu, vectors))
                   for c in range(arity)):
                continue  # off the simplex's affine hull
            value = c0 + sum((m * (terms[e] - c0) for m, e in zip(mu, rest)), Fraction(0)) / det
            if g not in best or value > best[g]:
                best[g] = value
    return best


def extremal_exponents(terms):
    """The terms strictly above the envelope of all the others at their
    own exponent: the vertices of the lifted upper hull."""
    out = set()
    for alpha, c in terms.items():
        others = {e: v for e, v in terms.items() if e != alpha}
        below = envelope_values(others, [alpha]).get(alpha) if others else None
        if below is None or below < c:
            out.add(alpha)
    return out


def tie_pairs(extremal):
    """Unordered pairs of extremal terms that both attain the maximum at
    some point.  That holds exactly when the envelope at their midpoint
    is the mean of their coefficients: a supporting plane there touches
    both, and the plane's slope is the point."""
    pairs = list(combinations(sorted(extremal), 2))
    mids = {p: tuple(Fraction(a + b, 2) for a, b in zip(*p)) for p in pairs}
    env = envelope_values(extremal, list(mids.values()))
    return {p for p in pairs if env[mids[p]] == (extremal[p[0]] + extremal[p[1]]) / 2}


# -- one-variable root data, from the Newton polygon ----------------------


def _upper_hull(terms):
    """Vertices of the Newton polygon of a one-variable polynomial given
    as {(i,): coeff}, ascending in the exponent."""
    hull = []
    for point in sorted((e[0], c) for e, c in terms.items()):
        while len(hull) >= 2:
            (x0, y0), (x1, y1) = hull[-2], hull[-1]
            if (y1 - y0) * (point[0] - x1) > (point[1] - y1) * (x1 - x0):
                break
            hull.pop()
        hull.append(point)
    return hull


def newton_roots(terms):
    """({finite root: multiplicity}, valuation) of a one-variable
    polynomial."""
    hull = _upper_hull(terms)
    finite = {(ci - cj) / (j - i): j - i for (i, ci), (j, cj) in zip(hull, hull[1:])}
    return finite, hull[0][0]


def saturated(terms):
    """The maximal representative of a one-variable class: the Newton
    polygon's value at every integer between valuation and degree."""
    hull = _upper_hull(terms)
    out = {(hull[0][0],): hull[0][1]}
    for (i, ci), (j, cj) in zip(hull, hull[1:]):
        for t in range(i + 1, j + 1):
            out[(t,)] = ci + (cj - ci) * Fraction(t - i, j - i)
    return out


def smallest_power(p_terms, q_terms, kmax):
    """Least k <= kmax with p dividing q**k, from root multiplicities:
    every root of p (the bottom root counted by the valuation) must be a
    root of q, with k times q's multiplicity covering p's."""
    p_roots, p_val = newton_roots(p_terms)
    q_roots, q_val = newton_roots(q_terms)
    needs = [(m, q_roots.get(r, 0)) for r, m in p_roots.items()]
    if p_val:
        needs.append((p_val, q_val))
    k = 1
    for need, have in needs:
        if have == 0:
            return None
        k = max(k, ceil(need / have))
    return k if k <= kmax else None


def _univariate_expansion(leading, roots, bottom):
    product = {(bottom,): leading}
    for root, mult in roots:
        for _ in range(mult):
            step = {}
            for (e,), c in product.items():
                for shift, coeff in ((1, Fraction(0)), (0, root)):
                    key = (e + shift,)
                    step[key] = max(step.get(key, c + coeff), c + coeff)
            product = step
    return product


# -- checks per command kind ----------------------------------------------


def _json(outcome):
    return json.loads(outcome.out)["result"]


def check_canon(command, outcome, seed):
    """min: a sub-polynomial of the input, the same function (seeded
    points and criterion 3's FM oracle), and every term extremal.  max:
    the envelope of min at every lattice point of the Newton polytope."""
    p = command.data["poly"].terms
    result = _json(outcome)
    lo, hi = terms_of(result["min"]), terms_of(result["max"])
    if not lo or any(p.get(e) != c for e, c in lo.items()):
        return "min representative is not a sub-polynomial of the input"
    for point in sample_points(seed, command.data["poly"].arity):
        if not value_at(p, point) == value_at(lo, point) == value_at(hi, point):
            return f"representatives differ from the input at {point}"
    if not same_function(p, lo):
        return "min representative is a different function (FM dominance)"
    if extremal_exponents(lo) != set(lo):
        return "min representative keeps a term that is not extremal"
    if hi != envelope_values(lo):
        return "max representative is not the envelope at every lattice point of the polytope"
    return None


def check_equal(command, outcome, seed):
    p, q = command.data["p"].terms, command.data["q"].terms
    result = _json(outcome)
    if command.data["constructed_equal"]:
        return None if result["equal"] else "constructed-equal pair reported unequal"
    if result["equal"]:
        return None if same_function(p, q) else "unequal pair reported equal"
    witness = tuple(Fraction(x) for x in result["witness"])
    if value_at(p, witness) == value_at(q, witness):
        return f"witness {result['witness']} does not separate the pair"
    return None


def _check_cells(poly, cells):
    terms = poly.terms
    for cell in cells:
        pair = [tuple(e) for e in cell["pair"]]
        witness = tuple(Fraction(x) for x in cell["witness"])
        top = attaining(terms, witness)
        if any(e not in top for e in pair):
            return f"cell {pair}: witness {cell['witness']} is not where the pair ties at the max"
    return None


def check_variety(command, outcome, seed):
    """Each cell's witness is a tie of its pair at the maximum, and the
    cells are exactly the tying pairs of extremal terms.  The extremal
    terms are the construction's where the workload built them."""
    poly = command.data["poly"]
    result = _json(outcome)
    reason = _check_cells(poly, result["cells"])
    if reason:
        return reason
    extremal = command.data.get("extremal") or extremal_exponents(poly.terms)
    expected = tie_pairs({e: poly.terms[e] for e in extremal})
    listed = [tuple(sorted(tuple(e) for e in cell["pair"])) for cell in result["cells"]]
    if len(listed) != len(set(listed)) or set(listed) != expected:
        return f"cells {len(listed)}, expected the {len(expected)} tying pairs of extremal terms"
    svg = Path(command.data["svg"]).read_text(encoding="utf-8")
    if not (svg.startswith("<?xml") and svg.endswith("</svg>\n")):
        return "SVG file is incomplete"
    return None


def check_graph(command, outcome, seed):
    result = _json(outcome)
    vertices = {tuple(v) for v in result["vertices"]}
    if not vertices <= set(command.data["poly"].terms):
        return "graph vertex outside the input's support"
    adjacency = {v: set() for v in vertices}
    for a, b in result["edges"]:
        a, b = tuple(a), tuple(b)
        if a not in vertices or b not in vertices:
            return "graph edge to a non-vertex"
        adjacency[a].add(b)
        adjacency[b].add(a)
    seen, stack = set(), [min(vertices)]
    while stack:
        v = stack.pop()
        if v not in seen:
            seen.add(v)
            stack.extend(adjacency[v] - seen)
    if seen != vertices or result["connected"] is not True:
        return "dominance graph is not connected"
    dot = Path(command.data["dot"]).read_text(encoding="utf-8")
    if dot.count(" -- ") != len(result["edges"]):
        return "DOT file does not list the graph's edges"
    return None


def check_nullstellensatz_pair(commands, outcomes):
    """divides-power against radical-member (criterion 4), with the
    cofactor multiplied back.  A pair cut by the end of the run is
    checked as far as its one answer allows."""
    answers = {c.kind: _json(o) for c, o in zip(commands, outcomes)}
    data = commands[0].data
    power = answers.get("divides-power", _MISSING)
    member = answers.get("radical-member", _MISSING)
    if data["multiple"] and (power is None or member is False):
        return "constructed multiple reported as not dividing any power"
    if _MISSING not in (power, member) and (power is not None) != member:
        return "divides-power and radical-member disagree"
    if power not in (None, _MISSING):
        cofactor = canonicalize(Polynomial(data["p"].arity, terms_of(power["cofactor"])))
        if rat_mul(canonicalize(data["p"]), cofactor) != rat_pow(canonicalize(data["q"]), power["k"]):
            return f"P * cofactor != Q^{power['k']}"
    return None


def check_congruent_group(commands, outcomes):
    """Symmetry and reflexivity within one (a, b, modulus) group,
    congruence of criterion 9's swapped pair, and non-congruence of a and
    a raised by 1: they differ everywhere, and every modulus here has a
    non-empty variety."""
    answers = {c.data["role"]: _json(o) for c, o in zip(commands, outcomes)}
    if answers.get("aa") is False:
        return "congruence is not reflexive"
    if answers.get("a1") is True:
        return "a class reported congruent to itself raised by 1"
    if "ab" in answers and "ba" in answers and answers["ab"] != answers["ba"]:
        return "congruence is not symmetric"
    if commands[0].data["swapped"] and answers.get("ab") is False:
        return "swapped pair reported not congruent"
    return None


def check_roots(command, outcome, seed):
    """Acceptance criteria 1: at most deg finite roots, multiplicities
    summing to the degree, each root a zero; plus agreement with the
    Newton polygon."""
    p = command.data["poly"].terms
    result = _json(outcome)
    finite = [(Fraction(r["root"]), r["mult"]) for r in result if r["root"] != "-inf"]
    bottom = sum(r["mult"] for r in result if r["root"] == "-inf")
    degree = max(e[0] for e in p)
    if len(finite) > degree or sum(m for _, m in finite) + bottom != degree:
        return "root multiplicities do not sum to the degree"
    for root, _ in finite:
        if len(attaining(p, (root,))) < 2:
            return f"root {root} is not a zero"
    expected, valuation = newton_roots(p)
    if dict(finite) != expected or bottom != valuation:
        return "roots differ from the Newton polygon"
    return None


def check_factor(command, outcome, seed):
    """Acceptance criterion 2: the factorization expands to the maximal
    representative."""
    p = command.data["poly"].terms
    result = _json(outcome)
    roots = [(Fraction(r["root"]), r["mult"]) for r in result["roots"] if r["root"] != "-inf"]
    bottom = sum(r["mult"] for r in result["roots"] if r["root"] == "-inf")
    expanded = _univariate_expansion(Fraction(result["leading"]), roots, bottom)
    return None if expanded == saturated(p) else "factorization does not expand to the class"


def check_divides(command, outcome, seed):
    result = _json(outcome)
    if not command.data["multiple"]:
        return "reported divisible past the degree bound" if result["divides"] else None
    if not result["divides"]:
        return "constructed multiple reported not divisible"
    den, num = command.data["den"], command.data["num"]
    cofactor = canonicalize(Polynomial(den.arity, terms_of(result["cofactor"])))
    if rat_mul(canonicalize(den), cofactor) != canonicalize(num):
        return "den * cofactor != num"
    return None


def check_divides_power_univariate(command, outcome, seed):
    data = command.data
    result = _json(outcome)
    expected = smallest_power(data["p"].terms, data["q"].terms, data["kmax"])
    found = None if result is None else result["k"]
    if found != expected:
        return f"smallest power {found}, expected {expected}"
    if result is not None:
        cofactor = canonicalize(Polynomial(1, terms_of(result["cofactor"])))
        if rat_mul(canonicalize(data["p"]), cofactor) != rat_pow(canonicalize(data["q"]), found):
            return f"P * cofactor != Q^{found}"
    return None


def check_radical_univariate(command, outcome, seed):
    p_roots, _ = newton_roots(command.data["p"].terms)
    q_roots, _ = newton_roots(command.data["q"].terms)
    return None if _json(outcome) == (set(p_roots) <= set(q_roots)) else "radical membership wrong"


def check_congruent_univariate(command, outcome, seed):
    data = command.data
    roots, _ = newton_roots(data["mod"].terms)
    expected = all(
        value_at(data["a"].terms, (r,)) == value_at(data["b"].terms, (r,)) for r in roots
    )
    return None if _json(outcome) == expected else "congruence modulo the roots wrong"


def check_usage_error(command, outcome, seed):
    if outcome.out:
        return "a usage error printed a result"
    return None


def check_golden(command, outcome, seed):
    if outcome.out != Path(command.data["stdout"]).read_text(encoding="utf-8"):
        return "stdout differs from the golden file"
    for produced, golden in command.data.get("files", ()):
        if Path(produced).read_bytes() != Path(golden).read_bytes():
            return f"{Path(produced).name} differs from the golden file"
    return None


CHECKS = {
    "canon": check_canon,
    "equal": check_equal,
    "variety": check_variety,
    "graph": check_graph,
    "roots": check_roots,
    "factor": check_factor,
    "divides": check_divides,
    "divides-power-1": check_divides_power_univariate,
    "radical-member-1": check_radical_univariate,
    "congruent-1": check_congruent_univariate,
    "usage-error": check_usage_error,
    "golden": check_golden,
}


GROUP_CHECKS = {
    "pair": check_nullstellensatz_pair,
    "congruent": check_congruent_group,
}


def _guarded(check, *args):
    try:
        return check(*args)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable answer: {type(exc).__name__}: {exc}"


def check_all(commands, outcomes, seed):
    """Judge every command that ran, then every group of commands whose
    answers must agree.  `outcomes` holds the Outcome of each command of
    a prefix of `commands`; returns {index: reason} for the failures."""
    failures = {}
    groups = {}
    for index, outcome in enumerate(outcomes):
        command = commands[index]
        if command.group is not None:
            groups.setdefault(command.group, []).append(index)
        if outcome.code != command.expect_exit:
            failures[index] = f"exit {outcome.code}, expected {command.expect_exit}"
        elif command.kind in CHECKS:
            reason = _guarded(CHECKS[command.kind], command, outcome, seed * 1_000_003 + index)
            if reason:
                failures[index] = reason
    for (name, _), members in groups.items():
        if any(i in failures for i in members):
            continue
        reason = _guarded(GROUP_CHECKS[name], [commands[i] for i in members],
                          [outcomes[i] for i in members])
        if reason:
            failures[members[0]] = reason
    return failures
