"""Command-line front end.

Expressions use log-domain coefficients by default: `+` is the tropical
maximum, `*` adds, `^` takes natural powers, and `-inf` is the semiring
zero.  Variables are x, y, z or X1..Xn.  Coefficients are exact
rationals: integers, fractions p/q, or decimals (converted exactly).
With --convention=classical the coefficients are read as nonnegative
values in the (max, *) presentation and mapped to exact logarithms in a
declared rational base; anything that is not a rational power of the
base is rejected.

Results go to stdout as JSON {"command", "input", "result"}; diagnostics
go to stderr.  Exit codes: 0 success, 1 domain errors, 2 usage errors.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from .canon import canonicalize, divide, divides_power, rat_equal
from .errors import DomainError, ParseError, TropicalError, UsageError
from .ideals import congruent_mod, radical_member
from .polynomial import Polynomial
from .semifield import BOTTOM, MAXPLUS
from .univariate import factor, roots
from .variety import dominance_graph, variety_cells

_TOKEN = re.compile(
    r"\s*(?:(?P<ninf>-inf\b)|(?P<num>-?\d+(?:/\d+|\.\d+)?)|(?P<var>[xyz]\b|X\d+)|(?P<op>[+*^()]))"
)

_VAR_INDEX = {"x": 0, "y": 1, "z": 2}

# Deepest parenthesis nesting an expression may use; deeper input is a
# ParseError (exit 2).  The parser spends three stack frames per level and
# the tree walks at most three, so 256 levels stay within Python's default
# recursion limit of 1000 with room for the caller's own frames.
MAX_NESTING = 256

# Largest exponent literal an expression may use; a larger one is a
# ParseError (exit 2).  A power of a sum is expanded term by term, so the
# exponent bounds the size of the expansion.
MAX_EXPONENT = 1000


def tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None or match.end() == match.start():
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad = len(text) - len(stripped)
            raise ParseError(f"unexpected character {text[bad]!r}", bad)
        if match.lastgroup is not None:
            tokens.append((match.lastgroup, match.group(match.lastgroup), match.start(match.lastgroup)))
        pos = match.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    """Recursive descent over +, *, ^ with the usual precedence.

    Sums and products are flat n-ary nodes, so a long sum or product adds
    one tree level, and only parentheses make the tree deeper.
    """

    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def parse(self):
        node = self.expression()
        token = self.peek()
        if token[0] != "end":
            raise ParseError(f"trailing input {token[1]!r}", token[2])
        return node

    def expression(self):
        terms = [self.term()]
        while self.peek()[1] == "+":
            self.advance()
            terms.append(self.term())
        return terms[0] if len(terms) == 1 else ("add", terms)

    def term(self):
        factors = [self.power()]
        while self.peek()[1] == "*":
            self.advance()
            factors.append(self.power())
        return factors[0] if len(factors) == 1 else ("mul", factors)

    def power(self):
        """An atom with an optional natural exponent.  Atoms are parsed
        inline, so each parenthesis level costs three stack frames
        (expression, term, power); see MAX_NESTING."""
        kind, text, pos = self.advance()
        if kind == "num":
            node = ("num", Fraction(text), pos)
        elif kind == "ninf":
            node = ("ninf", pos)
        elif kind == "var":
            index = _VAR_INDEX[text] if text in _VAR_INDEX else int(text[1:]) - 1
            if index < 0:
                raise ParseError("variable numbering starts at X1", pos)
            node = ("var", index)
        elif text == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nest deeper than {MAX_NESTING} levels", pos)
            self.depth += 1
            node = self.expression()
            self.depth -= 1
            closing = self.advance()
            if closing[1] != ")":
                raise ParseError("expected ')'", closing[2])
        else:
            raise ParseError(f"unexpected token {text!r}", pos)
        if self.peek()[1] == "^":
            self.advance()
            kind, text, pos = self.advance()
            if kind != "num" or not re.fullmatch(r"\d+", text):
                raise ParseError("exponent must be a natural number literal", pos)
            digits = text.lstrip("0") or "0"
            if len(digits) > len(str(MAX_EXPONENT)) or int(digits) > MAX_EXPONENT:
                raise ParseError(f"exponent exceeds the cap of {MAX_EXPONENT}", pos)
            node = ("pow", node, int(digits))
        return node


def _max_var_index(node):
    kind = node[0]
    if kind == "var":
        return node[1]
    if kind in ("add", "mul"):
        # loops, not generators: a generator would add a stack frame per level
        best = -1
        for child in node[1]:
            best = max(best, _max_var_index(child))
        return best
    if kind == "pow":
        return _max_var_index(node[1])
    return -1


def _to_polynomial(node, arity, coeff_map):
    kind = node[0]
    if kind == "num":
        return Polynomial.constant(arity, coeff_map(node[1], node[2]))
    if kind == "ninf":
        return Polynomial.zero(arity)
    if kind == "var":
        return Polynomial.variable(arity, node[1])
    if kind == "add":
        # one Polynomial for the whole sum; it merges repeated exponents
        items = []
        for child in node[1]:
            items.extend(_to_polynomial(child, arity, coeff_map).terms.items())
        return Polynomial(arity, items)
    if kind == "mul":
        first, *rest = node[1]
        result = _to_polynomial(first, arity, coeff_map)
        for child in rest:
            result = result * _to_polynomial(child, arity, coeff_map)
        return result
    if kind == "pow":
        base, k = _to_polynomial(node[1], arity, coeff_map), node[2]
        if len(base.terms) == 1:
            # a monomial's power scales its exponent and its coefficient
            ((exps, coeff),) = base.terms.items()
            return Polynomial.monomial(arity, [k * e for e in exps], MAXPLUS.pow(coeff, k))
        return base ** k
    raise AssertionError(f"unknown node {kind}")


def _factor_exponents(n):
    """Prime exponent map of a positive integer by trial division."""
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _rational_log(value, base):
    """The exact rational e with base**e == value, or None."""
    if value <= 0 or base <= 0 or base == 1:
        return None
    if value == 1:
        return Fraction(0)
    v_exp = _factor_exponents(value.numerator)
    for prime, k in _factor_exponents(value.denominator).items():
        v_exp[prime] = v_exp.get(prime, 0) - k
    b_exp = _factor_exponents(base.numerator)
    for prime, k in _factor_exponents(base.denominator).items():
        b_exp[prime] = b_exp.get(prime, 0) - k
    ratio = None
    for prime in set(v_exp) | set(b_exp):
        e, f = v_exp.get(prime, 0), b_exp.get(prime, 0)
        if f == 0:
            if e != 0:
                return None
            continue
        candidate = Fraction(e, f)
        if ratio is None:
            ratio = candidate
        elif ratio != candidate:
            return None
    return ratio


def _make_coeff_map(convention, base):
    if convention == "log":
        return lambda value, pos: value
    if base is None:
        raise UsageError("--convention=classical requires --base")
    base = Fraction(base)

    def classical(value, pos):
        if value == 0:
            return BOTTOM
        if value < 0:
            raise ParseError("classical coefficients must be nonnegative", pos)
        log = _rational_log(value, base)
        if log is None:
            raise ParseError(
                f"{value} is not a rational power of the base {base}", pos
            )
        return log

    return classical


def parse_expression(text, convention="log", base=None, min_arity=0):
    """Parse one expression to a polynomial.  The arity is the largest
    variable index used (at least min_arity)."""
    node = _Parser(tokenize(text)).parse()
    arity = max(_max_var_index(node) + 1, min_arity)
    return _to_polynomial(node, arity, _make_coeff_map(convention, base))


def parse_common(texts, convention="log", base=None, min_arity=0):
    """Parse several expressions against a common arity."""
    nodes = [_Parser(tokenize(t)).parse() for t in texts]
    arity = max([_max_var_index(n) + 1 for n in nodes] + [min_arity])
    coeff_map = _make_coeff_map(convention, base)
    return [_to_polynomial(n, arity, coeff_map) for n in nodes]


# -- JSON helpers -----------------------------------------------------------


def fraction_str(value):
    if value is BOTTOM:
        return "-inf"
    return str(value)


def poly_json(poly):
    return [
        {"exponents": list(e), "coeff": fraction_str(c)}
        for e, c in sorted(poly.terms.items())
    ]


def roots_json(multiset):
    out = [{"root": fraction_str(r), "mult": m} for r, m in multiset.roots]
    if multiset.bottom_multiplicity:
        out.append({"root": "-inf", "mult": multiset.bottom_multiplicity})
    return out


def emit(command, given, result):
    print(json.dumps({"command": command, "input": given, "result": result}, indent=2))


# -- SVG / DOT emitters -----------------------------------------------------

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_SVG_SIZE = 400
_SVG_MARGIN = 20


def _svg_coords(point, bbox):
    xmin, ymin, xmax, ymax = bbox
    sx = _SVG_MARGIN + (point[0] - xmin) / (xmax - xmin) * _SVG_SIZE
    sy = _SVG_MARGIN + (ymax - point[1]) / (ymax - ymin) * _SVG_SIZE
    return float(sx), float(sy)


def _clip_cell(cell, bbox):
    """Intersect a cell with the box; returns ('segment', p, q),
    ('point', p) or None.  The tie line is parametrized exactly and each
    constraint becomes a rational bound on the parameter."""
    xmin, ymin, xmax, ymax = bbox
    a, b = cell.tie.coeffs
    c = cell.tie.const
    if b != 0:
        origin = (Fraction(0), -c / b)
    else:
        origin = (-c / a, Fraction(0))
    direction = (-b, a)
    bounds = [
        ((Fraction(1), Fraction(0)), -Fraction(xmin)),
        ((Fraction(-1), Fraction(0)), Fraction(xmax)),
        ((Fraction(0), Fraction(1)), -Fraction(ymin)),
        ((Fraction(0), Fraction(-1)), Fraction(ymax)),
    ]
    lo, hi = None, None
    constraints = [(k.form.coeffs, k.form.const, k.rel) for k in cell.system.constraints]
    constraints += [(coeffs, const, ">=") for coeffs, const in bounds]
    for coeffs, const, rel in constraints:
        slope = coeffs[0] * direction[0] + coeffs[1] * direction[1]
        offset = coeffs[0] * origin[0] + coeffs[1] * origin[1] + const
        if slope == 0:
            if rel == "=" and offset != 0:
                return None
            if rel != "=" and offset < 0:
                return None
            continue
        if rel == "=":
            t = -offset / slope
            lo = t if lo is None or t > lo else lo
            hi = t if hi is None or t < hi else hi
        elif slope > 0:
            t = -offset / slope
            lo = t if lo is None or t > lo else lo
        else:
            t = -offset / slope
            hi = t if hi is None or t < hi else hi
    if lo is None or hi is None or lo > hi:
        return None
    p = (origin[0] + lo * direction[0], origin[1] + lo * direction[1])
    q = (origin[0] + hi * direction[0], origin[1] + hi * direction[1])
    if lo == hi:
        return ("point", p)
    return ("segment", p, q)


def render_variety_svg(cells, bbox):
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_SVG_SIZE + 2 * _SVG_MARGIN}" height="{_SVG_SIZE + 2 * _SVG_MARGIN}">',
        f'<rect x="0" y="0" width="{_SVG_SIZE + 2 * _SVG_MARGIN}" '
        f'height="{_SVG_SIZE + 2 * _SVG_MARGIN}" fill="#ffffff"/>',
    ]
    for index, cell in enumerate(cells):
        clipped = _clip_cell(cell, bbox)
        if clipped is None:
            continue
        color = _PALETTE[index % len(_PALETTE)]
        if clipped[0] == "point":
            x, y = _svg_coords(clipped[1], bbox)
            lines.append(
                f'<circle cx="{x:.3f}" cy="{y:.3f}" r="3" fill="{color}"/>'
            )
        else:
            x1, y1 = _svg_coords(clipped[1], bbox)
            x2, y2 = _svg_coords(clipped[2], bbox)
            lines.append(
                f'<line x1="{x1:.3f}" y1="{y1:.3f}" x2="{x2:.3f}" y2="{y2:.3f}" '
                f'stroke="{color}" stroke-width="2"/>'
            )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def render_graph_dot(graph):
    def node_id(exps):
        return ",".join(str(e) for e in exps)

    lines = ["graph dominance {"]
    for v in graph.vertices:
        lines.append(f'  "{node_id(v)}" [label="({node_id(v)})"];')
    for e in graph.edges:
        a, b = e.pair
        lines.append(f'  "{node_id(a)}" -- "{node_id(b)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- commands ---------------------------------------------------------------


def _cmd_canon(args, conv):
    poly = parse_expression(args.expr, *conv)
    r = canonicalize(poly)
    emit(
        "canon",
        args.expr,
        {"min": poly_json(r.min_representative()), "max": poly_json(r.max_representative())},
    )
    return 0


def _cmd_roots(args, conv):
    poly = parse_expression(args.expr, *conv, min_arity=1)
    emit("roots", args.expr, roots_json(roots(poly)))
    return 0


def _cmd_factor(args, conv):
    poly = parse_expression(args.expr, *conv, min_arity=1)
    leading, multiset = factor(poly)
    emit(
        "factor",
        args.expr,
        {"leading": fraction_str(leading), "roots": roots_json(multiset)},
    )
    return 0


def _cmd_equal(args, conv):
    lhs, rhs = parse_common([args.expr1, args.expr2], *conv)
    equal, witness = rat_equal(canonicalize(lhs), canonicalize(rhs))
    result = {"equal": equal}
    if not equal:
        result["witness"] = [fraction_str(x) for x in witness]
    emit("equal", [args.expr1, args.expr2], result)
    return 0


def _cmd_divides(args, conv):
    den, num = parse_common([args.expr1, args.expr2], *conv)
    cofactor = divide(canonicalize(num), canonicalize(den))
    if cofactor is None:
        emit("divides", [args.expr1, args.expr2], {"divides": False})
    else:
        emit(
            "divides",
            [args.expr1, args.expr2],
            {"divides": True, "cofactor": poly_json(cofactor.min_representative())},
        )
    return 0


def _cmd_divides_power(args, conv):
    den, base = parse_common([args.expr1, args.expr2], *conv)
    found = divides_power(canonicalize(den), canonicalize(base), args.kmax)
    if found is None:
        print(
            f"no divisibility up to exponent {args.kmax}; "
            "a variety-inclusion check tells whether a larger bound could succeed",
            file=sys.stderr,
        )
        emit("divides-power", [args.expr1, args.expr2], None)
    else:
        k, cofactor = found
        emit(
            "divides-power",
            [args.expr1, args.expr2],
            {"k": k, "cofactor": poly_json(cofactor.min_representative())},
        )
    return 0


def _cmd_radical_member(args, conv):
    q, p = parse_common([args.expr1, args.expr2], *conv)
    emit(
        "radical-member",
        [args.expr1, args.expr2],
        radical_member(canonicalize(q), canonicalize(p)),
    )
    return 0


def _cmd_congruent(args, conv):
    a, b, p = parse_common([args.a, args.b, args.mod], *conv)
    emit(
        "congruent",
        {"mod": args.mod, "lhs": args.a, "rhs": args.b},
        congruent_mod(canonicalize(a), canonicalize(b), canonicalize(p)),
    )
    return 0


def _parse_bbox(text):
    parts = text.split(",")
    if len(parts) != 4:
        raise UsageError("--bbox expects xmin,ymin,xmax,ymax")
    xmin, ymin, xmax, ymax = (Fraction(p) for p in parts)
    if xmin >= xmax or ymin >= ymax:
        raise UsageError("--bbox must have positive extent")
    return xmin, ymin, xmax, ymax


def _cmd_variety(args, conv):
    poly = parse_expression(args.expr, *conv, min_arity=2)
    if poly.arity != 2:
        raise UsageError("variety plotting is for two-variable polynomials")
    cells = variety_cells(canonicalize(poly)).cells
    listing = [
        {
            "pair": [list(cell.pair[0]), list(cell.pair[1])],
            "dimension": cell.dimension,
            "witness": [fraction_str(x) for x in cell.witness],
        }
        for cell in cells
    ]
    if args.svg:
        bbox = _parse_bbox(args.bbox)
        with open(args.svg, "w", encoding="utf-8") as handle:
            handle.write(render_variety_svg(cells, bbox))
    emit("variety", args.expr, {"cells": listing})
    return 0


def _cmd_graph(args, conv):
    poly = parse_expression(args.expr, *conv)
    graph = dominance_graph(canonicalize(poly))
    with open(args.dot, "w", encoding="utf-8") as handle:
        handle.write(render_graph_dot(graph))
    emit(
        "graph",
        args.expr,
        {
            "vertices": [list(v) for v in graph.vertices],
            "edges": [[list(e.pair[0]), list(e.pair[1])] for e in graph.edges],
            "connected": graph.connected,
        },
    )
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tropoly",
        description="polynomial algebra over the max-plus rationals",
    )
    parser.add_argument(
        "--convention",
        choices=("log", "classical"),
        default="log",
        help="coefficient convention: log-domain (default) or classical (max, *)",
    )
    parser.add_argument(
        "--base",
        help="rational base for --convention=classical logarithms",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    one = sub.add_parser("canon", help="minimal and maximal representatives")
    one.add_argument("expr")
    one.set_defaults(handler=_cmd_canon)

    p = sub.add_parser("roots", help="roots with multiplicities (one variable)")
    p.add_argument("expr")
    p.set_defaults(handler=_cmd_roots)

    p = sub.add_parser("factor", help="leading coefficient and linear factors")
    p.add_argument("expr")
    p.set_defaults(handler=_cmd_factor)

    p = sub.add_parser("equal", help="canonical equality with separating witness")
    p.add_argument("expr1")
    p.add_argument("expr2")
    p.set_defaults(handler=_cmd_equal)

    p = sub.add_parser("divides", help="does EXPR1 divide EXPR2 exactly")
    p.add_argument("expr1")
    p.add_argument("expr2")
    p.set_defaults(handler=_cmd_divides)

    p = sub.add_parser("divides-power", help="does EXPR1 divide a power of EXPR2")
    p.add_argument("expr1")
    p.add_argument("expr2")
    p.add_argument("--kmax", type=int, default=64)
    p.set_defaults(handler=_cmd_divides_power)

    p = sub.add_parser("radical-member", help="is EXPR1 in the radical of (EXPR2)")
    p.add_argument("expr1")
    p.add_argument("expr2")
    p.set_defaults(handler=_cmd_radical_member)

    p = sub.add_parser("congruent", help="congruence modulo a principal ideal")
    p.add_argument("--mod", required=True)
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(handler=_cmd_congruent)

    p = sub.add_parser("variety", help="variety cells (two variables), optional SVG")
    p.add_argument("expr")
    p.add_argument("--svg")
    p.add_argument("--bbox", default="-5,-5,5,5")
    p.set_defaults(handler=_cmd_variety)

    p = sub.add_parser("graph", help="dominance graph as DOT")
    p.add_argument("expr")
    p.add_argument("--dot", required=True)
    p.set_defaults(handler=_cmd_graph)

    return parser


_LEADING_DASH_EXPR = re.compile(r"^-(inf\b|\d)")


def main(argv=None):
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    # expressions may start with a negative literal or -inf; a leading
    # space keeps argparse from reading them as option flags and is
    # stripped again by the tokenizer
    argv = [(" " + a) if _LEADING_DASH_EXPR.match(a) else a for a in argv]
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code
    for key, value in vars(args).items():
        if isinstance(value, str) and value.startswith(" -"):
            setattr(args, key, value[1:])
    conv = (args.convention, args.base)
    try:
        return args.handler(args, conv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except TropicalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
