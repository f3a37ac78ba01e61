"""Scaling sweep over support size, traced once per size.

    python3 perfbench/sweep.py

Times `extremal_monomials` on arity-2 supports (exponents up to 12) and
`max_representative` on arity-3 supports (exponents up to 4), one call
per size with the span wrappers of `spans.py` installed, and prints one
row per size: wall time and the per-layer counts.  Inputs come from
seed 0.  The sizes are capped so that the sweep takes about a minute
(NOTES.md names the size left out).  This is a diagnostic, not one of
the benchmark's workloads.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
from tropoly import canon  # noqa: E402
from workloads import rand_poly  # noqa: E402

SERIES = (
    ("extremal_monomials", 2, 12, (20, 40, 60, 80)),
    ("max_representative", 3, 4, (6, 8, 10)),
)
COUNTS = (
    "geometry.fm_calls", "geometry.fm_constraints", "canon.extremal_ratio",
    "canon.envelope_queries", "canon.lattice_points", "canon.maxrep_terms",
)


def run(function, poly):
    # through the module, so the call meets the wrappers installed there
    tracer = spans.Tracer()
    with spans.traced(tracer):
        start = perf_counter()
        if function == "extremal_monomials":
            canon.extremal_monomials(poly)
        else:
            canon.canonicalize(poly).max_representative()
        seconds = perf_counter() - start
    metrics = spans.layer_metrics(tracer, 1, 1.0)
    return seconds, {name: metrics[name]["value"] for name in COUNTS}


def main():
    rng = random.Random(0)
    rows = []
    for function, arity, max_exp, sizes in SERIES:
        for n in sizes:
            seconds, counts = run(function, rand_poly(rng, arity, n, max_exp))
            rows.append({"function": function, "arity": arity, "n": n,
                         "seconds": round(seconds, 3), **counts})
    print("| function | arity | n | time (s, traced) | FM calls | FM constraints "
          "| extremal ratio | envelope queries | lattice points | max rep terms |")
    print("|---|---|---|---|---|---|---|---|---|---|")
    for r in rows:
        print(f"| {r['function']} | {r['arity']} | {r['n']} | {r['seconds']} "
              f"| {r['geometry.fm_calls']:.0f} | {r['geometry.fm_constraints']:.0f} "
              f"| {r['canon.extremal_ratio']:.2f} | {r['canon.envelope_queries']:.0f} "
              f"| {r['canon.lattice_points']:.0f} | {r['canon.maxrep_terms']:.0f} |")
    print(json.dumps({"seed": 0, "rows": rows}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
