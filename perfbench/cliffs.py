"""Size-keyed cliff table: each ROADMAP baseline row at two or three sizes.

The timed mixes cap their sizes so that a run holds at least 100
operations; this table, run traced at the end of every --trace 1 run,
keeps the scaling of the expensive cases visible.
"""

from __future__ import annotations

import math

from workloads import POTENTIAL_120K, REP_400, Op

# flow's default s grid: 500 points on [0.05, pi - 0.05]
FLOW_S_GRID = (0.05, math.pi - 0.05, (math.pi - 0.1) / 499)

# (size label, operation); metric names are "<layer metric>.<label>"
CLIFFS = (
    [(f"dim{d}", Op("hopf", {"alpha": 3.0, "f0": 2.0, "c": 200.0, "dim": d, "what": "all"}))
     for d in (11, 13, 15)]
    + [(f"n{n}", Op("rep", {**REP_400, "n": n})) for n in (100, 200, 400)]
    # the s dependence of ROADMAP's --c-range 0.2:500:0.5 sweep, on a 5x coarser c grid
    + [(label, Op("classify", {"s": s, "c_range": (0.2, 500.0, 2.5)}))
       for label, s in (("s030", 0.3), ("s010", 0.1), ("s005", 0.05))]
    + [(f"m{m}", Op("flow", {"m_max": float(m), "s_grid": FLOW_S_GRID})) for m in (10, 20, 40)]
    + [("n12001", Op("commensurability", {"commensurate": True, "max_periods": 10}))]
    + [(f"n{n}", Op("spectrum", {**POTENTIAL_120K, "grid": (-6.0, 6.0, 12.0 / (n - 1)), "n": 4,
                                 "cell": "largest"}))
       for n in (12001, 120001)]
    # the README's surface examples: no metrics of their own, but they keep
    # every geometry layer metric measured on every workload
    + [("readme", Op("section", {"c": 0.5, "s": 0.5, "jz_grid": (-12.0, 12.0, 0.01)})),
       ("readme", Op("transition", {"c": 1.0}))]
)

# per kind: (metric, span name, or None for the q-number call count)
CLIFF_METRICS = {
    "hopf": [("hopf.axioms_s", "hopf.axioms")],
    "rep": [("operators.build_rep_s", "operators.build_rep"), ("operators.verify_s", "operators.verify"),
            ("serialize.complex_pairs_s", "serialize.complex_pairs"),
            ("serialize.write_json_s", "serialize.write_json")],
    "classify": [("classify.classify_s", "classify.classify"),
                 ("classify.orbit_candidates_s", "classify.orbit_candidates"),
                 ("qnumbers.qnumber_calls", None)],
    "flow": [("geometry.spectral_flow_s", "geometry.spectral_flow"),
             ("serialize.write_csv_s", "serialize.write_csv")],
    "commensurability": [("schrodinger.commensurability_s", "schrodinger.commensurability")],
    "spectrum": [("schrodinger.build_potential_s", "schrodinger.build_potential"),
                 ("schrodinger.eigensolve_s", "schrodinger.eigensolve")],
}


def cliff_metrics(tracer, first_op: int) -> dict:
    """Metrics of the cliff operations, which ran as operation ids
    first_op, first_op + 1, ... in CLIFFS order."""
    out = {}
    for j, (label, op) in enumerate(CLIFFS):
        totals = tracer.totals({first_op + j})
        for metric, span in CLIFF_METRICS.get(op.kind, []):
            if span is None:
                out[f"{metric}.{label}"] = (tracer.hot_calls.get(first_op + j, 0), "count", 1)
            else:
                out[f"{metric}.{label}"] = (totals["busy"][span], "s", 1)
    return out
