#!/usr/bin/env python3
"""Write perfbench/reference.json: population bounds of P1-P3 at theta = 0.4.

The benchmark's `population` check compares every `reproduce` result with
these values within a multiple of the combined standard error, so an engine
that computes the same quantities another way (for example by quadrature)
passes without the check being rewritten.

Usage (from the repository root, about a minute on 2 cores):
    python3 perfbench/make_reference.py
"""

import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from taubounds.mgp import SCENARIOS, CovariateScale, population_bounds  # noqa: E402

DRAWS = 1 << 25
SEED = 20221017
THETA = 0.4


def interval(iv):
    return {"lower": iv.lower, "upper": iv.upper,
            "se_lower": iv.se_lower, "se_upper": iv.se_upper}


def main():
    out = {"draws": DRAWS, "seed": SEED, "theta": THETA, "bounds": {}, "tau": {}}
    for name, scenario in SCENARIOS.items():
        # Greiner's relation: Kendall's tau of a Gaussian copula.
        out["tau"][name] = 2.0 / math.pi * math.asin(scenario.rho)
        for scale in CovariateScale:
            pb = population_bounds(scenario.config(scale), theta=THETA, draws=DRAWS,
                                   seed=SEED, workers=2, warn_on_theta_mismatch=False)
            out["bounds"][f"{name}/{scale.value}"] = {
                "worst_case": interval(pb.worst_case), "refined": interval(pb.refined)}
    path = ROOT / "perfbench" / "reference.json"
    path.write_text(json.dumps(out, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
