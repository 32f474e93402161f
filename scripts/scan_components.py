#!/usr/bin/env python3
"""Scan the connected components of the torsion data for a presentation:
enumerate class tuples, test feasibility, and report cohomology dims of a
solved point in each nonempty component.

Feasibility is decided exactly for SU2 and U2 (and for U(n) at genus >= 1),
so "unresolved" (the search ended without a point or a certificate) happens
only for U3 at genus 0; SL2R has no class enumeration to scan.  At genus 0,
an SU2 or U2 tuple on the boundary of the rank-2 rule has only reducible
solutions; its point is built exactly in a maximal torus, not searched, so
its dims are those of the reducible stratum, whatever the seed.

Usage: python scripts/scan_components.py --genus 0 --torsion 3,4,4
"""

import argparse
from itertools import product

from planarep.cohomology import cohomology_data
from planarep.components import finite_order_classes
from planarep.errors import InfeasibleSpec, NotFound
from planarep.liegroup import get_model
from planarep.presentations import PlanarPresentation
from planarep.solver import SolveSpec, solve_relator


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--group", default="SU2")
    ap.add_argument("--genus", type=int, default=0)
    ap.add_argument("--torsion", default="3,3,3")
    ap.add_argument("--target", default="e", choices=("e", "-e"))
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    model = get_model(args.group)
    torsion = tuple(int(t) for t in args.torsion.split(","))
    pres = PlanarPresentation(args.genus, torsion)
    per_gen = [finite_order_classes(model, m) for m in torsion]

    n_total = n_solved = n_infeasible = n_notfound = 0
    for combo in product(*per_gen):
        n_total += 1
        label = " , ".join(c.class_id for c in combo)
        try:
            spec = SolveSpec(pres, model, list(combo), minus=args.target == "-e",
                             seed=args.seed, tol=1e-12)
            res = solve_relator(spec)
        except InfeasibleSpec:
            n_infeasible += 1
            print(f"[infeasible] {label}")
            continue
        except NotFound:
            n_notfound += 1
            print(f"[not found ] {label}")
            continue
        n_solved += 1
        data = cohomology_data(res.point)
        print(f"[solved    ] {label}  dims={data.dims}  "
              f"residual={res.residual:.1e}")
    print(f"\n{n_total} components: {n_solved} solved, "
          f"{n_infeasible} certified infeasible, {n_notfound} unresolved")


if __name__ == "__main__":
    main()
