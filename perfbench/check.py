"""Correctness checker for CLI reports, independent of the code under test.

Nothing here imports planarep.  Relators, class enumerations, fixed-point
dimensions, Euler values and solvability are rebuilt from their definitions
with numpy, ``fractions`` and ``math``; every solve report is verified by
multiplying its JSON generators out.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np

EXIT_OK, EXIT_REFUSALS, EXIT_INTERNAL = 0, (2, 3, 4), 5
# group name -> (kind, n, dim G)
GROUPS = {"SU2": ("SU", 2, 3), "SL2R": ("SL2R", 2, 3),
          "U1": ("U", 1, 1), "U2": ("U", 2, 4), "U3": ("U", 3, 9)}
GROUP_TOL = 1e-9   # unitarity / det of generators built by exp
RELATOR_TOL = 1e-6  # the CLI solves to 1e-8; a wrong point is off by O(1)


class Mismatch(Exception):
    pass


def _expect(cond, what):
    if not cond:
        raise Mismatch(what)


# --- definitions rebuilt from the paper's presentation ----------------------


def long_relator(genus: int, torsion) -> list[int]:
    """prod_j [x_j, y_j] z_1 .. z_n with generator i as letter i + 1."""
    w = []
    for j in range(genus):
        x, y = 2 * j + 1, 2 * j + 2
        w += [x, y, -x, -y]
    return w + [2 * genus + j + 1 for j in range(len(torsion))]


def class_fractions(group: str, m: int, index: int) -> tuple[Fraction, ...]:
    """Eigenvalue-angle fractions of class ``index`` of order m, in the
    documented canonical order (SU2: angle k/m for k = 0..m//2; U(n):
    multisets of k/m in lexicographic order)."""
    kind, n, _ = GROUPS[group]
    if kind == "SU":
        k = index
        _expect(0 <= k <= m // 2, f"class index {k} out of range")
        return tuple(sorted((Fraction(k, m), Fraction(m - k, m) % 1)))
    combos = list(combinations_with_replacement(range(m), n))
    _expect(0 <= index < len(combos), f"class index {index} out of range")
    return tuple(Fraction(k, m) for k in combos[index])


def class_count(group: str, m: int) -> int:
    kind, n, _ = GROUPS[group]
    return m // 2 + 1 if kind == "SU" else math.comb(m + n - 1, n)


def fixed_dim(group: str, fractions) -> int:
    """dim ker(Ad_g - 1): the centralizer dimension, sum of squared
    eigenvalue multiplicities (minus 1 for SU(n))."""
    kind, _, _ = GROUPS[group]
    mult = {}
    for f in fractions:
        mult[f] = mult.get(f, 0) + 1
    return sum(v * v for v in mult.values()) - (1 if kind == "SU" else 0)


def _su2_angle(fractions) -> Fraction:
    """Rotation angle in units of pi, in [0, 1]."""
    a = min(fractions)
    return 2 * a if 2 * a <= 1 else 2 - 2 * a


def _su2_product_interval(angles):
    """Angles (units of pi) reachable by products of SU2 classes: an
    interval, folded one class at a time with the spherical triangle rule."""
    lo = hi = angles[0]
    for t in angles[1:]:
        f = lambda p: min(p + t, 2 - p - t)
        new_lo = 0 if lo <= t <= hi else min(abs(lo - t), abs(hi - t))
        new_hi = 1 if lo <= 1 - t <= hi else max(f(lo), f(hi))
        lo, hi = new_lo, new_hi
    return lo, hi


def known_solvable(req) -> bool:
    """True when a point with r(phi) = target in the requested classes is
    known to exist; False when that is not known (it may still exist)."""
    kind, n, _ = GROUPS[req.group]
    fracs = [class_fractions(req.group, m, i) for m, i in zip(req.torsion, req.classes)]
    if kind == "SL2R":
        return not req.torsion and req.target == "e"  # the trivial point
    if kind == "U":
        total = sum(sum(f) for f in fracs) - (Fraction(n, 2) if req.target == "-e" else 0)
        if total.denominator != 1:
            return False  # det obstruction: certified empty
        if req.genus >= 1:
            return True  # every element of SU(n) is a commutator
        if len(fracs) == 2:  # A B = target iff class B = class (target A^-1)
            shift = Fraction(1, 2) if req.target == "-e" else 0
            inv = tuple(sorted((shift - f) % 1 for f in fracs[0]))
            return inv == fracs[1]
        return False
    if req.genus >= 1:
        return True
    angles = [_su2_angle(f) for f in fracs]
    last = angles[-1] if req.target == "e" else 1 - angles[-1]
    if len(angles) == 1:
        return last == 0
    lo, hi = _su2_product_interval(angles[:-1])
    return lo <= last <= hi


# --- report checks -------------------------------------------------------------


def _matrix(m) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in m])


def _class_of(g: np.ndarray, m: int) -> tuple[Fraction, ...]:
    out = []
    for lam in np.linalg.eigvals(g):
        frac = (np.angle(lam) / (2 * np.pi)) % 1.0
        k = round(frac * m)
        _expect(abs(frac - k / m) < 1e-6 or abs(frac - 1 - k / m) < 1e-6,
                f"eigenvalue {lam} is not an order-{m} root of unity")
        out.append(Fraction(k % m, m))
    return tuple(sorted(out))


def _in_group(group: str, g: np.ndarray) -> bool:
    kind, n, _ = GROUPS[group]
    eye = np.eye(n)
    if kind == "SL2R":
        ok = np.linalg.norm(g.imag) < GROUP_TOL
    else:
        ok = np.linalg.norm(g.conj().T @ g - eye) < GROUP_TOL
    if kind != "U":
        ok = ok and abs(np.linalg.det(g) - 1) < GROUP_TOL
    return bool(ok)


def _check_presentation(req, report):
    pres = report["presentation"]
    _expect(pres["genus"] == req.genus, "genus differs from the request")
    _expect(tuple(pres["torsion"]) == req.torsion, "torsion differs from the request")
    rel = pres["relators"]
    _expect(rel["r"] == long_relator(req.genus, req.torsion), "wrong long relator")
    for j, m in enumerate(req.torsion):
        z = 2 * req.genus + j + 1
        _expect(rel[f"r_{j + 1}"] == [z] * m, f"wrong torsion relator r_{j + 1}")


def _check_classes(req, classes_json):
    got = [tuple(Fraction(f["num"], f["den"]) for f in c["fractions"]) for c in classes_json]
    want = [class_fractions(req.group, m, i) for m, i in zip(req.torsion, req.classes)]
    _expect(got == want, f"classes {got} differ from the requested {want}")


def _check_point(req, report):
    """Multiply out the JSON generators: relator, torsion orders, classes."""
    _, n, _ = GROUPS[req.group]
    gens = [_matrix(g) for g in report["result"]["generators"]]
    _expect(len(gens) == 2 * req.genus + len(req.torsion), "wrong generator count")
    for g in gens:
        _expect(_in_group(req.group, g), "generator outside the group")
    r = np.eye(n, dtype=complex)
    for s in long_relator(req.genus, req.torsion):
        g = gens[abs(s) - 1]
        r = r @ (g if s > 0 else np.linalg.inv(g))
    zeta = np.eye(n) * (1 if req.target == "e" else -1)
    _expect(np.linalg.norm(r - zeta) < RELATOR_TOL,
            f"r(phi) misses the target by {np.linalg.norm(r - zeta):.2e}")
    for j, (m, i) in enumerate(zip(req.torsion, req.classes)):
        z = gens[2 * req.genus + j]
        _expect(np.linalg.norm(np.linalg.matrix_power(z, m) - np.eye(n)) < RELATOR_TOL,
                f"phi(z_{j + 1})^{m} != e")
        _expect(_class_of(z, m) == class_fractions(req.group, m, i),
                f"phi(z_{j + 1}) lies in the wrong class")


def _expected_dims(req):
    _, _, d = GROUPS[req.group]
    f = [fixed_dim(req.group, class_fractions(req.group, m, i))
         for m, i in zip(req.torsion, req.classes)]
    euler = (2 - 2 * req.genus) * d - sum(d - fj for fj in f)
    c1 = 2 * req.genus * d + sum(d - fj for fj in f)
    return d, f, euler, c1


def check_solve(req, report):
    _check_presentation(req, report)
    _check_classes(req, report["spec"]["classes"])
    _check_point(req, report)
    comp = report["component"]
    _, _, d = GROUPS[req.group]
    _expect(comp["stabilizer_dim"] + comp["orbit_dim"] == d, "stabilizer + orbit != dim G")


def check_cohomology(req, report):
    _check_presentation(req, report)
    _check_classes(req, report["classes"])
    d, f, euler, _ = _expected_dims(req)
    dims = report["dims"]
    h0, h1, h2 = dims["h0"], dims["h1"], dims["h2"]
    _expect(0 <= h0 <= d and h1 >= 0, "dimensions out of range")
    _expect(h0 == h2 and report["poincare_duality"] is True, "h0 != h2")
    _expect(report["fixed_dims"] == f, f"fixed dims {report['fixed_dims']} != {f}")
    _expect(h0 - h1 + h2 == euler == report["euler"] == report["euler_expected"],
            f"Euler value {h0 - h1 + h2} != {euler}")
    _expect(report["solve_residual"] < RELATOR_TOL, "solve residual too large")


def check_symplectic(req, report):
    _check_presentation(req, report)
    _check_classes(req, report["classes"])
    _, _, _, c1 = _expected_dims(req)
    deg = report["degeneracy"]
    _expect(deg["dim_C1_proj"] == c1, f"dim C1 {deg['dim_C1_proj']} != {c1}")
    _expect(deg["rank_on_Z1"] == deg["h1"], "pairing degenerate on H^1")
    _expect(deg["nullspace_matches_B1"] is True, "pairing nullspace != B^1")
    _expect(deg["full_rank"] == c1 and deg["nondegenerate"] is True,
            f"extended form rank {deg['full_rank']} != dim C1 {c1}")
    # dim Z1 - h1 = d - h0 and dim C1 - dim Z1 = d - h2, equal by duality
    _expect(deg["dim_Z1"] - deg["h1"] == c1 - deg["dim_Z1"], "Z1 dimensions break duality")
    _expect(report["solve_residual"] < RELATOR_TOL, "solve residual too large")


def check_momenttest(req, report):
    _check_presentation(req, report)
    thr = report["threshold"]
    _expect(thr == 1e-8, f"threshold {thr} differs from the request")
    _expect(report["max_relative_residual"] < thr and report["passed"] is True,
            f"momentum identity residual {report['max_relative_residual']:.2e}")
    _expect(report["trials"] == 5, "trial count differs from the request")


def check_analyze(req, report):
    _check_presentation(req, report)
    m = math.lcm(*req.torsion) if req.torsion else 1
    measure = Fraction(2 * req.genus - 2) + sum(1 - Fraction(1, mj) for mj in req.torsion)
    _expect(report["measure"] == str(measure), f"measure {report['measure']} != {measure}")
    _expect(report["lcm"] == m, f"lcm {report['lcm']} != {m}")
    b = [Fraction(m)] + [Fraction(-m, mj) for mj in req.torsion]
    _expect(report["fundamental_cycle"] == [str(q) for q in b], "wrong fundamental cycle")
    _expect(report["fundamental_class"] == [str(q / m) for q in b], "wrong fundamental class")


def check_components(req, report):
    _check_presentation(req, report)
    per_gen = report["torsion_classes"]
    _expect([g["order"] for g in per_gen] == list(req.torsion), "orders differ")
    for g in per_gen:
        m = g["order"]
        _expect(g["count"] == class_count(req.group, m) == len(g["classes"]),
                f"class count for order {m}")
        got = [tuple(Fraction(f["num"], f["den"]) for f in c["fractions"]) for c in g["classes"]]
        want = [class_fractions(req.group, m, i) for i in range(class_count(req.group, m))]
        _expect(got == want, f"class list for order {m}")
    if "--with-point" in req.argv:
        ids = [per_gen[j]["classes"][i]["id"] for j, i in enumerate(req.classes)]
        stratum = report["point_stratum"]
        _expect(stratum["labels"] == ids, "point lies in the wrong classes")
        _, _, d = GROUPS[req.group]
        _expect(stratum["stabilizer_dim"] + stratum["orbit_dim"] == d, "orbit dims")


CHECKS = {
    "analyze": check_analyze,
    "cohomology": check_cohomology,
    "components": check_components,
    "momenttest": check_momenttest,
    "solve": check_solve,
    "symplectic": check_symplectic,
}


def check(req, exit_code: int, stdout: str) -> str | None:
    """None when the outcome is correct, else the reason it is not.

    Exit 5 always fails.  A refusal (2, 3, 4) is correct for a probe of a
    known defect, and exit 3 is correct for a spec not known
    to be solvable.  Exit 0 is correct only if the report passes its check.
    """
    if exit_code == EXIT_INTERNAL:
        return "exit 5 (internal error)"
    if exit_code == EXIT_OK:
        try:
            report = json.loads(stdout)
            _expect(report["command"] == req.command, "report of another command")
            CHECKS[req.command](req, report)
        except Mismatch as e:
            return f"wrong report: {e}"
        except (ValueError, KeyError, TypeError, IndexError) as e:
            return f"malformed report: {type(e).__name__}: {e}"
        return None
    if req.probe and exit_code in EXIT_REFUSALS:
        return None
    if exit_code == 3 and req.command == "solve" and not known_solvable(req):
        return None
    return f"exit {exit_code} on a request expected to succeed"
