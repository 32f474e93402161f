"""Request lists of the four benchmark workloads.

A workload is a fixed sequence of request *slots* (a round).  Every round has
the same slots; the workload seed and the round index choose the per-request
CLI seed and, where several class tuples stress the code the same way, which
one is used.  A run's request list is the first ``ROUNDS[workload]`` rounds,
so its length does not depend on how fast the host is.  Every solve-backed request passes ``--classes`` and ``--target=``
explicitly, so a change of the CLI defaults cannot silently change the traffic.

U(n) requests use class index 4, the first det-compatible class at m = 3:
``[1/3, 2/3]`` for U2 and ``[0, 1/3, 2/3]`` for U3.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

SOLVE_BACKED = ("cohomology", "symplectic", "components", "solve", "momenttest")


@dataclass(frozen=True)
class Request:
    """One CLI invocation plus what the checker needs to know about it."""

    slot: str  # stable name of the position in the round
    argv: tuple[str, ...]
    group: str
    genus: int
    torsion: tuple[int, ...]
    classes: tuple[int, ...]
    target: str = "e"
    # reproduces a known defect at a fixed CLI seed: a verified report or a
    # documented refusal (exit 2, 3, 4) is correct
    probe: bool = False
    # the known defect a probe reproduces; its failures count in `failed`
    # and `correct_share` but do not make the run incorrect
    defect: str = ""

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def relator_length(self) -> int:
        return 4 * self.genus + len(self.torsion)


# known defect: an SL2R g2 solve exits 5 (LinAlgError: Singular matrix) at
# these CLI seeds, the ones below 300 that do.  SL2R requests draw their seed
# from the others, and a probe in every moment-batch round reproduces it at 3
_SL2R_SINGULAR = (3, 8, 18, 37, 55, 107, 113)
_SL2R_SEEDS = [s for s in range(300) if s not in _SL2R_SINGULAR]
_DEFECTS = {
    "-e": "ROADMAP item 4: -e target at the log branch cut",
    "SL2R": "SL2R solve: singular generator, exit 5, at CLI seeds 3, 8, 18, ...",
}


def _request(rng, slot, command, group, genus, torsion=(), classes=(),
             target="e", probe="", extra=(), seed=None) -> Request:
    """``probe`` names the known defect (a key of ``_DEFECTS``) that the
    request reproduces at CLI seed ``seed``."""
    if seed is None:
        seed = rng.choice(_SL2R_SEEDS) if group == "SL2R" else rng.randrange(10**6)
    argv = [command, "--group", group, "--genus", str(genus),
            "--torsion=" + ",".join(map(str, torsion)),
            "--seed", str(seed), "--no-timestamp"]
    if command in SOLVE_BACKED:
        argv += ["--classes=" + ",".join(map(str, classes)), "--target=" + target]
    argv += list(extra)
    return Request(slot, tuple(argv), group, genus, tuple(torsion),
                   tuple(classes), target, bool(probe), _DEFECTS.get(probe, ""))


def _long_relator(rng, _phase):
    # relator length 4l + n is the size axis: 66, 131, 258 letters for SU2
    c = lambda m: rng.randint(1, m // 2)  # any non-central SU2 class
    return [
        _request(rng, "cohomology/SU2/g16", "cohomology", "SU2", 16, (3, 5), (1, c(5))),
        _request(rng, "cohomology/SU2/g32", "cohomology", "SU2", 32, (2, 3, 7), (1, 1, c(7))),
        _request(rng, "cohomology/SU2/g64", "cohomology", "SU2", 64, (3, 5), (1, c(5))),
        _request(rng, "cohomology/U3/g16", "cohomology", "U3", 16, (3,), (4,)),
        _request(rng, "cohomology/U3/g32", "cohomology", "U3", 32, (3,), (4,)),
    ]


def _degeneracy(rng, _phase):
    # the full-Gram path: one bform_O quadrature per pair of C^1 basis vectors.
    # No U3 here: its Gram takes 2.5-6 s, too few samples per run to be steady
    sym = "symplectic"
    return [
        _request(rng, "symplectic/SU2/g1", sym, "SU2", 1, (3,), (1,)),
        _request(rng, "symplectic/SU2/g2", sym, "SU2", 2, (3,), (1,)),
        _request(rng, "symplectic/SU2/g3", sym, "SU2", 3, (3,), (1,)),
        _request(rng, "symplectic/SU2/g0", sym, "SU2", 0, (3, 3, 3, 3), (1, 1, 1, 1)),
        _request(rng, "symplectic/SL2R/g2", sym, "SL2R", 2),
        _request(rng, "symplectic/U2/g1", sym, "U2", 1, (3,), (4,)),
        _request(rng, "symplectic/U2/g2", sym, "U2", 2, (3,), (4,)),
        # CLI seed 0 is ROADMAP item 4's reproduction: exit 0 with full_rank 2
        _request(rng, "probe/symplectic/SU2/g2/-e", sym, "SU2", 2, target="-e",
                 probe="-e", seed=0),
    ]


def _moment_batch(rng, _phase):
    # few pairs per point, so per-point set-up dominates; the presentations
    # repeat across rounds, so the per-presentation filling-chain cache hits
    mt = "momenttest"
    extra = ("--trials", "5", "--threshold", "1e-8")
    torsions = [(), (2,), (3,), (2, 3, 7), (3, 5), (2, 2, 2, 3), (4, 6)]
    a_genus, a_torsion = rng.randint(0, 6), rng.choice(torsions)
    c_torsion = rng.choice([(3,), (5,), (3, 4)])
    return [
        _request(rng, "momenttest/SU2/g1", mt, "SU2", 1, (3,), (1,), extra=extra),
        _request(rng, "momenttest/SU2/g4", mt, "SU2", 4, (3, 5), (1, rng.randint(1, 2)), extra=extra),
        _request(rng, "momenttest/SU2/g8", mt, "SU2", 8, (3,), (1,), extra=extra),
        _request(rng, "momenttest/U2/g2", mt, "U2", 2, (3,), (4,), extra=extra),
        _request(rng, "momenttest/U3/g2", mt, "U3", 2, (3,), (4,), extra=extra),
        _request(rng, "momenttest/SL2R/g2", mt, "SL2R", 2, extra=extra),
        _request(rng, "analyze", "analyze", "SU2", a_genus, a_torsion),
        _request(rng, "components/U3", "components", "U3", 1, c_torsion,
                 (0,) * len(c_torsion)),
        _request(rng, "components/SU2/with-point", "components", "SU2", 1, (5,),
                 (rng.randint(1, 2),), extra=("--with-point",)),
        # CLI seed 0 exits 5 ("eigenvalue argument at the branch cut")
        _request(rng, "probe/momenttest/SU2/g1/-e", mt, "SU2", 1, target="-e",
                 probe="-e", extra=extra, seed=0),
        _request(rng, "probe/solve/SL2R/g2/singular", "solve", "SL2R", 2,
                 probe="SL2R", seed=_SL2R_SINGULAR[0]),
    ]


_SU2_NOT_FOUND = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
_SU2_SOLVABLE = [
    (a, b, c, d)
    for a in (0, 1) for b in (0, 1) for c in (0, 1) for d in (0, 1)
    if a + b + c + d != 1
]
# U2 classes at m = 3, by index: [0,0] [0,1/3] [0,2/3] [1/3,1/3] [1/3,2/3] [2/3,2/3]
_U2_INVERSE = {0: 0, 1: 2, 2: 1, 3: 5, 4: 4, 5: 3}
_U2_DET = {0: 0, 1: 1, 2: 2, 3: 2, 4: 0, 5: 1}  # sum of fractions, in thirds, mod 3
_U2_SOLVABLE = sorted(_U2_INVERSE.items())
_U2_NOT_FOUND = [(a, b) for a in range(6) for b in range(6)
                 if (_U2_DET[a] + _U2_DET[b]) % 3 == 0 and _U2_INVERSE[a] != b]
_U2_CERTIFIED = [(a, b) for a in range(6) for b in range(6)
                 if (_U2_DET[a] + _U2_DET[b]) % 3 != 0]


def _component_scan(rng, phase):
    # every class tuple of SU2 g0 t(3,3,3,3) and U2 g0 t(3,3) that is solvable
    # or det-certified empty, plus one empty tuple of each without a
    # certificate: those burn the whole restart budget (exit 3)
    su2, u2 = (3, 3, 3, 3), (3, 3)
    pick = lambda tuples: tuples[int(phase * len(tuples))]  # noqa: E731
    out = [_request(rng, "solve/SU2/not-found", "solve", "SU2", 0, su2, pick(_SU2_NOT_FOUND)),
           _request(rng, "solve/U2/not-found", "solve", "U2", 0, u2, pick(_U2_NOT_FOUND))]
    for t in _SU2_SOLVABLE:
        out.append(_request(rng, "solve/SU2/" + ",".join(map(str, t)), "solve", "SU2", 0, su2, t))
    for t in _U2_SOLVABLE + _U2_CERTIFIED:
        out.append(_request(rng, "solve/U2/" + ",".join(map(str, t)), "solve", "U2", 0, u2, t))
    return out


WORKLOADS = {
    "long-relator": _long_relator,
    "degeneracy": _degeneracy,
    "moment-batch": _moment_batch,
    "component-scan": _component_scan,
}
# rounds in a run's request list: at the seed state one pass over the list
# takes 9-19 s on a 2-vCPU VM, so a run has time to repeat part of it
ROUNDS = {"long-relator": 4, "degeneracy": 2, "moment-batch": 16, "component-scan": 2}


def round_requests(workload: str, seed: int, index: int) -> list[Request]:
    """The requests of round ``index`` of a workload; the same seed and index
    always give the same requests."""
    rng = random.Random(f"{workload}/{seed}/{index}")
    # the rounds of a run pick evenly spaced entries of a list of
    # alternatives (the empty tuples of component-scan), from a random start
    phase = (random.Random(f"{workload}/{seed}").random() + index / ROUNDS[workload]) % 1
    return WORKLOADS[workload](rng, phase)


def run_requests(workload: str, seed: int) -> list[Request]:
    """The request list of one run: rounds 0 .. ROUNDS[workload] - 1."""
    return [req for index in range(ROUNDS[workload])
            for req in round_requests(workload, seed, index)]
