"""Seeded workload definitions: each workload is a fixed list of CLI commands.

The seed varies shape parameters only (function centres and exponents,
custom symbol coefficients, jitter in grid starts, horizons and schedule
indices).  It never changes q, n, grid sizes or the number of commands, so
every seed runs the same class of work.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

# q values that the seed commit is known to fail on (NaN rows, inf
# residuals; ROADMAP item 3).  Failures there count in `failed` like any
# other, but only a failure outside this set makes a run incorrect.
EDGE_QS = frozenset({"0.999"})


@dataclass(frozen=True)
class Command:
    """One CLI invocation plus what the gate needs to judge its output."""

    argv: tuple
    # unit of verified work: "rows" (CSV data rows) or "indices" (statdemo)
    items: str = "rows"

    @property
    def name(self) -> str:
        return self.argv[0]

    def flag(self, key: str, default=None):
        flag = "--" + key
        if flag in self.argv:
            return self.argv[self.argv.index(flag) + 1]
        return default

    @property
    def at_edge(self) -> bool:
        q = self.flag("q")
        return q is not None and set(q.split(",")) <= EDGE_QS

    def __str__(self) -> str:
        return "qapprox " + " ".join(self.argv)


def _certify_large(rng: random.Random) -> list:
    alpha = round(rng.uniform(0.3, 1.0), 3)
    centre = round(rng.uniform(0.5, 8.0), 3)
    lo = "%.4g" % rng.uniform(0.0, 0.05)
    common = ("--n", "1000", "--bn", "sqrt", "--family", "affine", "--grid", f"{lo}:auto:101")
    cmds = []
    for q in ("0.99", "0.999"):
        cmds.append(Command(("rates", "--q", q, "--function", f"abspow:{alpha}:{centre}") + common))
        for fn in ("sin", "expneg"):
            cmds.append(Command(("local", "--q", q, "--function", fn) + common))
    return cmds


def _oracle_sweep(rng: random.Random) -> list:
    a1 = round(rng.uniform(0.1, 2.0), 3)
    a2 = round(rng.uniform(0.0, 1.0), 3)
    families = ("one", "affine", "quad", f"1,{a1},{a2}")
    cmds = []
    for q in ("0.5", "0.8", "0.95", "0.99", "0.999"):
        for n in ("10", "100", "1000"):
            lo = "%.4g" % rng.uniform(0.0, 0.05)
            for fam in families:
                cmds.append(
                    Command(("moments", "--q", q, "--n", n, "--family", fam, "--grid", f"{lo}:auto:21"))
                )
        cmds.append(Command(("identities", "--q", q, "--points", "50")))
    return cmds


def _statconv_sweep(rng: random.Random) -> list:
    # horizons 10^3..10^6, each pulled down by up to 1%
    horizons = ",".join(str(10**e - rng.randrange(10 ** (e - 2))) for e in (3, 4, 5, 6))
    eps = _clear_eps(rng)
    cmds = [
        Command(("statdemo", "--schedule", kind, "--Ns", horizons, "--eps", eps), items="indices")
        for kind in ("spiky", "smooth")
    ]
    # hundreds of cheap operators: one index drawn from each of 200 equal
    # strata of [16, 4015], so the summed cost hardly varies with the seed
    ns = ",".join(str(16 + 20 * i + rng.randrange(20)) for i in range(200))
    for kind in ("smooth", "spiky"):
        cmds.append(Command(("converge", "--schedule", kind, "--ns", ns, "--grid", "0:1:11")))
    return cmds


def _clear_eps(rng: random.Random) -> str:
    """An eps whose cut-off 1/eps^2 sits well away from an integer, so the
    exceptional count does not hinge on the last bit of a float compare."""
    while True:
        eps = "%.4g" % rng.uniform(0.06, 0.14)
        cut = 1.0 / float(eps) ** 2
        if abs(cut - round(cut)) > 1e-3:
            return eps


WORKLOADS = {
    "certify-large": _certify_large,
    "oracle-sweep": _oracle_sweep,
    "statconv-sweep": _statconv_sweep,
}
# the layers each workload is meant to spend its time in
INTENDED_LAYERS = {
    "certify-large": ("operators", "analysis"),
    "oracle-sweep": ("appell", "qcore", "operators"),
    "statconv-sweep": ("statconv", "cli"),
}


def build(name: str, seed: int) -> list:
    """The workload's commands for this seed (same seed, same commands)."""
    return WORKLOADS[name](random.Random(seed))


def statdemo_indices(cmd: Command) -> int:
    """Indices classified by one statdemo: each k <= N is tested for being a
    square and for lying in the eps-exceptional set."""
    return sum(2 * int(n) for n in cmd.flag("Ns").split(","))


def bn_value(rule: str, n: int) -> float:
    if rule == "sqrt":
        return math.sqrt(n)
    if rule == "n14":
        return n**0.25
    return float(rule)
