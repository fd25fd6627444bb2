"""CPLEX-style LP file emission of the trail-bound integer program.

The emitted model is the exact constraint system whose unique feasible
trace per start the OR-propagation search exploits:

    s_F(r,i) >= R_r[j]            for each j in read-set(i) + {i}
    s_F(r,i) <= sum of those R_r[j]
    L_{r+1}[i] = R_r[i]
    R_{r+1}[i] >= L_r[i],  R_{r+1}[i] >= s_F(r,i)
    R_{r+1}[i] <= L_r[i] + s_F(r,i)

with binary variables, boundary constraints matching the chosen mode,
and objective  min sum s_F.  Any exact MILP solver run on the file must
report the same optimum as :func:`egc128.trails.min_active`; the test
suite performs that cross-check with an independent solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .graphs import GraphTopology
from .trails import MODES


@dataclass(frozen=True)
class LpModel:
    path: Path
    mode: str
    rounds: int
    n: int
    n_variables: int
    n_constraints: int


def _var(kind: str, r: int, i: int) -> str:
    """Name of variable `kind` (L, R or sF) of round r at vertex i."""
    return f"{kind}_{r}_{i}"


def emit_lp_model(mode: str, rounds: int, g: GraphTopology, out: str | Path) -> LpModel:
    """Write the trail-bound model as an LP text file.

    Variables: L_r_i and R_r_i for r = 0..rounds, sF_r_i for
    r = 0..rounds-1, all binary; 3*n*rounds + 2*n variables in total.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    n = g.n
    out = Path(out)
    lines = []
    lines.append(f"\\ truncated {mode} trail bound model")
    lines.append(f"\\ interaction graph: {g.variant}, n={n}, rounds={rounds}")
    lines.append("Minimize")
    obj_terms = " + ".join(_var("sF", r, i) for r in range(rounds) for i in range(n))
    lines.append(" obj: " + obj_terms)
    lines.append("Subject To")

    n_cons = 0

    def con(expr: str):
        nonlocal n_cons
        n_cons += 1
        lines.append(f" c{n_cons}: {expr}")

    for r in range(rounds):
        for i in range(n):
            s = _var("sF", r, i)
            reads = [_var("R", r, j) for j in (i, *g.read_sets[i])]
            for x in reads:
                con(f"{s} - {x} >= 0")
            con(f"{s} - {' - '.join(reads)} <= 0")
            l0, r0, l1, r1 = (_var(kind, q, i) for q in (r, r + 1) for kind in "LR")
            con(f"{l1} - {r0} = 0")
            con(f"{r1} - {l0} >= 0")
            con(f"{r1} - {s} >= 0")
            con(f"{r1} - {l0} - {s} <= 0")

    l0_sum, r0_sum = (" + ".join(_var(kind, 0, i) for i in range(n)) for kind in "LR")
    if mode == "differential":
        con(f"{l0_sum} >= 1")
        con(f"{r0_sum} >= 1")
    else:
        con(f"{l0_sum} + {r0_sum} >= 1")
    con(" + ".join(_var(kind, rounds, i) for i in range(n) for kind in "LR") + " >= 1")

    lines.append("Binary")
    names = [_var(kind, r, i) for r in range(rounds + 1) for kind in "LR" for i in range(n)]
    names += [_var("sF", r, i) for r in range(rounds) for i in range(n)]
    for k in range(0, len(names), 8):
        lines.append(" " + " ".join(names[k : k + 8]))
    lines.append("End")

    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text("\n".join(lines) + "\n")
    return LpModel(out, mode, rounds, n, len(names), n_cons)
