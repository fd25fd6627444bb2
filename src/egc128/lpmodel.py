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


def _lvar(r: int, i: int) -> str:
    return f"L_{r}_{i}"


def _rvar(r: int, i: int) -> str:
    return f"R_{r}_{i}"


def _svar(r: int, i: int) -> str:
    return f"sF_{r}_{i}"


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
    obj_terms = " + ".join(_svar(r, i) for r in range(rounds) for i in range(n))
    lines.append(" obj: " + obj_terms)
    lines.append("Subject To")

    n_cons = 0

    def con(expr: str):
        nonlocal n_cons
        n_cons += 1
        lines.append(f" c{n_cons}: {expr}")

    for r in range(rounds):
        for i in range(n):
            reads = (i, *g.read_sets[i])
            for j in reads:
                con(f"{_svar(r, i)} - {_rvar(r, j)} >= 0")
            rhs = " - ".join(_rvar(r, j) for j in reads)
            con(f"{_svar(r, i)} - {rhs} <= 0")
            con(f"{_lvar(r + 1, i)} - {_rvar(r, i)} = 0")
            con(f"{_rvar(r + 1, i)} - {_lvar(r, i)} >= 0")
            con(f"{_rvar(r + 1, i)} - {_svar(r, i)} >= 0")
            con(f"{_rvar(r + 1, i)} - {_lvar(r, i)} - {_svar(r, i)} <= 0")

    l0_sum = " + ".join(_lvar(0, i) for i in range(n))
    r0_sum = " + ".join(_rvar(0, i) for i in range(n))
    if mode == "differential":
        con(f"{l0_sum} >= 1")
        con(f"{r0_sum} >= 1")
    else:
        con(f"{l0_sum} + {r0_sum} >= 1")
    out_sum = " + ".join(
        f"{_lvar(rounds, i)} + {_rvar(rounds, i)}" for i in range(n)
    )
    con(f"{out_sum} >= 1")

    lines.append("Binary")
    names = []
    for r in range(rounds + 1):
        names.extend(_lvar(r, i) for i in range(n))
        names.extend(_rvar(r, i) for i in range(n))
    for r in range(rounds):
        names.extend(_svar(r, i) for i in range(n))
    for k in range(0, len(names), 8):
        lines.append(" " + " ".join(names[k : k + 8]))
    lines.append("End")

    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text("\n".join(lines) + "\n")
    return LpModel(out, mode, rounds, n, len(names), n_cons)
