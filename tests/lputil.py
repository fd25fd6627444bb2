"""Minimal LP-format reader used to re-solve emitted trail models with an
independent MILP solver (scipy/HiGHS).  Parses only the subset the
package emits: a Minimize objective, +/-1 coefficient constraints with
<=, >= or =, and a Binary section."""

import re

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

_TERM = re.compile(r"([+-])?\s*(\d+(?:\.\d+)?)?\s*\*?\s*([A-Za-z_][A-Za-z0-9_]*)")


def _parse_terms(expr):
    out = {}
    for sign, coef, name in _TERM.findall(expr):
        c = float(coef) if coef else 1.0
        if sign == "-":
            c = -c
        out[name] = out.get(name, 0.0) + c
    return out


def parse_lp(path):
    """Returns (objective dict, constraints list, binary var names).

    Each constraint is (terms dict, op, rhs).
    """
    section = None
    objective = {}
    constraints = []
    binaries = []
    pending = ""
    with open(path) as fh:
        lines = fh.readlines()
    for raw in lines:
        line = raw.split("\\")[0].strip()
        if not line:
            continue
        low = line.lower()
        if low in ("minimize", "maximize"):
            section = "obj"
            continue
        if low in ("subject to", "st", "s.t."):
            _flush_obj(pending, objective)
            pending = ""
            section = "cons"
            continue
        if low in ("binary", "binaries", "bin"):
            section = "bin"
            continue
        if low == "end":
            break
        if section == "obj":
            pending += " " + line
        elif section == "cons":
            pending += " " + line
            if any(op in line for op in ("<=", ">=", "=")):
                constraints.append(_parse_constraint(pending))
                pending = ""
        elif section == "bin":
            binaries.extend(line.split())
    if section == "obj":
        _flush_obj(pending, objective)
    return objective, constraints, binaries


def _flush_obj(pending, objective):
    text = pending.strip()
    if not text:
        return
    if ":" in text:
        text = text.split(":", 1)[1]
    objective.update(_parse_terms(text))


def _parse_constraint(text):
    if ":" in text:
        text = text.split(":", 1)[1]
    for op in ("<=", ">=", "="):
        if op in text:
            lhs, rhs = text.split(op, 1)
            return _parse_terms(lhs), op, float(rhs)
    raise ValueError(f"no relational operator in {text!r}")


def solve_lp(path):
    """Exact binary-program solve of an emitted model; returns the optimum."""
    objective, constraints, binaries = parse_lp(path)
    names = sorted(binaries)
    index = {n: i for i, n in enumerate(names)}
    nv = len(names)
    c = np.zeros(nv)
    for name, coef in objective.items():
        c[index[name]] = coef
    rows, lo, hi = [], [], []
    for terms, op, rhs in constraints:
        row = np.zeros(nv)
        for name, coef in terms.items():
            row[index[name]] += coef
        rows.append(row)
        if op == "<=":
            lo.append(-np.inf)
            hi.append(rhs)
        elif op == ">=":
            lo.append(rhs)
            hi.append(np.inf)
        else:
            lo.append(rhs)
            hi.append(rhs)
    res = milp(
        c=c,
        constraints=LinearConstraint(np.array(rows), np.array(lo), np.array(hi)),
        integrality=np.ones(nv),
        bounds=Bounds(0, 1),
    )
    if not res.success:
        raise RuntimeError(f"solver failed: {res.message}")
    return res.fun
