"""Problem files, primal-dual points and report rendering.

A primal-dual point is stored as {"x", "lambda", "s"}; ``point_document`` and
``point_from_document`` are the only writer and reader of that layout, used
for a problem's "known_optimum" and a solve report's "point".  Problems are
stored as a flat JSON object: "m", "n", row-major "A", "b", "c", optional
"known_optimum", optional "known_ray" and "feasible_point", plus "kind",
"seed" and "generator".  All numbers are written with 17 significant digits
so that a read-back reproduces every double bit for bit.  A float outside a
list keeps a decimal point when its value is integral ("2.0", not "2"), so
that it reads back as a float; list and array entries carry none, since
arrays are read back with dtype=float.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import DimensionMismatch
from .problems import (
    GeneratedProblem,
    PrimalDualPoint,
    ProblemKind,
    StandardFormLp,
)


def _render(value, indent: int, in_list: bool = False) -> str:
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = ",\n".join(
            f"{pad}  {json.dumps(k)}: {_render(v, indent + 1)}" for k, v in value.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(value, np.ndarray):
        if value.ndim == 1 and value.dtype.kind == "f" and np.isfinite(value).all():
            # one format call for the whole array; "%.17g" renders a float
            # exactly as format(value, ".17g") does below
            return "[" + ", ".join(["%.17g"] * value.size) % tuple(value.tolist()) + "]"
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_render(v, indent, in_list=True) for v in value) + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        value = float(value)
        text = format(value, ".17g") if math.isfinite(value) else "null"
        return text + ".0" if not in_list and text.lstrip("-").isdigit() else text
    if value is None:
        return "null"
    if isinstance(value, str):
        return json.dumps(value)
    raise TypeError(f"cannot render {type(value).__name__} as JSON")


def dumps(document: dict) -> str:
    """Render a document as JSON with floats at 17 significant digits."""
    return _render(document, 0) + "\n"


def point_document(point: PrimalDualPoint) -> dict:
    return {"x": point.x, "lambda": point.lam, "s": point.s}


def point_from_document(doc: dict, n: int, m: int, name: str) -> PrimalDualPoint:
    """Read a point written by ``point_document``.

    Raises DimensionMismatch, its message starting with ``name``, unless the
    x, lambda and s blocks have sizes (n, m, n).
    """
    x, lam, s = (np.asarray(doc[key], dtype=float) for key in ("x", "lambda", "s"))
    if x.shape != (n,) or lam.shape != (m,) or s.shape != (n,):
        sizes = (x.size, lam.size, s.size)
        raise DimensionMismatch(f"{name} has sizes {sizes}, expected ({n}, {m}, {n})")
    return PrimalDualPoint(x, lam, s)


def problem_document(problem: GeneratedProblem) -> dict:
    lp = problem.lp
    doc = {
        "m": lp.m,
        "n": lp.n,
        "A": lp.A.ravel(),
        "b": lp.b,
        "c": lp.c,
        "kind": problem.kind.value,
        "seed": problem.seed,
        "generator": problem.generator,
    }
    if problem.known_optimum is not None:
        doc["known_optimum"] = point_document(problem.known_optimum)
    if problem.known_ray is not None:
        doc["known_ray"] = problem.known_ray
    if problem.feasible_point is not None:
        doc["feasible_point"] = problem.feasible_point
    return doc


def save_problem(path, problem: GeneratedProblem) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(problem_document(problem)))


def _certificate_array(doc: dict, key: str, length: int) -> np.ndarray | None:
    """``doc[key]`` as a float array of shape (length,), or None when absent."""
    if doc.get(key) is None:
        return None
    v = np.asarray(doc[key], dtype=float)
    if v.shape != (length,):
        raise DimensionMismatch(f"{key} must have shape ({length},), got {v.shape}")
    return v


def problem_from_document(doc: dict, *, allow_square: bool = False) -> GeneratedProblem:
    m = int(doc["m"])
    n = int(doc["n"])
    A = np.asarray(doc["A"], dtype=float)
    if A.size != m * n:
        raise ValueError(f"A has {A.size} entries, expected m*n = {m * n}")
    lp = StandardFormLp(A.reshape(m, n), doc["b"], doc["c"], allow_square=allow_square)
    known_optimum = None
    if doc.get("known_optimum") is not None:
        known_optimum = point_from_document(doc["known_optimum"], n, m, "known_optimum")
    known_ray = _certificate_array(doc, "known_ray", n)
    feasible_point = _certificate_array(doc, "feasible_point", n)
    return GeneratedProblem(
        lp=lp,
        known_optimum=known_optimum,
        known_ray=known_ray,
        feasible_point=feasible_point,
        seed=int(doc.get("seed", 0)),
        kind=ProblemKind(doc.get("kind", "unknown")),
        generator=str(doc.get("generator", "unknown")),
    )


def load_problem(path, *, allow_square: bool = False) -> GeneratedProblem:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return problem_from_document(doc, allow_square=allow_square)
