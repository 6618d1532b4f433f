"""Problem files and report rendering.

Problems are stored as a flat JSON object: "m", "n", row-major "A", "b", "c",
optional "known_optimum" {"x", "lambda", "s"}, optional "known_ray" and
"feasible_point", plus "kind", "seed" and "generator".  All numbers are
written with 17 significant digits so that a read-back reproduces every
double bit for bit.
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


def _render(value, indent: int) -> str:
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
        return "[" + ", ".join(_render(v, indent) for v in value) + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        value = float(value)
        return format(value, ".17g") if math.isfinite(value) else "null"
    if value is None:
        return "null"
    if isinstance(value, str):
        return json.dumps(value)
    raise TypeError(f"cannot render {type(value).__name__} as JSON")


def dumps(document: dict) -> str:
    """Render a document as JSON with floats at 17 significant digits."""
    return _render(document, 0) + "\n"


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
        opt = problem.known_optimum
        doc["known_optimum"] = {"x": opt.x, "lambda": opt.lam, "s": opt.s}
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
        opt = doc["known_optimum"]
        known_optimum = PrimalDualPoint(opt["x"], opt["lambda"], opt["s"])
        if known_optimum.x.shape != (n,) or known_optimum.lam.shape != (m,):
            sizes = (known_optimum.x.size, known_optimum.lam.size, known_optimum.s.size)
            raise DimensionMismatch(f"known_optimum has sizes {sizes}, expected ({n}, {m}, {n})")
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
