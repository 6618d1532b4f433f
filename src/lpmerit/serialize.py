"""Problem files, primal-dual points and report rendering.

A primal-dual point is stored as {"x", "lambda", "s"}; ``point_document`` and
``point_from_document`` are the only writer and reader of that layout, used
for a problem's "known_optimum" and a solve report's "point".  Problems are
stored as a flat JSON object: "m", "n", row-major "A", "b", "c", optional
"known_optimum", optional "known_ray" and "feasible_point", plus "kind",
"seed" and "generator".  orjson is the one codec, writing compact JSON.  A
float, alone or in a float64 array, is written as the shortest text that reads
back to the same double bit for bit, ``-0.0`` included, and an integral one
keeps its decimal point ("2.0").  A float32 array or scalar is widened to
float64 first, so it is written at its exact value.  NaN and infinities are
written as null.  Integers are held to 64 bits: a wider one cannot be
written, and reads back as a float.
"""

from __future__ import annotations

import numpy as np
import orjson

from .errors import DimensionMismatch, ShapeViolation
from .problems import (
    GeneratedProblem,
    PrimalDualPoint,
    ProblemKind,
    StandardFormLp,
    check_seed,
)

_OPTIONS = orjson.OPT_SERIALIZE_NUMPY | orjson.OPT_APPEND_NEWLINE


def _array_as_list(value):
    """orjson's fallback for an array it does not take itself: one that is not
    C-contiguous, or of a dtype it lacks."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError


def _widened(value):
    """``value`` with each float32 array or scalar in it widened to float64:
    orjson writes float32 itself, at float32 precision, so 0.1f would read
    back as the double 0.1 rather than as 0.10000000149011612."""
    if isinstance(value, dict):
        return {key: _widened(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_widened(item) for item in value]
    if isinstance(value, (np.ndarray, np.float32)) and value.dtype == np.float32:
        return value.astype(np.float64)
    return value


def dumps(document: dict) -> str:
    """Render a document as compact JSON, ending in a newline."""
    return orjson.dumps(_widened(document), default=_array_as_list, option=_OPTIONS).decode()


def _as_object(doc):
    if not isinstance(doc, dict):
        raise TypeError("the top level is not a JSON object")
    return doc


def load_document(path) -> dict:
    """Read the JSON object in ``path``; TypeError if the top level is not one."""
    with open(path, "rb") as fh:
        return _as_object(orjson.loads(fh.read()))


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


def problem_from_document(doc: dict) -> GeneratedProblem:
    """Read a problem written by ``problem_document``; the error names what is malformed."""
    missing = [key for key in ("m", "n", "A", "b", "c") if key not in _as_object(doc)]
    if missing:
        raise ValueError(f"missing required key(s) {', '.join(missing)}")
    for key in ("m", "n", "seed"):
        if type(doc.get(key, 0)) is not int:
            raise ValueError(f"{key} must be a 64-bit integer, got {doc[key]!r}")
    m, n = doc["m"], doc["n"]
    for key, size in (("m", m), ("n", n)):
        if size < 1:
            raise ShapeViolation(f"{key} must be at least 1, got {size}")
    check_seed(doc.get("seed", 0))
    A = np.asarray(doc["A"], dtype=float)
    if A.size != m * n:
        raise ValueError(f"A has {A.size} entries, expected m*n = {m * n}")
    lp = StandardFormLp(A.reshape(m, n), doc["b"], doc["c"])
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
        seed=doc.get("seed", 0),
        kind=ProblemKind(doc.get("kind", "unknown")),
        generator=str(doc.get("generator", "unknown")),
    )


def load_problem(path) -> GeneratedProblem:
    return problem_from_document(load_document(path))
