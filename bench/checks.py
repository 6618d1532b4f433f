"""Output checks computed with numpy alone, apart from the solver.

Accuracy is judged by the scale-free relative KKT residuals of PDLP
(Applegate et al., NeurIPS 2021), not by the solver's own stopping test,
which is relative to the square of the problem scale.
"""

from __future__ import annotations

import numpy as np

#: Largest relative KKT residual accepted on a point reported ``Optimal``.
KKT_TOL = 1e-4
#: Largest relative objective error |c.x - c.x*| / (1 + |c.x*|) accepted.
OBJECTIVE_TOL = 1e-3
#: Largest relative primal residual or negative part accepted as the evidence
#: behind ``PrimalFeasibleDualInfeasible``.  The solver's own test allows
#: ||b - A x|| <= 1e-6 * scale, which reaches 1.3e-4 relative at (150, 450).
PRIMAL_EVIDENCE_TOL = 1e-3
#: Largest |tau| / kappa accepted from the homogeneous embedding on a
#: dual-infeasible problem, whose solutions all have tau = 0 < kappa.
TAU_OVER_KAPPA_TOL = 1e-3
#: Largest ||A d|| / (||A||_F ||d||) accepted for the generator's ray.
RAY_TOL = 1e-12


def _neg_part(v: np.ndarray) -> float:
    return float(np.linalg.norm(np.minimum(v, 0.0)))


def primal_evidence(A, b, x) -> dict[str, float]:
    """Relative primal residual and negative part of ``x``."""
    return {
        "primal": float(np.linalg.norm(A @ x - b)) / (1.0 + float(np.linalg.norm(b))),
        "neg_x": _neg_part(x) / (1.0 + float(np.linalg.norm(x))),
    }


def kkt_residuals(A, b, c, x, lam, s) -> dict[str, float]:
    """The relative KKT residuals of a primal-dual point."""
    cx, blam = float(c @ x), float(b @ lam)
    return {
        **primal_evidence(A, b, x),
        "dual": float(np.linalg.norm(A.T @ lam + s - c)) / (1.0 + float(np.linalg.norm(c))),
        "gap": abs(cx - blam) / (1.0 + abs(cx) + abs(blam)),
        "neg_s": _neg_part(s) / (1.0 + float(np.linalg.norm(s))),
    }


def check_optimal(A, b, c, x_star, status: str, x, lam, s) -> tuple[list[str], float]:
    """Problems with a reported optimum, and its worst relative KKT residual.

    ``x_star`` is the optimum known from the generator's construction
    b = A x*, c = A'lam* + s*.
    """
    errors = []
    if status != "Optimal":
        errors.append(f"status {status}, expected Optimal")
    residuals = kkt_residuals(A, b, c, x, lam, s)
    worst = max(residuals.values())
    for name, value in residuals.items():
        if not value <= KKT_TOL:
            errors.append(f"relative KKT residual {name} = {value:.3e} > {KKT_TOL:g}")
    target = float(c @ x_star)
    objective_error = abs(float(c @ x) - target) / (1.0 + abs(target))
    if not objective_error <= OBJECTIVE_TOL:
        errors.append(
            f"objective c.x = {float(c @ x):.12g} vs c.x* = {target:.12g} "
            f"(relative error {objective_error:.3e} > {OBJECTIVE_TOL:g})"
        )
    return errors, worst


def check_ray(A, c, d) -> list[str]:
    """Problems with the generator's unboundedness ray: A d = 0, d > 0, c.d < 0."""
    errors = []
    scale = float(np.linalg.norm(A, "fro")) * float(np.linalg.norm(d))
    if not float(np.linalg.norm(A @ d)) <= RAY_TOL * scale:
        errors.append("ray: A d is not zero")
    if not (d > 0).all():
        errors.append("ray: d is not positive")
    if not float(c @ d) < 0.0:
        errors.append("ray: c.d is not negative")
    return errors


def check_unbounded(A, b, exit_code: int, report: dict) -> tuple[list[str], float]:
    """Problems with a no-optimum report on a problem with a verified ray.

    Requires exit code 10, ``PrimalFeasibleDualInfeasible`` backed by the
    reported ``x``, and a homogeneous pair with tau negligible against kappa.
    The homogeneous label is checked apart, by ``check_homogeneous_label``.
    Returns the problems and the worst of the relative primal residual and
    negative part of ``x``.
    """
    errors = []
    if exit_code != 10:
        errors.append(f"exit code {exit_code}, expected 10")
    if report.get("status") != "NoOptimalSolution":
        errors.append(f"status {report.get('status')}, expected NoOptimalSolution")
    if report.get("classification") != "PrimalFeasibleDualInfeasible":
        errors.append(
            f"classification {report.get('classification')}, "
            "expected PrimalFeasibleDualInfeasible"
        )
    homogeneous = report.get("homogeneous")
    if homogeneous is None:
        errors.append("homogeneous section missing")
    else:
        tau, kappa = float(homogeneous["tau"]), float(homogeneous["kappa"])
        if not (kappa > 0.0 and abs(tau) <= TAU_OVER_KAPPA_TOL * kappa):
            errors.append(
                f"homogeneous tau = {tau:.3e}, kappa = {kappa:.3e}: "
                "not a dual-infeasibility certificate"
            )
    x = np.asarray(report["point"]["x"], dtype=float)
    evidence = primal_evidence(A, b, x)
    worst = max(evidence.values())
    for name, value in evidence.items():
        if not value <= PRIMAL_EVIDENCE_TOL:
            errors.append(f"relative {name} = {value:.3e} > {PRIMAL_EVIDENCE_TOL:g}")
    return errors, worst


def check_homogeneous_label(report: dict) -> list[str]:
    """Problems with the homogeneous label of a problem with a verified ray.

    The label must be ``DualInfeasible``.  ``solve_homogeneous`` gets it wrong
    on some of these problems (see the README), so the workload counts a
    wrong label as a failed operation, not as a wrong answer.
    """
    label = (report.get("homogeneous") or {}).get("status")
    if label != "DualInfeasible":
        return [f"homogeneous status {label}, expected DualInfeasible"]
    return []


def check_trace_csv(text: str, iterations: int) -> list[str]:
    """Problems with a trace CSV: the documented header and one row per iterate."""
    lines = text.splitlines()
    errors = []
    if not lines or not lines[0].startswith("iter,f,grad_norm,"):
        errors.append("trace: header missing")
    if len(lines) != iterations + 2:
        errors.append(f"trace: {len(lines) - 1} rows, expected {iterations + 1}")
    return errors
