"""Limited-memory BFGS with a strong Wolfe line search.

Self-contained on purpose: both training modes share this minimizer, so the
comparison between them never depends on an external library's internals.
The implementation is the standard two-loop recursion with ``s.y / y.y``
initial scaling and a bracket/zoom line search with cubic interpolation.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

__all__ = [
    "LbfgsConfig",
    "OptimResult",
    "LineSearchError",
    "NumericalError",
    "lbfgs_minimize",
    "line_search_strong_wolfe",
]


class LineSearchError(RuntimeError):
    """No step satisfying the Wolfe conditions within the step budget."""


class NumericalError(RuntimeError):
    """The objective produced NaN or Inf."""


@dataclass
class LbfgsConfig:
    memory: int = 10
    max_iter: int = 1000
    grad_tol_inf: float = 1e-6
    wolfe_c1: float = 1e-4
    wolfe_c2: float = 0.9
    max_line_search_steps: int = 25

    def __post_init__(self) -> None:
        if self.memory < 1:
            raise ValueError("memory must be >= 1")
        if not 0.0 < self.wolfe_c1 < self.wolfe_c2 < 1.0:
            raise ValueError(
                f"need 0 < c1 < c2 < 1, got c1={self.wolfe_c1}, c2={self.wolfe_c2}"
            )
        if self.max_iter < 0:
            raise ValueError("max_iter must be >= 0")
        if self.max_line_search_steps < 1:
            raise ValueError("max_line_search_steps must be >= 1")


@dataclass
class OptimResult:
    theta: np.ndarray
    f_final: float
    grad_norm_final: float
    iterations: int
    f_history: list[float] = field(default_factory=list)
    g_history: list[float] = field(default_factory=list)
    termination: str = "max_iter"  # grad_tol | max_iter | line_search_fail | custom
    evaluations: int = 0  # objective calls, line-search trials included


def _cubic_step(a: float, fa: float, da: float, b: float, fb: float, db: float) -> float:
    """Minimizer of the cubic Hermite interpolant on [a, b], or NaN."""
    if a == b:
        return math.nan
    d1 = da + db - 3.0 * (fa - fb) / (a - b)
    disc = d1 * d1 - da * db
    if disc < 0.0:
        return math.nan
    s = math.sqrt(disc) * (1.0 if b >= a else -1.0)
    denom = db - da + 2.0 * s
    if denom == 0.0:
        return math.nan
    return b - (b - a) * (db + s - d1) / denom


def line_search_strong_wolfe(
    phi: Callable[[float], tuple[float, float]],
    f0: float,
    slope0: float,
    cfg: LbfgsConfig,
    initial_step: float = 1.0,
) -> float:
    """Find a step satisfying the strong Wolfe conditions along a ray.

    ``phi(t)`` returns the objective value and directional derivative at step
    ``t``; ``f0`` and ``slope0`` are their values at ``t = 0``. Raises
    ``ValueError`` if the direction is not a descent direction and
    :class:`LineSearchError` after ``cfg.max_line_search_steps`` evaluations.
    """
    if slope0 >= 0.0:
        raise ValueError(f"not a descent direction (slope {slope0})")
    c1, c2 = cfg.wolfe_c1, cfg.wolfe_c2
    budget = cfg.max_line_search_steps
    evals = 0
    # Near the minimum the objective decrease drops below float resolution
    # while slopes still resolve; tolerate value noise at that scale so the
    # curvature condition can decide acceptance.
    noise = 1e-15 * (1.0 + abs(f0))

    def take(t: float) -> tuple[float, float]:
        nonlocal evals
        evals += 1
        return phi(t)

    def zoom(lo: float, f_lo: float, d_lo: float, hi: float, f_hi: float, d_hi: float) -> float:
        while evals < budget:
            t = _cubic_step(lo, f_lo, d_lo, hi, f_hi, d_hi)
            span = abs(hi - lo)
            limit_lo = min(lo, hi) + 0.1 * span
            limit_hi = max(lo, hi) - 0.1 * span
            if not math.isfinite(t) or not limit_lo <= t <= limit_hi:
                t = 0.5 * (lo + hi)
            ft, dt = take(t)
            if ft > f0 + c1 * t * slope0 + noise or ft >= f_lo + noise:
                hi, f_hi, d_hi = t, ft, dt
            else:
                if abs(dt) <= -c2 * slope0:
                    return t
                if dt * (hi - lo) >= 0.0:
                    hi, f_hi, d_hi = lo, f_lo, d_lo
                lo, f_lo, d_lo = t, ft, dt
            if span <= 1e-16 * max(1.0, abs(lo)):
                break
        raise LineSearchError(f"no Wolfe step after {evals} evaluations")

    t_prev, f_prev, d_prev = 0.0, f0, slope0
    t = initial_step
    while evals < budget:
        ft, dt = take(t)
        if ft > f0 + c1 * t * slope0 + noise or (evals > 1 and ft >= f_prev + noise):
            return zoom(t_prev, f_prev, d_prev, t, ft, dt)
        if abs(dt) <= -c2 * slope0:
            return t
        if dt >= 0.0:
            return zoom(t, ft, dt, t_prev, f_prev, d_prev)
        t_prev, f_prev, d_prev = t, ft, dt
        t = min(2.0 * t, 1e10)
    raise LineSearchError(f"no Wolfe step after {evals} evaluations")


def _two_loop(
    grad: np.ndarray,
    s_list: deque,
    y_list: deque,
    rho_list: deque,
) -> np.ndarray:
    q = grad.copy()
    # One scratch vector takes every product, so no update allocates.
    tmp = np.empty_like(q)
    alphas = []
    for s, y, rho in zip(reversed(s_list), reversed(y_list), reversed(rho_list)):
        a = rho * float(s.dot(q))
        q -= np.multiply(a, y, out=tmp)
        alphas.append(a)
    if s_list:
        s, y = s_list[-1], y_list[-1]
        q *= float(s.dot(y)) / float(y.dot(y))
    for (s, y, rho), a in zip(zip(s_list, y_list, rho_list), reversed(alphas)):
        b = rho * float(y.dot(q))
        q += np.multiply(a - b, s, out=tmp)
    return q


def lbfgs_minimize(
    objective: Callable[[np.ndarray], tuple[float, np.ndarray]],
    x0: np.ndarray,
    cfg: Optional[LbfgsConfig] = None,
    stop_hook: Optional[Callable[[int, np.ndarray, float, np.ndarray], bool]] = None,
) -> OptimResult:
    """Minimize ``objective`` (returning value and gradient) from ``x0``.

    Stops on the max-norm gradient tolerance, the iteration cap, a line
    search failure, or ``stop_hook(iteration, x, f, grad)`` returning True.
    The result carries the last accepted iterate (a failed line search
    leaves it where the previous step put it), per-iteration value and
    gradient-norm histories (entry 0 is the starting point), the number of
    objective calls, and the termination reason.
    """
    cfg = cfg or LbfgsConfig()
    x = np.array(x0, dtype=np.float64).ravel()
    evaluations = 0

    def evaluate(point: np.ndarray, where: str) -> tuple[float, np.ndarray]:
        nonlocal evaluations
        evaluations += 1
        f, g = objective(point)
        g = np.asarray(g, dtype=np.float64).ravel()
        if not math.isfinite(f) or not np.isfinite(g).all():
            raise NumericalError(f"objective returned NaN/Inf {where}")
        return float(f), g

    f, g = evaluate(x, "at the starting point")
    g_inf = float(np.abs(g).max()) if g.size else 0.0
    f_history = [f]
    g_history = [g_inf]

    s_mem: deque = deque(maxlen=cfg.memory)
    y_mem: deque = deque(maxlen=cfg.memory)
    rho_mem: deque = deque(maxlen=cfg.memory)

    iterations = 0
    termination = "max_iter"
    while True:
        if g_inf <= cfg.grad_tol_inf:
            termination = "grad_tol"
            break
        if iterations >= cfg.max_iter:
            termination = "max_iter"
            break
        if stop_hook is not None and stop_hook(iterations, x, f, g):
            termination = "custom"
            break

        d = -_two_loop(g, s_mem, y_mem, rho_mem)
        slope = float(g @ d)
        if slope >= 0.0:
            # Memory has gone stale; restart from steepest descent.
            s_mem.clear(); y_mem.clear(); rho_mem.clear()
            d = -g
            slope = -float(g @ g)

        cache: dict[float, tuple[float, np.ndarray]] = {}

        def phi(t: float) -> tuple[float, float]:
            ft, gt = evaluate(x + t * d, f"during the line search (step {t})")
            cache[t] = (ft, gt)
            return ft, float(gt @ d)

        first_step = 1.0 if s_mem else min(1.0, 1.0 / (1.0 + float(np.abs(g).sum())))
        try:
            t = line_search_strong_wolfe(phi, f, slope, cfg, first_step)
        except LineSearchError:
            termination = "line_search_fail"
            break
        f_new, g_new = cache[t]

        s = t * d
        y = g_new - g
        sy = float(s @ y)
        # math.sqrt of the dot product is what np.linalg.norm computes for a vector.
        if sy > 1e-10 * math.sqrt(float(s @ s)) * math.sqrt(float(y @ y)):
            s_mem.append(s)
            y_mem.append(y)
            rho_mem.append(1.0 / sy)

        x = x + s
        f, g = f_new, g_new
        g_inf = float(np.abs(g).max()) if g.size else 0.0
        iterations += 1
        f_history.append(f)
        g_history.append(g_inf)

    return OptimResult(
        theta=x,
        f_final=f,
        grad_norm_final=g_inf,
        iterations=iterations,
        f_history=f_history,
        g_history=g_history,
        termination=termination,
        evaluations=evaluations,
    )
