"""Limited-memory BFGS with a strong Wolfe line search.

Self-contained on purpose: both training modes share this minimizer, so the
comparison between them never depends on an external library's internals.
The implementation is the standard two-loop recursion with ``s.y / y.y``
initial scaling and a bracket/zoom line search with cubic interpolation.

Both algorithms are written once, as resumable generators: the line search
(``_wolfe_search``) yields each trial step and receives the value and slope
there, and L-BFGS (:func:`lbfgs_search`) yields each point to evaluate and
receives its value and gradient. A driver can so advance many searches
together and evaluate their points in one stacked call. The single-objective
entry points drive the same generators: :func:`line_search_strong_wolfe`
answers the steps with ``phi``, and :func:`lbfgs_minimize` runs
:func:`lbfgs_search` with its objective, which then makes each line search
one call of :func:`line_search_strong_wolfe`, looked up on this module.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Generator, Optional

import numpy as np

__all__ = [
    "LbfgsConfig",
    "OptimResult",
    "LineSearchError",
    "NumericalError",
    "lbfgs_minimize",
    "lbfgs_search",
    "line_search_strong_wolfe",
]


LINE_SEARCH_BUDGET = 25  # objective evaluations one line search may spend


class LineSearchError(RuntimeError):
    """No step satisfying the Wolfe conditions within ``LINE_SEARCH_BUDGET`` evaluations."""


class NumericalError(RuntimeError):
    """The objective produced NaN or Inf."""


@dataclass
class LbfgsConfig:
    memory: int = 10
    max_iter: int = 1000
    grad_tol_inf: float = 1e-6
    wolfe_c1: float = 1e-4
    wolfe_c2: float = 0.9

    def __post_init__(self) -> None:
        if self.memory < 1:
            raise ValueError("memory must be >= 1")
        if not 0.0 < self.wolfe_c1 < self.wolfe_c2 < 1.0:
            raise ValueError(
                f"need 0 < c1 < c2 < 1, got c1={self.wolfe_c1}, c2={self.wolfe_c2}"
            )
        if self.max_iter < 0:
            raise ValueError("max_iter must be >= 0")


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


def _drive(search: Generator, evaluate: Callable):
    """Run a resumable search, answering each point it yields with ``evaluate``; return its result."""
    try:
        point = next(search)
        while True:
            point = search.send(evaluate(point))
    except StopIteration as done:
        return done.value


def _wolfe_search(
    f0: float,
    slope0: float,
    cfg: LbfgsConfig,
    initial_step: float,
) -> Generator[float, tuple[float, float], float]:
    """The strong Wolfe search as a resumable generator.

    Yields each trial step ``t`` and receives ``(phi(t), phi'(t))``; returns
    the accepted step, which is always the last one it yielded. Raises as
    :func:`line_search_strong_wolfe` does.
    """
    if slope0 >= 0.0:
        raise ValueError(f"not a descent direction (slope {slope0})")
    c1, c2 = cfg.wolfe_c1, cfg.wolfe_c2
    evals = 0
    # Near the minimum the objective decrease drops below float resolution
    # while slopes still resolve; tolerate value noise at that scale so the
    # curvature condition can decide acceptance.
    noise = 1e-15 * (1.0 + abs(f0))

    def zoom(lo: float, f_lo: float, d_lo: float, hi: float, f_hi: float, d_hi: float):
        nonlocal evals
        while evals < LINE_SEARCH_BUDGET:
            t = _cubic_step(lo, f_lo, d_lo, hi, f_hi, d_hi)
            span = abs(hi - lo)
            limit_lo = min(lo, hi) + 0.1 * span
            limit_hi = max(lo, hi) - 0.1 * span
            if not math.isfinite(t) or not limit_lo <= t <= limit_hi:
                t = 0.5 * (lo + hi)
            ft, dt = yield t
            evals += 1
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
    while evals < LINE_SEARCH_BUDGET:
        ft, dt = yield t
        evals += 1
        if ft > f0 + c1 * t * slope0 + noise or (evals > 1 and ft >= f_prev + noise):
            return (yield from zoom(t_prev, f_prev, d_prev, t, ft, dt))
        if abs(dt) <= -c2 * slope0:
            return t
        if dt >= 0.0:
            return (yield from zoom(t, ft, dt, t_prev, f_prev, d_prev))
        t_prev, f_prev, d_prev = t, ft, dt
        t = min(2.0 * t, 1e10)
    raise LineSearchError(f"no Wolfe step after {evals} evaluations")


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
    :class:`LineSearchError` after ``LINE_SEARCH_BUDGET`` (25) evaluations.
    The step returned is the last one ``phi`` was called at.
    """
    return _drive(_wolfe_search(f0, slope0, cfg, initial_step), phi)


def _two_loop(grad: np.ndarray, memory: deque) -> np.ndarray:
    """The inverse-Hessian estimate times ``grad``; ``memory`` holds ``(s, y, 1 / s.y)``, oldest first."""
    q = grad.copy()
    # One scratch vector takes every product, so no update allocates.
    tmp = np.empty_like(q)
    alphas = []
    for s, y, rho in reversed(memory):
        a = rho * float(s.dot(q))
        q -= np.multiply(a, y, out=tmp)
        alphas.append(a)
    if memory:
        s, y, _ = memory[-1]
        q *= float(s.dot(y)) / float(y.dot(y))
    for (s, y, rho), a in zip(memory, reversed(alphas)):
        b = rho * float(y.dot(q))
        q += np.multiply(a - b, s, out=tmp)
    return q


def _ray_points(
    steps: Generator[float, tuple[float, float], float],
    x: np.ndarray,
    d: np.ndarray,
    checked: Callable,
) -> Generator[np.ndarray, tuple, tuple[float, float, np.ndarray]]:
    """Run the Wolfe search ``steps`` along ``x + t d``, yielding each point to evaluate.

    Receives each point's ``(f, g)``; returns the accepted step with its
    checked evaluation.
    """
    t = next(steps)
    while True:
        f, g = checked((yield x + t * d), f"during the line search (step {t})")
        try:
            t = steps.send((f, float(g @ d)))
        except StopIteration as done:
            return done.value, f, g


def lbfgs_search(
    x0: np.ndarray,
    cfg: Optional[LbfgsConfig] = None,
    stop_hook: Optional[Callable[[int, np.ndarray, float, np.ndarray], bool]] = None,
    objective: Optional[Callable[[np.ndarray], tuple[float, np.ndarray]]] = None,
) -> Generator[np.ndarray, tuple, OptimResult]:
    """L-BFGS from ``x0`` as a resumable generator; returns the :class:`OptimResult`.

    It yields each point to evaluate, line-search trials included, and
    receives that point's ``(f, g)``, so a driver can advance many searches
    together and evaluate their points in one call. Given ``objective``, it
    calls it instead and yields nothing, and each line search is one call of
    :func:`line_search_strong_wolfe`, so that a tracer of that function sees
    each line search with its evaluations inside it. That is
    :func:`lbfgs_minimize`. Both forms run the same arithmetic and give the
    same bits.
    """
    cfg = cfg or LbfgsConfig()
    x = np.array(x0, dtype=np.float64).ravel()
    evaluations = 0

    def checked(value: tuple, where: str) -> tuple[float, np.ndarray]:
        nonlocal evaluations
        evaluations += 1
        f, g = value
        g = np.asarray(g, dtype=np.float64).ravel()
        if not math.isfinite(f) or not np.isfinite(g).all():
            raise NumericalError(f"objective returned NaN/Inf {where}")
        return float(f), g

    f, g = checked((yield x) if objective is None else objective(x), "at the starting point")
    g_inf = float(np.abs(g).max()) if g.size else 0.0
    f_history = [f]
    g_history = [g_inf]

    memory: deque = deque(maxlen=cfg.memory)

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

        d = -_two_loop(g, memory)
        slope = float(g @ d)
        if slope >= 0.0:
            # Memory has gone stale; restart from steepest descent.
            memory.clear()
            d = -g
            slope = -float(g @ g)

        first_step = 1.0 if memory else min(1.0, 1.0 / (1.0 + float(np.abs(g).sum())))
        try:
            if objective is None:
                steps = _wolfe_search(f, slope, cfg, first_step)
                t, f_new, g_new = yield from _ray_points(steps, x, d, checked)
            else:
                # The line search accepts the last step it tried, so the
                # latest evaluation is the accepted one.
                def phi(t: float) -> tuple[float, float]:
                    nonlocal last
                    last = checked(objective(x + t * d), f"during the line search (step {t})")
                    return last[0], float(last[1] @ d)

                last = None
                t = line_search_strong_wolfe(phi, f, slope, cfg, first_step)
                f_new, g_new = last
        except LineSearchError:
            termination = "line_search_fail"
            break

        s = t * d
        y = g_new - g
        sy = float(s @ y)
        # math.sqrt of the dot product is what np.linalg.norm computes for a vector.
        if sy > 1e-10 * math.sqrt(float(s @ s)) * math.sqrt(float(y @ y)):
            memory.append((s, y, 1.0 / sy))

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
    objective calls, and the termination reason. This is :func:`lbfgs_search`
    run with ``objective``, which it calls itself and so yields nothing.
    """
    return _drive(lbfgs_search(x0, cfg, stop_hook, objective), objective)
