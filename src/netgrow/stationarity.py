"""Numerical certification of the growth-map guarantees.

Two checks matter: growing a network must leave the empirical risk unchanged
for any parameter choice, and the stationarity-preserving maps (constant
growth with zero outgoing weights, and splits) must map zero-gradient points
to zero-gradient points. Both are certified numerically against thresholds.
The ``*_records`` generators are the suite ``netgrow verify`` runs, one per
check family; each yields the plain records it writes to ``reports.jsonl``.

The transfer and escape checks need stationary points of one small net from
a range of start seeds, and on a net that small numpy's fixed cost per call,
not arithmetic, sets the price of an evaluation. :func:`_stationary_points`,
the one search loop, therefore runs up to ``SEARCHES_IN_FLIGHT`` resumable
L-BFGS searches (:func:`~netgrow.optimizer.lbfgs_search`) in lockstep, with
one stacked evaluation per round (:func:`~netgrow.autodiff.stacked_risk_objective`).
It alone decides whether a search converged, and hands back the points found,
in seed order, and the failed searches. It runs exactly the seeds a one-by-one
loop runs, each to the same bits, and discards none. The transfer and escape
checks each call it once; :func:`find_stationary_point` is its one-seed case.
:func:`escape_rate` evaluates all its grown nets in one stacked call.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import comb
from typing import Iterator, Sequence

import numpy as np

from .autodiff import grad_norm_inf, risk_and_gradient, stacked_risk_objective
from .data import Dataset, make_synthetic, standardize
from .growth import (
    ConstantGrowth,
    GrowthPlan,
    GrowthSpec,
    GrowthStep,
    SplitGrowth,
    _new_columns,
    apply_growth,
    apply_plan,
    growth_label,
    random_growth,
)
from .net_core import ParamVector, Topology, _block_views, param_count
from .optimizer import LbfgsConfig, OptimResult, lbfgs_search

__all__ = [
    "StationarityReport",
    "NonConvergenceError",
    "find_stationary_point",
    "risk_gap_report",
    "verify_loss_invariance",
    "verify_stationarity_transfer",
    "transfer_safe_spec",
    "escape_rate",
    "count_manifold_families",
    "risk_records",
    "model_risk_records",
    "control_records",
    "transfer_records",
    "escape_records",
    "RISK_GAP_RTOL",
    "TRANSFER_SLACK",
    "TRANSFER_FLOOR",
    "DIVERGENCE_BOUND",
]

RISK_GAP_RTOL = 1e-10
TRANSFER_SLACK = 100.0
TRANSFER_FLOOR = 1e-14
# A search whose max|θ| passes this bound is abandoned: on tanh nets such runs
# follow a risk that falls toward an infimum at infinity (saturation), not a
# stationary point. Converging searches on the verify and criterion-3
# fixtures peak below 141.
DIVERGENCE_BOUND = 300.0
# The most stationary-point searches that advance together in _stationary_points.
SEARCHES_IN_FLIGHT = 16


class NonConvergenceError(RuntimeError):
    """The stationary-point search did not reach the requested tolerance.

    ``outcome`` says why it stopped: ``max_iter`` (iteration cap reached),
    ``line_search_fail`` (no Wolfe step) or ``diverged`` (max|θ| passed
    ``DIVERGENCE_BOUND``). ``best_norm`` is the gradient norm reported by the
    optimizer; ``iterations`` and ``evaluations`` give the search's cost.
    """

    def __init__(self, best_norm: float, outcome: str, iterations: int, evaluations: int,
                 detail: str):
        super().__init__(f"{outcome}: {detail} after {iterations} iterations "
                         f"({evaluations} evaluations)")
        self.best_norm = best_norm
        self.outcome = outcome
        self.iterations = iterations
        self.evaluations = evaluations


@dataclass(frozen=True)
class StationarityReport:
    check: str  # "risk" or "gradient"
    map_label: str
    source_risk: float
    embedded_risk: float
    risk_gap: float
    source_grad_norm: float
    embedded_grad_norm: float
    passed: bool

    def to_record(self, topology: Topology, **fields) -> dict:
        """The report as a ``reports.jsonl`` record of a check on ``topology``, plus ``fields``."""
        return {
            "topology": list(topology.layer_sizes),
            **fields,
            "check": self.check,
            "map": self.map_label,
            "source_risk": self.source_risk,
            "embedded_risk": self.embedded_risk,
            "risk_gap": self.risk_gap,
            "source_grad_norm": self.source_grad_norm,
            "embedded_grad_norm": self.embedded_grad_norm,
            "verdict": "pass" if self.passed else "fail",
        }


def find_stationary_point(
    topology: Topology,
    data,
    *,
    tol: float = 1e-8,
    max_iter: int = 2000,
    seed: int = 0,
) -> ParamVector:
    """Drive the risk gradient below ``tol`` from a seeded uniform(0,1) start.

    The search counts as diverged, and is given up, once an iterate's largest
    parameter magnitude exceeds ``DIVERGENCE_BOUND``. Raises
    :class:`NonConvergenceError` when the search diverges, hits ``max_iter``
    or fails a line search; its ``outcome`` names which. This is
    :func:`_stationary_points` asked for one point from the one seed.
    """
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tol}")
    points, failed = _stationary_points(topology, data, [seed], 1, tol=tol, max_iter=max_iter)
    if failed:
        raise _non_convergence(failed[0])
    return points[0][1]


def _search_start(topology: Topology, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).uniform(0.0, 1.0, param_count(topology))


def _diverged(_k, x, _f, _g) -> bool:
    return float(np.abs(x).max()) > DIVERGENCE_BOUND


def _non_convergence(result: OptimResult) -> NonConvergenceError:
    """The :class:`NonConvergenceError` of a search that stopped above its tolerance."""
    if result.termination == "custom":
        outcome = "diverged"
        detail = f"max|θ| {np.max(np.abs(result.theta)):.1f} > {DIVERGENCE_BOUND:g}"
    else:
        outcome = result.termination
        detail = f"final gradient norm {result.grad_norm_final:.3e}"
    return NonConvergenceError(
        result.grad_norm_final, outcome, result.iterations, result.evaluations, detail
    )


def _stationary_points(topology: Topology, data, seeds: Sequence[int], wanted: int, *, tol: float,
                       max_iter: int) -> tuple[list[tuple[int, ParamVector]], list[OptimResult]]:
    """Up to ``wanted`` stationary points, as ``(seed, point)`` in seed order, and failed searches.

    Seeds are tried in order until ``wanted`` searches end with a gradient norm
    of at most ``tol``; each search that stopped above it is returned as its
    ``OptimResult``, in the order the searches stopped. Up to
    ``SEARCHES_IN_FLIGHT`` resumable searches advance in lockstep, with one
    stacked evaluation per round, and a seed is launched only while the points
    found plus the searches in flight fall short of ``wanted``: exactly the
    seeds of a one-by-one loop run, and none is wasted.
    """
    objective = stacked_risk_objective(topology, data)
    cfg = LbfgsConfig(grad_tol_inf=tol, max_iter=max_iter)
    pending = iter(seeds)
    flight: dict[int, list] = {}  # seed -> [search, the point it waits on]
    points, failed = [], []
    while True:
        while len(flight) < SEARCHES_IN_FLIGHT and len(points) + len(flight) < wanted:
            seed = next(pending, None)
            if seed is None:
                break
            search = lbfgs_search(_search_start(topology, seed), cfg, _diverged)
            flight[seed] = [search, next(search)]
        if not flight:
            return sorted(points, key=lambda found: found[0]), failed
        risks, grads = objective(np.stack([point for _, point in flight.values()]))
        for k, (seed, entry) in enumerate(list(flight.items())):
            try:
                entry[1] = entry[0].send((risks[k], grads[k]))
            except StopIteration as done:
                del flight[seed]
                if done.value.grad_norm_final <= tol:
                    points.append((seed, ParamVector(topology, done.value.theta)))
                else:
                    failed.append(done.value)


def verify_loss_invariance(
    theta: ParamVector,
    data,
    growth: GrowthSpec | GrowthPlan,
    *,
    rng: np.random.Generator | None = None,
) -> StationarityReport:
    """Check that growing leaves the empirical risk unchanged at ``theta``.

    A :class:`GrowthPlan` draws its steps' parameters from ``rng``.
    """
    if isinstance(growth, GrowthPlan):
        if rng is None:
            raise ValueError("a growth plan needs an rng to draw its parameters")
        grown = apply_plan(theta, growth, rng=rng)
    else:
        grown = apply_growth(theta, growth)
    return risk_gap_report(theta, grown, data, growth_label(growth))


def risk_gap_report(
    theta: ParamVector,
    grown: ParamVector,
    data,
    map_label: str,
) -> StationarityReport:
    """Risk check of ``grown``, wider than ``theta``: the risks must agree to ``RISK_GAP_RTOL``."""
    if grown.topology == theta.topology:
        raise ValueError(f"{map_label} adds no neuron: the check would compare a net with itself")
    source_risk, source_grad = risk_and_gradient(theta, data)
    grown_risk, grown_grad = risk_and_gradient(grown, data)
    gap = abs(grown_risk - source_risk)
    return StationarityReport(
        check="risk",
        map_label=map_label,
        source_risk=source_risk,
        embedded_risk=grown_risk,
        risk_gap=gap,
        source_grad_norm=grad_norm_inf(source_grad),
        embedded_grad_norm=grad_norm_inf(grown_grad),
        passed=gap <= RISK_GAP_RTOL * (1.0 + abs(source_risk)),
    )


def _transfer_safe(growth) -> bool:
    if isinstance(growth, SplitGrowth):
        return True
    if isinstance(growth, ConstantGrowth):
        return not np.any(np.asarray(growth.out_weights))
    return False


def transfer_safe_spec(
    kind: str,
    topology: Topology,
    layer: int,
    count: int,
    rng: np.random.Generator,
) -> GrowthSpec:
    """Draw a growth spec that provably preserves stationary points.

    Constant growth gets uniform(0,1) biases and zero outgoing weights; splits
    get a uniform random source and shares drawn uniformly on the simplex.
    """
    if kind == "constant":
        return ConstantGrowth(
            layer,
            rng.uniform(0.0, 1.0, count),
            np.zeros((topology.size(layer + 1), count)),
        )
    if kind == "split":
        source = int(rng.integers(topology.size(layer)))
        shares = rng.uniform(0.0, 1.0, count + 1)
        shares /= shares.sum()
        return SplitGrowth(layer, count, source, shares)
    raise ValueError(f"{kind!r} growth does not preserve stationarity")


def verify_stationarity_transfer(
    theta: ParamVector,
    data,
    growth: GrowthSpec | Sequence[GrowthSpec],
) -> StationarityReport:
    """Check that a stationarity-preserving map, or a chain of them, keeps the gradient tiny.

    Only splits, constant growths with zero outgoing weights, and chains of
    those over distinct layers qualify; anything else (inert growth in
    particular) is rejected. A chain is applied spec by spec, in order.
    """
    specs = list(growth) if isinstance(growth, (list, tuple)) else [growth]
    idle = [growth_label(s) for s in specs if s.count < 1]
    if idle:  # named as risk_gap_report names a map of no neurons, before the steps' own check
        raise ValueError(f"{idle[0]} adds no neuron: its count must be >= 1")
    plan = GrowthPlan(tuple(GrowthStep(s.kind, s.layer, s.count) for s in specs))
    bad = [growth_label(s) for s in specs if not _transfer_safe(s)]
    if bad:
        raise ValueError(f"maps {bad} do not preserve stationarity; use splits or "
                         "constant growth with zero outgoing weights")
    grown = theta
    for spec in specs:
        grown = apply_growth(grown, spec)
    label = specs[0] if len(specs) == 1 else plan
    report = risk_gap_report(theta, grown, data, growth_label(label))
    bound = TRANSFER_SLACK * max(report.source_grad_norm, TRANSFER_FLOOR)
    return replace(report, check="gradient", passed=report.embedded_grad_norm <= bound)


def escape_rate(
    theta: ParamVector,
    data,
    layer: int,
    count: int,
    *,
    draws: int = 50,
    threshold: float = 1e-3,
    seed: int = 0,
) -> float:
    """Fraction of random inert growths whose gradient norm exceeds ``threshold``.

    At a stationary point this is the probability that growing wakes the
    optimizer up again; it should be near one for uniform(0,1) draws.
    """
    for name, value in (("count", count), ("draws", draws)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    rng = np.random.default_rng(seed)
    grown = [apply_growth(theta, random_growth("inert", theta.topology, layer, count, rng))
             for _ in range(draws)]
    # one stacked evaluation of all draws, each with the bits of its own call
    _, grads = stacked_risk_objective(grown[0].topology, data)(np.stack([g.flat for g in grown]))
    hits = sum(grad_norm_inf(grad) > threshold for grad in grads)
    return hits / draws


def count_manifold_families(topology: Topology, budget: int) -> int:
    """Distinct (layer set, per-layer count, map kind) families within a budget.

    Counts nonempty subsets of the hidden layers, compositions of at least one
    new neuron per chosen layer totalling at most ``budget``, and an
    independent choice between the two stationarity-preserving maps per layer.
    Grows exponentially with the number of hidden layers.
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    hidden = topology.depth - 1
    total = 0
    for k in range(1, min(hidden, budget) + 1):
        # comb(budget, k) counts the ways to give k layers >= 1 neurons
        # with at most `budget` in total.
        total += comb(hidden, k) * comb(budget, k) * 2**k
    return total


def _verify_fixture(topology: Topology, seed: int) -> Dataset:
    rng = np.random.default_rng(seed)
    return Dataset(
        rng.uniform(-2.0, 2.0, (16, topology.n_inputs)),
        rng.uniform(-1.0, 1.0, (16, topology.n_outputs)),
        name=f"verify-{seed}",
    )


def _verify_growth(kind: str, topology: Topology, rng) -> GrowthSpec | GrowthPlan:
    hidden = topology.depth - 1
    if kind == "plan":
        steps = [GrowthStep("inert", 1, 1)]
        if hidden >= 2:
            steps.append(GrowthStep("split", 2, 2))
        return GrowthPlan(tuple(steps))
    layer = int(rng.integers(1, hidden + 1))
    return random_growth(kind, topology, layer, int(rng.integers(1, 4)), rng)


def _random_network(topology: Topology, rng) -> ParamVector:
    return ParamVector(topology, rng.uniform(-1.0, 1.0, param_count(topology)))


def _risk_cases(topology, data, saved, base, step, kinds, seeds, **fields) -> Iterator[dict]:
    # case s of each kind is seeded base + s * step and grows ``saved`` or a random net
    for kind in kinds:
        for s in range(seeds):
            case_seed = base + s * step
            rng = np.random.default_rng(case_seed)
            theta = saved if saved is not None else _random_network(topology, rng)
            growth = _verify_growth(kind, topology, rng)
            report = verify_loss_invariance(theta, data, growth, rng=rng)
            yield report.to_record(topology, **fields, seed=case_seed)


def risk_records(topologies: Sequence[Topology], kinds: Sequence[str], seeds: int,
                 seed: int) -> Iterator[dict]:
    """Risk checks of each map kind on ``seeds`` random networks per topology."""
    for t, topology in enumerate(topologies):
        data = _verify_fixture(topology, 1000 + t)
        yield from _risk_cases(topology, data, None, t * 1009 + seed, 13, kinds, seeds)


def model_risk_records(theta: ParamVector, data: Dataset | None, model: str,
                       kinds: Sequence[str], seeds: int, seed: int) -> Iterator[dict]:
    """Risk checks of each map kind, ``seeds`` draws each, on the network saved in ``model``."""
    data = _verify_fixture(theta.topology, 1000 + seed) if data is None else data
    yield from _risk_cases(theta.topology, data, theta, seed, 1, kinds, seeds, model=model)


def control_records(topologies: Sequence[Topology], seed: int) -> Iterator[dict]:
    """Per topology, an inert growth with a corrupted weight; its risk check must fail."""
    for t, topology in enumerate(topologies):
        rng = np.random.default_rng(seed + 77 + t)
        theta = _random_network(topology, rng)
        grown = apply_growth(theta, random_growth("inert", topology, 1, 2, rng))
        # corrupt one of the zero outgoing weights of the first new neuron
        flat = grown.flat.copy()
        _new_columns(_block_views(grown.topology.layer_sizes, flat), 1, 2)[0, 0] = 0.7
        corrupted = ParamVector(grown.topology, flat)
        report = risk_gap_report(theta, corrupted, _verify_fixture(topology, 1000 + t),
                                 "inert(corrupted)")
        yield report.to_record(topology, control=True, expected="fail")


def _teacher_fixture(noise: float, width: int) -> Dataset:
    return standardize(make_synthetic("teacher_net", n=2, m=1, samples=24, noise=noise,
                                      seed=6, teacher_width=width))


def transfer_records(seeds: int, seed: int) -> Iterator[dict]:
    """Constant and split transfer checks at ``seeds`` stationary points of a (2,2,1) net."""
    fixture = _teacher_fixture(0.1, 5)
    starts = range(seed + 1, seed + 1 + seeds * 4)
    points, _ = _stationary_points(Topology((2, 2, 1)), fixture, starts, seeds, tol=1e-8,
                                   max_iter=3000)
    for start, theta in points:
        rng = np.random.default_rng(start + 500)
        for kind in ("constant", "split"):
            spec = transfer_safe_spec(kind, theta.topology, 1, 2, rng)
            report = verify_stationarity_transfer(theta, fixture, spec)
            yield report.to_record(theta.topology, seed=start)


def escape_records(seed: int) -> Iterator[dict]:
    """At a stationary point of a (2,1,1) net, >= 90 % of 50 inert growths must escape."""
    # a width-1 student of a wide teacher keeps a large residual, so growth wakes it up
    fixture = _teacher_fixture(0.2, 8)
    points, _ = _stationary_points(Topology((2, 1, 1)), fixture, range(seed, seed + 20), 1,
                                   tol=1e-8, max_iter=3000)
    if not points:
        raise RuntimeError("no stationary point found for the escape check")
    [(_, theta)] = points
    rate = escape_rate(theta, fixture, layer=1, count=2, draws=50, threshold=1e-3, seed=seed)
    yield {
        "check": "escape",
        "map": "inert@1x2",
        "escape_rate": rate,
        "draws": 50,
        "threshold": 1e-3,
        "verdict": "pass" if rate >= 0.9 else "fail",
    }
