import numpy as np
import pytest

from netgrow import (
    GrowthEscapeError,
    ItaConfig,
    grad_norm_inf,
    gradient_forward,
    ita_train,
    make_synthetic,
    standard_train,
    standardize,
)
from netgrow.incremental import RISK_CONTINUITY_RTOL


@pytest.fixture(scope="module")
def problem():
    return standardize(
        make_synthetic("teacher_net", n=2, m=1, samples=120, noise=0.1, seed=11, teacher_width=6)
    )


def test_config_validation():
    with pytest.raises(ValueError):
        ItaConfig(initial_width=200, max_width=100)
    with pytest.raises(ValueError):
        ItaConfig(initial_hidden_widths=(4, 4))  # multilayer needs the flag


def test_doubling_width_schedule(problem):
    cfg = ItaConfig(initial_width=10, max_width=100, seed=3, maxit_per_stage=3)
    run = ita_train(problem, cfg)
    assert [s.width for s in run.stages] == [10, 20, 40, 80, 100]


def test_width_strictly_increases_until_cap(problem):
    cfg = ItaConfig(initial_width=7, max_width=30, seed=1, maxit_per_stage=3)
    run = ita_train(problem, cfg)
    widths = [s.width for s in run.stages]
    assert widths == sorted(widths)
    assert len(set(widths)) == len(widths)
    assert widths[-1] == 30


def test_fixed_and_scheduled_growth(problem):
    run = ita_train(problem, ItaConfig(initial_width=4, max_width=10, growth=3, seed=1, maxit_per_stage=2))
    assert [s.width for s in run.stages] == [4, 7, 10]
    run = ita_train(
        problem,
        ItaConfig(initial_width=4, max_width=12, growth=(2, 6), seed=1, maxit_per_stage=2),
    )
    assert [s.width for s in run.stages] == [4, 6, 12]


def test_growth_boundary_risk_continuity(problem):
    cfg = ItaConfig(initial_width=5, max_width=40, seed=5, maxit_per_stage=30)
    run = ita_train(problem, cfg)
    assert len(run.stages) >= 3
    for before, after in zip(run.stages, run.stages[1:]):
        gap = abs(after.start_risk - before.end_risk)
        assert gap <= RISK_CONTINUITY_RTOL * (1.0 + abs(before.end_risk))


def test_stage_risk_never_increases(problem):
    run = ita_train(problem, ItaConfig(initial_width=5, max_width=20, seed=2, maxit_per_stage=50))
    for stage in run.stages:
        assert stage.end_risk <= stage.start_risk + 1e-12 * (1.0 + abs(stage.start_risk))


def test_post_growth_gradient_exceeds_stage_tolerance(problem):
    cfg = ItaConfig(initial_width=5, max_width=20, seed=4, maxit_per_stage=60)
    run = ita_train(problem, cfg)
    for stage in run.stages[1:]:
        # the next stage starts from the grown point; its starting gradient
        # must be above the escape tolerance used at the boundary
        assert stage.g_history[0] > min(1e-6, stage.g_history[0] / 2)
        assert stage.g_history[0] > 0.0


def test_loss_trace_is_per_epoch(problem):
    run = ita_train(problem, ItaConfig(initial_width=5, max_width=20, seed=6, maxit_per_stage=20))
    assert len(run.loss_trace) == run.cumulative_epochs + 1
    assert len(run.grad_trace) == len(run.loss_trace)
    assert run.final_risk == run.loss_trace[-1]


def test_budget_cap_and_prefix_property(problem):
    long = ita_train(problem, ItaConfig(initial_width=6, max_width=24, seed=7, total_epoch_budget=120))
    short = ita_train(problem, ItaConfig(initial_width=6, max_width=24, seed=7, total_epoch_budget=40))
    assert short.cumulative_epochs <= 40
    assert short.loss_trace == long.loss_trace[: len(short.loss_trace)]
    assert long.risk_after(40) == short.final_risk


def test_deterministic_under_seed(problem):
    cfg = ItaConfig(initial_width=5, max_width=20, seed=8, maxit_per_stage=40)
    a = ita_train(problem, cfg)
    b = ita_train(problem, cfg)
    assert a.loss_trace == b.loss_trace
    assert np.array_equal(a.theta_final.flat, b.theta_final.flat)
    c = ita_train(problem, ItaConfig(initial_width=5, max_width=20, seed=9, maxit_per_stage=40))
    assert a.loss_trace != c.loss_trace


def test_escape_error_when_tolerance_unreachable(problem):
    # an absurd final tolerance can never be exceeded by the grown gradient
    cfg = ItaConfig(
        initial_width=4,
        max_width=8,
        seed=1,
        maxit_per_stage=5,
        final_grad_tol=1e12,
    )
    with pytest.raises(GrowthEscapeError):
        ita_train(problem, cfg)


def test_epoch_records_show_boundary_continuity(problem):
    run = ita_train(problem, ItaConfig(initial_width=5, max_width=20, seed=10, maxit_per_stage=30))
    records = list(run.epoch_records())
    # reconstruct stage boundaries from the records
    for k in range(len(run.stages) - 1):
        last = [r for r in records if r["stage"] == k][-1]
        first = [r for r in records if r["stage"] == k + 1][0]
        assert first["epoch"] == 0
        assert abs(first["risk"] - last["risk"]) <= RISK_CONTINUITY_RTOL * (1 + abs(last["risk"]))


def test_standard_train_zero_maxit(problem):
    run = standard_train(problem, 10, maxit=0, seed=3)
    assert run.cumulative_epochs == 0
    assert len(run.loss_trace) == 1
    assert run.stages[0].termination == "max_iter"


def test_standard_train_grad_tol_on_easy_problem():
    easy = standardize(
        make_synthetic("teacher_net", n=2, m=1, samples=12, noise=0.0, seed=3, teacher_width=2)
    )
    run = standard_train(easy, 12, tol=1e-6, maxit=2000, seed=5)
    assert run.stages[0].termination == "grad_tol"
    assert grad_norm_inf(gradient_forward(run.theta_final, easy)) <= 1e-6


def test_standard_train_deterministic(problem):
    a = standard_train(problem, 15, maxit=40, seed=2)
    b = standard_train(problem, 15, maxit=40, seed=2)
    assert a.loss_trace == b.loss_trace


def test_multilayer_growth_experimental(problem):
    cfg = ItaConfig(
        initial_width=4,
        max_width=8,
        seed=2,
        maxit_per_stage=10,
        initial_hidden_widths=(4, 4),
        experimental_multilayer=True,
    )
    run = ita_train(problem, cfg)
    assert run.stages[0].widths == (4, 4)
    assert run.stages[-1].widths == (8, 8)
    for before, after in zip(run.stages, run.stages[1:]):
        gap = abs(after.start_risk - before.end_risk)
        assert gap <= RISK_CONTINUITY_RTOL * (1.0 + abs(before.end_risk))


def test_ita_beats_or_matches_standard_on_most_replicas():
    # equal-budget comparison across seeded replicas on a 200-sample, n=2
    # regression; the stage delta matches the problem's risk scale so the
    # intermediate networks actually converge before growing
    regression = standardize(
        make_synthetic("polynomial", n=2, m=1, samples=200, noise=0.2, seed=47)
    )
    budget = 200
    wins = 0
    for seed in range(10):
        ita = ita_train(
            regression,
            ItaConfig(
                initial_width=10,
                max_width=100,
                seed=seed,
                total_epoch_budget=budget,
                intermediate_loss_delta=1e-4,
            ),
        )
        std = standard_train(regression, 100, tol=1e-6, maxit=budget, seed=seed)
        if ita.final_risk <= std.final_risk:
            wins += 1
    assert wins >= 7, f"incremental won only {wins}/10"


def test_ita_with_equal_start_and_max_width_is_single_stage(problem):
    run = ita_train(problem, ItaConfig(initial_width=12, max_width=12, seed=1, maxit_per_stage=20))
    assert len(run.stages) == 1
    assert run.stages[0].width == 12
