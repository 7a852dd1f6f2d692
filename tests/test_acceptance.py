"""Acceptance suite.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all).
The convergence check at the shipped 20-second horizon is recorded as an
expected failure: with action step 0.14 the slowest mode of the
pseudo-gradient contracts at about 0.158/s, so even uninterrupted
communication cannot bring the starting error of 12 under 0.05 before
roughly t = 35 s. The honest long-horizon convergence check lives in
test_engine.py; everything else here runs at the shipped settings.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from neseek import (
    LawKind,
    Member,
    compare_laws,
    compute_report,
    init,
    lyapunov_pair,
    pseudo_gradient,
    run,
    single_run,
    solve_ne,
    spectral_efficiency,
    step,
)
from neseek.games import ActionInterval

from conftest import PUBLISHED_X_STAR, dense_p, random_strongly_connected, with_engine
from oracles import coupling_matrix, project
from test_triggers import decide_law, law_inputs, margin, random_cases
from test_triggers import params as trigger_params_factory

ENSEMBLE_RUNS = 100


def check(num: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def equilibrium(spectrum_scenario):
    return solve_ne(spectrum_scenario.game).x_star


@pytest.fixture(scope="module")
def stochastic_members(anchored):
    """The stochastic ensemble's runs, one per seed, and the time they took."""
    members = [Member(LawKind.STOCHASTIC, seed) for seed in range(ENSEMBLE_RUNS)]
    t0 = time.perf_counter()
    runs = run(anchored, members=members)
    elapsed = time.perf_counter() - t0
    return runs, elapsed


@pytest.fixture(scope="module")
def anchored(spectrum_scenario, equilibrium):
    """The bundled scenario with its errors measured against ``equilibrium``."""
    return dataclasses.replace(spectrum_scenario, ne_override=equilibrium)


@pytest.fixture(scope="module")
def comparison_ensembles(anchored):
    return compare_laws(anchored, list(LawKind), ENSEMBLE_RUNS, base_seed=0)


def test_01_equilibrium_reproduction(spectrum_scenario):
    t0 = time.perf_counter()
    sol = solve_ne(spectrum_scenario.game)
    elapsed = time.perf_counter() - t0
    gap = np.abs(sol.x_star - PUBLISHED_X_STAR).max()
    check(
        "01",
        gap < 1e-2 and elapsed < 1.0,
        f"equilibrium within {gap:.2e} of the published values in {elapsed * 1e3:.0f} ms",
    )


def test_02_interior_equilibrium_residual(spectrum_scenario):
    u1 = spectral_efficiency(12.0, 1e-4)
    # closed-form own-gradient at the published equilibrium, recomputed here
    m_c = np.array([5.7, 10.7, 10.3, 9.7, 15.0])
    q = np.array([1.1, 1.2, 1.3, 1.4, 1.5])
    u = np.array([spectral_efficiency(s, 1e-4) for s in (12.0, 14.0, 15.0, 16.0, 18.0)])
    total = PUBLISHED_X_STAR.sum()
    closed_form = m_c + q * (total + PUBLISHED_X_STAR) - 20.0 * u
    via_game = pseudo_gradient(spectrum_scenario.game, PUBLISHED_X_STAR)
    resid = np.abs(via_game).max()
    ok = (
        resid < 0.05
        and np.abs(closed_form).max() < 0.05
        and abs(u1 - 2.0448) < 1e-3
    )
    check("02", ok, f"own-gradient residual {resid:.2e} at the published equilibrium, u1={u1:.5f}")


@pytest.mark.xfail(
    strict=True,
    reason="20 s horizon cannot reach the 0.05 error band at action step 0.14; "
    "the slowest pseudo-gradient mode needs about 35 s from this start",
)
def test_03a_error_band_at_shipped_horizon(stochastic_members):
    members, _ = stochastic_members
    finals = np.array([m.err_inf[-1] for m in members])
    good = int((finals < 0.05).sum())
    check(
        "03a",
        good >= 95,
        f"{good}/{ENSEMBLE_RUNS} seeds below 0.05 at t=20 (median final error {np.median(finals):.3f})",
    )


def test_03b_decay_rate_and_runtime(stochastic_members):
    members, elapsed = stochastic_members
    fits = np.array([m.rate_fit for m in members])
    good = int((fits < -0.1).sum())
    check(
        "03b",
        good >= 95 and elapsed < 30.0,
        f"{good}/{ENSEMBLE_RUNS} seeds with decay slope < -0.1 over [0,10]; "
        f"ensemble took {elapsed:.1f} s",
    )


def test_04_communication_rate_ordering(comparison_ensembles):
    g = {law: ens.mean_gamma_series[-1] for law, ens in comparison_ensembles.items()}
    stoch, dyn, stat, cont = (
        g[LawKind.STOCHASTIC],
        g[LawKind.DYNAMIC],
        g[LawKind.STATIC],
        g[LawKind.CONTINUOUS],
    )
    ratios = []
    for i in range(5):
        s_stats = comparison_ensembles[LawKind.STOCHASTIC].interval_stats[i]
        t_stats = comparison_ensembles[LawKind.STATIC].interval_stats[i]
        ratios.append(s_stats[1] / t_stats[1])
    ordering = stoch < dyn < stat < cont == 1.0
    halved = stoch <= 0.5 * stat
    spaced = min(ratios) >= 2.0
    check(
        "04",
        ordering and halved and spaced,
        f"mean rate at t=20: stochastic={stoch:.4f} < dynamic={dyn:.4f} < static={stat:.4f} "
        f"< continuous={cont:.1f}; interval ratio >= {min(ratios):.1f}x",
    )


def test_05_no_trigger_inequality_exact(spectrum_scenario):
    s = spectrum_scenario
    p = s.trigger
    result = single_run(s, seed=123)
    ln_kappa = math.log(p.kappa)
    violations = 0
    quiet = 0
    for k, t in enumerate(result.times[:-1]):
        decay = p.delta0 * np.exp(-p.eta * t)
        for i in range(s.n):
            rho = float(result.rho[k, i])
            bound = (float(decay[i]) / float(p.c[i])) * (ln_kappa - math.log(result.xi[k, i]))
            if not result.trig[k + 1, i]:
                quiet += 1
                if not rho <= bound:
                    violations += 1
            elif not rho > bound:
                violations += 1
    check(
        "05",
        violations == 0 and quiet > 0,
        f"{violations} violations over {result.rho.size} evaluations ({quiet} quiet)",
    )


def test_06_pinned_threshold_equals_dynamic_law():
    total = 10_000
    p = trigger_params_factory(n=total)
    cases = random_cases(np.random.default_rng(2024), total)
    fired = decide_law(LawKind.DYNAMIC, p, **law_inputs(cases, p), u=np.full(total, 0.5))
    agree = 0
    for rho, decay, got in zip(margin(cases, p.sigma), cases["decay"], fired):
        z = float(p.c[0]) * float(rho) / float(decay)
        if z > 700.0:
            pinned = True
        elif z < -700.0:
            pinned = False
        else:
            pinned = p.a_floor > p.kappa * math.exp(-z)
        agree += pinned == got
    check("06", agree == total, f"{agree}/{total} decisions agree with the pinned-threshold law")


def test_07_lyapunov_certificates_on_random_digraphs():
    rng = np.random.default_rng(77)
    worst_resid = 0.0
    ok = True
    for _ in range(100):
        g = random_strongly_connected(rng, int(rng.integers(2, 7)))
        m = coupling_matrix(g)
        if np.linalg.eigvals(m).real.min() <= 0:
            ok = False
            break
        pair = lyapunov_pair(g)
        p = dense_p(pair)
        # relative to ||Q|| = ||I|| = 1, checked on the dense equation too
        rel = max(np.linalg.norm(m.T @ p + p @ m - np.eye(g.n ** 2), 2), pair.residual)
        worst_resid = max(worst_resid, rel)
        if np.linalg.eigvalsh(p).min() <= 0 or rel > 1e-8:
            ok = False
            break
    check("07", ok, f"100 random digraphs certified; worst relative residual {worst_resid:.2e}")


def test_08_projection_non_expansive():
    rng = np.random.default_rng(88)
    violations = 0
    for lo, hi in ((0.0, 16.0), (-3.0, 5.0), (2.0, 2.0), (-100.0, 100.0), (0.0, 1e-3)):
        box = ActionInterval(lo, hi)
        pairs = rng.uniform(-200, 200, size=(20_000, 2))
        for v1, v2 in pairs:
            if abs(project(box, v1) - project(box, v2)) > abs(v1 - v2):
                violations += 1
    check("08", violations == 0, f"{violations} violations over 100000 pairs")


def test_09_rate_certificate_identities(spectrum_scenario):
    s = spectrum_scenario
    report = compute_report(s.game, s.graph, alpha=0.14, beta=1.5, eta=10.0)
    lhs = (report.omega1 - report.theta_star) * (report.omega2 - report.theta_star)
    rhs = report.phi1 * report.phi2
    identity_ok = abs(lhs - rhs) <= 1e-9 * max(abs(lhs), abs(rhs))
    kv_ok = report.k_v == min(
        report.theta_star, report.theta_star / report.lambda_max_p, report.eta / 2.0
    )
    check(
        "09",
        identity_ok and kv_ok,
        f"root identity holds to {abs(lhs - rhs) / max(abs(rhs), 1e-300):.1e} rel; "
        f"published step sizes feasible={report.feasible} (informational)",
    )


def test_10_bounded_events_under_grid_refinement(anchored):
    law = anchored.law
    coarse = compare_laws(anchored, [law], 6, base_seed=0)
    fine = compare_laws(with_engine(anchored, dt=0.0125), [law], 6, base_seed=0)
    ratio = fine[law].mean_counts / coarse[law].mean_counts
    first = single_run(anchored, seed=0, law=law)
    gaps_ok = all(
        gaps.min() >= anchored.engine.dt
        for gaps in first.intervals
        if gaps.size
    )
    check(
        "10",
        (ratio <= 1.5).all() and gaps_ok,
        f"halving dt scales per-player counts by at most {ratio.max():.2f}; "
        "all gaps at least one step",
    )


def test_11_single_step_hand_oracle():
    import test_engine

    s = test_engine.two_player_setup(horizon=0.025)
    new, _, _ = step(init(s), test_engine.one_member(LawKind.CONTINUOUS, s, 0))
    g0 = (2.0 * 1.0 + (0.0 * 1.0 + 1.0 * 0.5)) + -4.0
    g1 = (3.0 * 2.0 + (-1.0 * 1.5 + 0.0 * 2.0)) + 1.0
    expected_x = np.array(
        [
            1.0 + 0.025 * (min(max(1.0 - 0.1 * g0, 0.0), 5.0) - 1.0),
            2.0 + 0.025 * (min(max(2.0 - 0.1 * g1, -2.0), 4.0) - 2.0),
        ]
    )
    expected_y01 = 0.5 + 0.025 * (-0.2 * ((0.5 - 2.0) + (0.5 - 2.0)))
    expected_y10 = 1.5 + 0.025 * (-0.2 * ((1.5 - 1.0) + (1.5 - 1.0)))
    worst = max(
        float(np.abs(new.x - expected_x).max()),
        abs(new.y[0, 1] - expected_y01),
        abs(new.y[1, 0] - expected_y10),
        abs(new.y[0, 0] - expected_x[0]),
        abs(new.y[1, 1] - expected_x[1]),
    )
    check("11", worst <= 1e-12, f"one-step state matches the hand computation to {worst:.1e}")
