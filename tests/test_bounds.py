import math

import numpy as np
import pytest

from neseek import (
    DirectedGraph,
    alpha_max,
    beta_min,
    compute_report,
    lyapunov_pair,
)

from conftest import dense_p
from oracles import coupling_matrix

from test_games import decoupled_quadratic

TWO_CYCLE = DirectedGraph(np.array([[0.0, 1.0], [1.0, 0.0]]))


class TestSigmaBound:
    def test_two_cycle_exact(self):
        # Laplacian [[1,-1],[-1,1]] has operator norm 2
        assert TWO_CYCLE.sigma_bound == pytest.approx(1.0 / 16.0, rel=1e-12)

    def test_edgeless_warns_and_returns_infinity(self):
        g = DirectedGraph(np.zeros((3, 3)))
        with pytest.warns(UserWarning, match="no edges"):
            assert g.sigma_bound == math.inf

    def test_bundled_graph_matches_svd_oracle(self, spectrum_scenario):
        g = spectrum_scenario.graph
        lap = np.diag(g.in_degrees) - g.weights
        top_singular = np.linalg.svd(lap, compute_uv=False)[0]
        expected = 4.0 / (10.0 * top_singular ** 2)
        got = g.sigma_bound
        assert got > 0
        assert got == pytest.approx(expected, rel=1e-12)

    def test_doubling_weights_quarters_the_bound(self, spectrum_scenario):
        g = spectrum_scenario.graph
        doubled = DirectedGraph(2.0 * g.weights)
        assert doubled.sigma_bound == pytest.approx(g.sigma_bound / 4.0, rel=1e-12)


class TestBetaMin:
    def test_unit_constants(self):
        assert beta_min(mu=1.0, c2=1.0, c3=1.0, c4=1.0) == pytest.approx(5.0)

    def test_decreasing_in_mu_when_coupling_present(self):
        base = beta_min(mu=1.0, c2=1.0, c3=1.0, c4=1.0)
        doubled = beta_min(mu=2.0, c2=1.0, c3=1.0, c4=1.0)
        assert doubled < base
        # without the cross term the value is mu-independent
        assert beta_min(2.0, 0.0, 0.0, 3.0) == beta_min(1.0, 0.0, 0.0, 3.0)


class TestAlphaMax:
    def test_unit_constants(self):
        got = alpha_max(mu=1.0, beta=10.0, c1=1.0, c2=1.0, c3=1.0, c4=1.0)
        assert got == pytest.approx(10.0 / 21.0)

    def test_beta_at_threshold_is_infeasible(self):
        b = beta_min(mu=1.0, c2=1.0, c3=1.0, c4=1.0)
        assert math.isnan(alpha_max(1.0, b * (1.0 - 1e-12), 1.0, 1.0, 1.0, 1.0))
        assert math.isnan(alpha_max(1.0, b, 1.0, 1.0, 1.0, 1.0))


@pytest.fixture(scope="module")
def published_report(spectrum_scenario):
    s = spectrum_scenario
    return compute_report(s.game, s.graph, alpha=0.14, beta=1.5, eta=10.0), s


class TestComputeReport:
    def test_definitional_identities(self, published_report):
        report, s = published_report
        p = dense_p(lyapunov_pair(s.graph))
        norm_p = np.linalg.norm(p, 2)
        norm_pm = np.linalg.norm(p @ coupling_matrix(s.graph), 2)
        n = 5
        assert report.c1 == report.lbar * math.sqrt(n)
        assert report.c2 == report.lbar
        assert report.c3 == pytest.approx(math.sqrt(n) * norm_p, rel=1e-12)
        assert report.c4 == pytest.approx(2.0 * math.sqrt(2.0 * (n - 1)) * norm_pm, rel=1e-12)
        assert report.c5 == pytest.approx(n * math.sqrt(2.0 / (n - 1)) * norm_pm, rel=1e-12)

    def test_quadratic_root_identity(self, published_report):
        report, _ = published_report
        lhs = (report.omega1 - report.theta_star) * (report.omega2 - report.theta_star)
        rhs = report.phi1 * report.phi2
        assert lhs == pytest.approx(rhs, rel=1e-9)
        poly = (
            report.theta_star ** 2
            - (report.omega1 + report.omega2) * report.theta_star
            + (report.omega1 * report.omega2 - report.phi1 * report.phi2)
        )
        scale = max(1.0, abs(report.omega1 * report.omega2), report.phi1 * report.phi2)
        assert abs(poly) <= 1e-9 * scale

    def test_rate_constant_recomputes(self, published_report):
        report, _ = published_report
        assert report.k_v == min(
            report.theta_star, report.theta_star / report.lambda_max_p, report.eta / 2.0
        )

    def test_published_step_sizes_feasibility_is_reported(self, published_report):
        report, _ = published_report
        assert isinstance(report.feasible, bool)
        assert math.isfinite(report.beta_min)
        assert math.isfinite(report.theta_star)
        assert math.isfinite(report.sigma_max)

    def test_deterministic(self, published_report):
        report, s = published_report
        again = compute_report(s.game, s.graph, alpha=0.14, beta=1.5, eta=10.0)
        assert report == again


def test_feasible_region_exists_for_gentle_game():
    game = decoupled_quadratic(diag=(1.0, 1.0), offset=(-1.0, -2.0), box=(0.0, 5.0))
    report0 = compute_report(game, TWO_CYCLE, alpha=1e-3, beta=1.0, eta=10.0)
    beta = 2.0 * report0.beta_min
    amax = alpha_max(report0.mu, beta, report0.c1, report0.c2, report0.c3, report0.c4)
    report = compute_report(game, TWO_CYCLE, alpha=0.5 * amax, beta=beta, eta=10.0)
    assert report.feasible
    assert report.theta_star > 0
    assert report.k_v > 0


def test_infeasible_beta_yields_nan_alpha_max(spectrum_scenario):
    s = spectrum_scenario
    report = compute_report(s.game, s.graph, alpha=0.14, beta=1e-6, eta=10.0)
    assert math.isnan(report.alpha_max)
    assert not report.feasible


def test_report_for_published_step_sizes_prints_summary(spectrum_scenario):
    s = spectrum_scenario
    report = compute_report(s.game, s.graph, alpha=0.14, beta=1.5, eta=10.0)
    print(
        f"published step sizes: alpha=0.14 beta=1.5 -> feasible={report.feasible} "
        f"(beta_min={report.beta_min:.4g}, alpha_max={report.alpha_max}, "
        f"theta_star={report.theta_star:.4g})"
    )
    assert math.isfinite(report.beta_min)
