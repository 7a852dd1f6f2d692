import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neseek import (
    LawKind,
    TriggerParams,
    decide,
    triggering_function,
    triggers,
)
from neseek.data import bundled_path
from neseek.triggers import TIE_BAND, xi_from_uniform

from conftest import strongly_connected_graphs
from oracles import decay_at, threshold_term, tie_bounds, trigger_probability

# the trigger block of each bundled scenario, its scalars given to every player
TRIGGER_BLOCKS = [
    json.loads(bundled_path(name).read_text())["trigger"]
    for name in ("quadratic_demo", "spectrum_paper")
]


def params(n=2, kappa=1.075, a_floor=0.05, eta=10.0, c=1.0, sigma=0.2, delta0=1.0):
    return TriggerParams(
        kappa=kappa,
        a_floor=a_floor,
        eta=eta,
        c=np.full(n, c),
        sigma=np.full(n, sigma),
        delta0=np.full(n, delta0),
    )


def cases(e_x=(0.0,), e_y=(0.0,), cons=(0.0,), decay=(1.0,)):
    """Evaluation inputs as arrays; ``evaluation_inputs`` turns them into the
    arguments of ``decide_law``."""
    return {
        "action_err_sq": np.array(e_x, dtype=float),
        "estimate_err_sq": np.array(e_y, dtype=float),
        "disagreement_sq": np.array(cons, dtype=float),
        "decay": np.array(decay, dtype=float),
    }


def random_cases(rng, count):
    """``count`` random evaluations; each draws its action error, estimate
    error, disagreement, decay and a time (unused by every law), in order."""
    draws = np.array(
        [
            [
                rng.uniform(0, 4),
                rng.uniform(0, 4),
                rng.uniform(0, 20),
                10.0 ** rng.uniform(-8, 2),
                rng.uniform(0, 20),
            ]
            for _ in range(count)
        ]
    )
    return cases(*draws[:, :4].T)


def margin(c, sigma):
    return triggering_function(
        c["action_err_sq"] + c["estimate_err_sq"], c["disagreement_sq"], sigma
    )


def evaluation_inputs(c):
    """The per-evaluation inputs of ``decide_law`` for the cases ``c``."""
    return {
        "energy": c["action_err_sq"] + c["estimate_err_sq"],
        "disagreement_sq": c["disagreement_sq"],
        "decay": c["decay"],
    }


def decide_law(law, p, energy, disagreement_sq, decay, u):
    """``decide`` for evaluations that all follow ``law``, given the uniform
    draw ``u`` of each; deterministic laws record NaN thresholds. The
    disagreement weights, zero under the static law, and the threshold are
    chosen as ``triggers.law_inputs`` chooses them."""
    drawn = law is LawKind.STOCHASTIC
    xi = xi_from_uniform(p, u) if drawn else np.full(np.shape(u), math.nan)
    scale = decay / p.c
    threshold = scale * threshold_term(p, xi)
    if law is LawKind.CONTINUOUS:
        threshold = np.full_like(threshold, -math.inf)
    sigma = 0.0 * p.sigma if law is LawKind.STATIC else p.sigma
    return decide(
        triggering_function(energy, disagreement_sq, sigma), *tie_bounds(threshold, xi),
        xi, scale, math.log(p.kappa),
    )


def exact_thresholds(p, xi, scale):
    """The drawn thresholds with ``math.log`` per entry, the scalar oracle,
    in ``law_inputs``' order: ``(ln(kappa) - ln(xi)) * scale``."""
    ln_kappa = math.log(p.kappa)
    return np.array([(ln_kappa - math.log(v)) * s for v, s in zip(xi, scale)])


def assert_ties_follow(at, threshold, xi, scale, ln_kappa):
    """Against the batch ``threshold``, a stochastic margin at the exact
    threshold ``at`` stays quiet and one ulp above it fires, everywhere."""
    above = np.nextafter(at, math.inf)
    bounds = tie_bounds(threshold, xi)
    assert not decide(at, *bounds, xi, scale, ln_kappa).any()
    assert decide(above, *bounds, xi, scale, ln_kappa).all()


def test_params_validation():
    with pytest.raises(ValueError):
        params(kappa=1.0)
    with pytest.raises(ValueError):
        params(a_floor=0.0)
    with pytest.raises(ValueError):
        params(a_floor=1.0)
    with pytest.raises(ValueError):
        params(eta=0.0)
    with pytest.raises(ValueError):
        params(sigma=0.0)
    with pytest.raises(ValueError):
        params(delta0=-1.0)


def test_triggering_function():
    c = cases(e_x=[0.0, 1.0], e_y=[0.0, 2.0], cons=[4.0, 0.0])
    assert margin(c, np.array([0.2, 0.3])) == pytest.approx([-0.8, 3.0])


def test_decay_closed_form():
    p = params(delta0=1.0, eta=10.0)
    assert decay_at(p, 0, 0.0) == 1.0
    assert decay_at(p, 0, 0.1) == pytest.approx(math.exp(-1.0), rel=1e-12)
    p2 = params(delta0=2.0, eta=10.0)
    assert decay_at(p2, 1, 0.2) == pytest.approx(2.0 * math.exp(-2.0), rel=1e-12)


class TestTriggerProbability:
    def test_zero_for_nonpositive_margin(self):
        p = params()
        for rho in (0.0, -0.5, -100.0):
            for delta in (1e-6, 1.0, 50.0):
                assert trigger_probability(p, 0, rho, delta) == 0.0

    def test_uniform_tail_value(self):
        p = params(kappa=1.075, c=1.0, a_floor=0.05)
        rho = math.log(2.0 * 1.075)  # makes the comparison level exactly one half
        assert trigger_probability(p, 0, rho, 1.0) == pytest.approx(0.5 / 0.95, rel=1e-12)

    def test_saturates_at_one(self):
        p = params()
        assert trigger_probability(p, 0, 1e9, 1.0) == 1.0

    def test_bounds_and_monotonicity_in_margin(self):
        p = params()
        grid = np.linspace(-5, 10, 301)
        vals = [trigger_probability(p, 0, float(r), 0.7) for r in grid]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_nonincreasing_in_decay_for_positive_margin(self):
        p = params()
        deltas = np.linspace(1e-3, 20, 200)
        vals = [trigger_probability(p, 0, 2.5, float(d)) for d in deltas]
        assert all(b <= a for a, b in zip(vals, vals[1:]))

    def test_fully_decayed_scale_degenerates_to_sign_test(self):
        p = params()
        assert trigger_probability(p, 0, 1e-300, 0.0) == 1.0
        assert trigger_probability(p, 0, -1e-300, 0.0) == 0.0


class TestDecide:
    def test_continuous_always_fires(self):
        p = params(n=50)
        c = random_cases(np.random.default_rng(0), 50)
        assert decide_law(LawKind.CONTINUOUS, p, **evaluation_inputs(c), u=np.full(50, 0.5)).all()

    def test_stochastic_never_fires_on_nonpositive_margin(self):
        u = np.linspace(0.0, 1.0, 101)[:-1]
        p = params(n=len(u), sigma=0.5)
        quiet = cases(e_x=[0.1] * len(u), e_y=[0.3] * len(u), cons=[10.0] * len(u),
                      decay=[1e-7] * len(u))  # margin negative
        assert (margin(quiet, 0.5) < 0).all()
        assert not decide_law(LawKind.STOCHASTIC, p, **evaluation_inputs(quiet), u=u).any()

    def test_stochastic_matches_uniform_probability(self):
        # 200 random cases, each against 20 uniform draws, in one call
        rng = np.random.default_rng(1)
        c = {k: np.repeat(v, 20) for k, v in random_cases(rng, 200).items()}
        p = params(n=len(c["decay"]))
        rho = margin(c, 0.2)
        prob = np.array(
            [trigger_probability(p, 0, float(r), float(d)) for r, d in zip(rho, c["decay"])]
        )
        u = rng.random(len(prob))
        assert np.array_equal(decide_law(LawKind.STOCHASTIC, p, **evaluation_inputs(c), u=u), u < prob)

    def test_stochastic_stays_quiet_exactly_at_the_threshold(self):
        # margin set to the threshold computed with math.log, the scalar
        # oracle: rho <= threshold holds with equality, so no entry may fire
        count = 100_000
        p = params(n=count)
        u = np.random.default_rng(5).random(count)
        ln_kappa = math.log(p.kappa)
        at = [ln_kappa - math.log(xi_from_uniform(p, float(v))) for v in u]
        c = cases(e_x=at, e_y=np.zeros(count), cons=np.zeros(count), decay=np.ones(count))
        assert not decide_law(LawKind.STOCHASTIC, p, **evaluation_inputs(c), u=u).any()

    def test_stochastic_follows_math_log_when_the_batch_log_is_one_ulp_off(self):
        # thresholds formed from logs one ulp off math.log, either way, as
        # np.log can give on some CPUs: a margin at the math.log threshold
        # stays quiet and one ulp above it fires, on any CPU
        count = 20_000
        p = params(n=count)
        rng = np.random.default_rng(6)
        xi = xi_from_uniform(p, rng.random(count))
        scale = 10.0 ** rng.uniform(-8, 2, count) / p.c
        ln_kappa = math.log(p.kappa)
        logs = np.array([math.log(v) for v in xi])
        at = exact_thresholds(p, xi, scale)
        for direction in (-math.inf, math.inf):
            off = (ln_kappa - np.nextafter(logs, direction)) * scale
            assert (off != at).sum() > count // 4
            assert_ties_follow(at, off, xi, scale, ln_kappa)

    def test_tie_band_covers_subnormal_thresholds(self):
        # eta * k * dt = 715 takes the decay to about 3e-311, so every
        # threshold is subnormal and most are below 4.3e-311, where the
        # relative band 2**-44 * threshold rounds to zero: only the
        # absolute floor makes a batch threshold one ulp off a tie
        count = 20_000
        p = params(n=count, eta=10.0)
        xi = xi_from_uniform(p, np.random.default_rng(7).random(count))
        scale = p.delta0 * np.exp(-p.eta * (2860 * 0.025)) / p.c
        at = exact_thresholds(p, xi, scale)
        assert ((0 < at) & (at < np.finfo(float).tiny)).all()
        assert (at * TIE_BAND == 0).sum() > count // 2
        for direction in (-math.inf, math.inf):
            off = np.nextafter(at, direction)
            assert_ties_follow(at, off, xi, scale, math.log(p.kappa))

    def test_deterministic_ties_are_not_formed_again(self, monkeypatch):
        # a NaN xi gives a zero tie band, so a deterministic margin is
        # compared with its threshold as given, and no log is taken: at
        # the threshold it stays quiet, one ulp above it fires, a threshold
        # whose decay underflowed to +0.0 is a sign test, and the
        # continuous law's -inf threshold fires
        p = params(n=6)
        xi = np.full(6, math.nan)
        scale = np.array([0.37, 0.37, math.exp(-800.0), math.exp(-800.0), 0.37, 0.37]) / p.c
        threshold = scale * threshold_term(p, xi)
        threshold[4:] = -math.inf
        t = threshold[0]
        rho = np.array([t, np.nextafter(t, math.inf), 0.0, 5e-324, -1e300, 0.0])
        assert threshold[2] == 0.0 and not np.signbit(threshold[2])
        lower, upper = tie_bounds(threshold, xi)
        assert lower.tobytes() == upper.tobytes() == threshold.tobytes()

        def no_log(v):
            raise AssertionError("decide formed a deterministic threshold again")

        monkeypatch.setattr(triggers.math, "log", no_log)
        fired = decide(rho, lower, upper, xi, scale, 0.0)
        assert fired.tolist() == [False, True, False, True, True, True]

    def test_dynamic_equals_pinned_threshold_stochastic(self):
        # oracle in the multiplicative form: fire iff a_floor > kappa*exp(-c*rho/decay)
        count = 10_000
        p = params(n=count)
        c = random_cases(np.random.default_rng(2), count)
        got = decide_law(LawKind.DYNAMIC, p, **evaluation_inputs(c), u=np.full(count, 0.123))
        pinned = []
        for rho, decay in zip(margin(c, p.sigma), c["decay"]):
            z = float(p.c[0]) * float(rho) / float(decay)
            if z > 700.0:
                pinned.append(True)
            elif z < -700.0:
                pinned.append(False)
            else:
                pinned.append(p.a_floor > p.kappa * math.exp(-z))
        assert int((got == np.array(pinned)).sum()) == count

    def test_static_threshold_comparison(self):
        p = params(n=3)
        scale = math.log(p.kappa) - math.log(p.a_floor)
        # below, above, and above without any disagreement term: the
        # disagreement plays no role in the static comparison law
        c = cases(e_x=[0.5 * scale, 1.5 * scale, 1.5 * scale], e_y=[0.0] * 3,
                  cons=[100.0, 100.0, 0.0], decay=[1.0] * 3)
        fired = decide_law(LawKind.STATIC, p, **evaluation_inputs(c), u=np.full(3, 0.5))
        assert fired.tolist() == [False, True, True]

    def test_decide_is_pure(self):
        rng = np.random.default_rng(3)
        p = params(n=50)
        c = random_cases(rng, 50)
        u = rng.random(50)
        args = evaluation_inputs(c)
        for law in LawKind:
            assert np.array_equal(decide_law(law, p, **args, u=u), decide_law(law, p, **args, u=u))

    def test_seed_axis_matches_row_by_row(self):
        # (R, n) energies, disagreements and draws against one (n,) decay,
        # as in a seed-batched step
        rng = np.random.default_rng(5)
        p = params(n=20)
        rows = [evaluation_inputs(random_cases(rng, 20)) for _ in range(4)]
        decay = rows[0]["decay"]
        energy = np.stack([r["energy"] for r in rows])
        cons = np.stack([r["disagreement_sq"] for r in rows])
        u = rng.random((4, 20))
        for law in LawKind:
            batch = decide_law(law, p, energy, cons, decay, u)
            assert batch.shape == (4, 20)
            for k in range(4):
                assert np.array_equal(batch[k], decide_law(law, p, energy[k], cons[k], decay, u[k]))


def test_xi_mapping_support():
    p = params(a_floor=0.05)
    assert xi_from_uniform(p, 0.0) == 1.0
    assert xi_from_uniform(p, 0.999999) > 0.05
    for u in np.linspace(0, 1, 50)[:-1]:
        assert 0.05 < xi_from_uniform(p, float(u)) <= 1.0


@st.composite
def member_lists(draw):
    """Trigger parameters of a bundled block on a random digraph of 2-8
    players, with its ``0.8/din`` disagreement weights; 1-6 random laws with
    their seeds; and 1-50 steps."""
    graph, block = draw(strongly_connected_graphs()), draw(st.sampled_from(TRIGGER_BLOCKS))
    n = graph.n
    p = TriggerParams(
        kappa=block["kappa"], a_floor=block["a_floor"], eta=block["eta"],
        c=np.full(n, block["c"]), sigma=0.8 / graph.in_degrees, delta0=np.full(n, block["delta0"]),
    )
    members = draw(st.lists(
        st.tuples(st.sampled_from(list(LawKind)), st.integers(0, 2 ** 64 - 1)),
        min_size=1, max_size=6,
    ))
    return p, graph, members, draw(st.integers(1, 50))


@settings(max_examples=100, deadline=None)
@given(member_lists())
def test_law_inputs_of_a_member_are_its_own(case):
    # a member's weights, draws and thresholds do not depend on its
    # batch-mates; the graph is read only for a dynamic member
    p, graph, members, steps = case
    laws, seeds = [law for law, _ in members], [seed for _, seed in members]
    sigma, xi, lower, upper, scale = triggers.law_inputs(p, laws, seeds, steps, 0.025, graph)
    assert sigma.shape == (len(members), p.n)
    assert xi.shape == lower.shape == upper.shape == (steps, len(members), p.n)
    for r, (law, seed) in enumerate(members):
        alone = triggers.law_inputs(
            p, [law], [seed], steps, 0.025, graph if law is LawKind.DYNAMIC else None
        )
        got = (sigma[r], xi[:, r], lower[:, r], upper[:, r], scale)
        want = (alone[0][0], alone[1][:, 0], alone[2][:, 0], alone[3][:, 0], alone[4])
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes(), law
        if law is LawKind.STOCHASTIC:
            assert not np.isnan(xi[:, r]).any()
        else:
            assert np.isnan(xi[:, r]).all()
            assert lower[:, r].tobytes() == upper[:, r].tobytes()
        if law is LawKind.CONTINUOUS:
            assert (upper[:, r] == -math.inf).all()

