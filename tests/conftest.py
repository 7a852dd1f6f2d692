import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import strategies as st

from neseek import DirectedGraph, load_scenario
from neseek.data import bundled_path

# Published equilibrium of the bundled spectrum scenario, three decimals.
PUBLISHED_X_STAR = np.array([2.000, 3.987, 6.011, 8.018, 9.990])


def load_bundled(name):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return load_scenario(bundled_path(name))


@pytest.fixture(scope="session")
def spectrum_scenario():
    return load_bundled("spectrum_paper")


@pytest.fixture(scope="session")
def quadratic_scenario():
    return load_bundled("quadratic_demo")


@pytest.fixture
def published_x_star():
    return PUBLISHED_X_STAR.copy()


def with_engine(scenario, **overrides):
    """Copy of a scenario with engine-config fields replaced."""
    return dataclasses.replace(
        scenario, engine=dataclasses.replace(scenario.engine, **overrides)
    )


def dense_p(pair):
    """The dense n^2 x n^2 P of a block-stacked Lyapunov certificate:
    ``P[i*n + j, k*n + j] = pair.p[j][i, k]``, zero elsewhere."""
    n = len(pair.p)
    p = np.zeros((n * n, n * n))
    for j in range(n):
        p[j::n, j::n] = pair.p[j]
    return p


def random_strongly_connected(rng, n):
    """Random weighted digraph containing a spanning cycle, hence strongly connected."""
    w = np.zeros((n, n))
    order = rng.permutation(n)
    for a, b in zip(order, np.roll(order, -1)):
        w[a, b] = rng.uniform(0.5, 2.0)
    for _ in range(int(rng.integers(0, n * (n - 1)))):
        i, j = rng.integers(0, n, size=2)
        if i != j:
            w[i, j] = rng.uniform(0.5, 2.0)
    return DirectedGraph(w)


@st.composite
def strongly_connected_graphs(draw):
    """Weighted digraphs on 2..8 nodes with a spanning cycle plus extra links."""
    n = draw(st.integers(2, 8))
    weight = st.floats(0.5, 2.0)
    order = draw(st.permutations(range(n)))
    w = np.zeros((n, n))
    for a, b in zip(order, order[1:] + order[:1]):
        w[a, b] = draw(weight)
    links = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), weight)
    for i, j, v in draw(st.lists(links, max_size=n * (n - 1))):
        if i != j:
            w[i, j] = v
    return DirectedGraph(w)
