"""Golden digest of a run on the sparse coupling path.

The bundled scenarios take the dense path, so `test_golden` never reaches
the CSR product. This run does: a 128-player directed ring plus one seeded
chord into every player, a seeded quadratic game whose gradients keep the
actions inside their box (so the actions follow the estimates), and 20 steps
of a stochastic and a static member in one batch. The SHA-256 of each
member's columns is pinned, so a change to the sparse path meant to preserve
behaviour must leave every bit unchanged. The digests were recorded before
the sparse step became event-driven.

Float bytes depend on the platform's libm and BLAS. The table was recorded
on x86-64 Linux, Python 3.11, numpy 2.4 with OpenBLAS.
"""

import hashlib

import numpy as np

from neseek import (
    ActionInterval,
    DirectedGraph,
    EngineConfig,
    LawKind,
    Member,
    QuadraticGame,
    Scenario,
    TriggerParams,
    engine,
    run,
)

N = 128
COLUMNS = ("actions", "err_inf", "trig", "rho", "xi")

GOLDEN = {
    "stochastic": {
        "actions":
            "9c2c84ef03d9d8a13e0b4aeb59372b4d3bcfad7f70892c2d6367d256f8295820",
        "err_inf":
            "f08f34e4f85e448037e282208be947bc22e629a40e97b9cd684cfc3e4aa60009",
        "trig":
            "5cd49dfc4b10b2b20a249b884f9aed806db82f4f49d815dd7ce002a7c2e82c91",
        "rho":
            "737a2f568c290ed6cdec72caf4053453613bc5478d905ca1acb4f3e65bcc2875",
        "xi":
            "ced22edf85e994a33e785798905108a9ee159666a6576b0546008f69b11cb089",
    },
    "static": {
        "actions":
            "71eda19aff4dd6adabbb19d0a5514ab5d108aaf9e812c9e136efab4a4bf2bb68",
        "err_inf":
            "f96d4bd358201045257d2aa349d0bdf7f4e2f066ce711a89bb6e8fb648c9cab1",
        "trig":
            "00013109780f075753aa61fa0cb79259dffc68ab6626f2b883af423d13b314bc",
        "rho":
            "7c11d2d169cc3394a8da768493600a2ab959c2f2840b7edf2cd24e0ffdd11974",
        "xi":
            "c8aeed44f9feac1f117ef8b766722609e33259444845f4711cedd79037f40340",
    },
}


def ring_with_chords(rng, n):
    """Player i hears i - 1 with weight 1 and one other player, neither
    itself nor i - 1, with a weight drawn from [0.5, 2)."""
    w = np.zeros((n, n))
    for i in range(n):
        w[i, i - 1] = 1.0
        w[i, (i + 1 + rng.integers(n - 2)) % n] = rng.uniform(0.5, 2.0)
    return DirectedGraph(w)


def sparse_scenario():
    rng = np.random.default_rng(128)
    graph = ring_with_chords(rng, N)
    cross = rng.uniform(-0.05, 0.05, (N, N))
    np.fill_diagonal(cross, 0.0)
    game = QuadraticGame(
        diag_a=rng.uniform(1.0, 3.0, N), cross=cross, offset=rng.uniform(-2.0, 2.0, N),
        intervals=(ActionInterval(-3.0, 3.0),) * N,
    )
    trigger = TriggerParams(
        kappa=1.075, a_floor=0.05, eta=10.0, c=np.ones(N),
        sigma=0.8 / graph.in_degrees, delta0=np.full(N, 100.0),
    )
    return Scenario(
        graph, game, trigger, EngineConfig(alpha=0.14, beta=1.5, dt=0.025, horizon=0.5),
        x0=rng.uniform(-3.0, 3.0, N), y0=rng.uniform(-3.0, 3.0, (N, N)),
        law=LawKind.STOCHASTIC, ne_override=np.zeros(N),
    )


def digests(result):
    return {
        column: hashlib.sha256(np.ascontiguousarray(getattr(result, column)).tobytes()).hexdigest()
        for column in COLUMNS
    }


def test_sparse_run_byte_identical():
    s = sparse_scenario()
    assert engine.sparse_coupling(s.graph)
    members = [Member(LawKind.STOCHASTIC, 5), Member(LawKind.STATIC, 5)]
    results = run(s, members)
    assert {m.law.value: digests(r) for m, r in zip(members, results)} == GOLDEN
