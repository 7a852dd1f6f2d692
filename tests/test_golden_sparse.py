"""Golden digest of a run on the sparse coupling path.

The bundled scenarios take the dense path, so `test_golden` never reaches
the CSR product. This run does: a 128-player directed ring plus one seeded
chord into every player, a seeded quadratic game whose gradients keep the
actions inside their box (so the actions follow the estimates), and 20 steps
of one member per law in one batch. The SHA-256 of each member's columns is
pinned, so a change to the sparse path meant to preserve behaviour must leave
every bit unchanged. The stochastic and static digests were recorded before
the sparse step became event-driven, the continuous and dynamic ones before
the state dropped its separate copy of the broadcast actions.

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
    "continuous": {
        "actions":
            "5dff043222d0b76c5959c2472fcdcceb9d314cd16efe20fe613d6813864dfca6",
        "err_inf":
            "c399b84c9ed1a64bd81e840bebab327361c3a2e3f6891b74e5956c47148622e9",
        "trig":
            "bbfaa90a80e53128cd3198c01e55d3e9bfb61c8c0c341062e0e86c4f13381b93",
        "rho":
            "20a0212569c4e687bcb0b0b8e8c148892d851d3d54a4a2125759a8ea3880ec19",
        "xi":
            "c8aeed44f9feac1f117ef8b766722609e33259444845f4711cedd79037f40340",
    },
    "dynamic": {
        "actions":
            "e98f050f94247e9d0609a9ac40436df040446fcb1008e620ffd98f1a406c1f11",
        "err_inf":
            "084d4a76592ac5809e5ea3b7237335a07d8c6672c26496077f98b7c8f3930ca9",
        "trig":
            "dabb5f344751cf4b9988317189c985faf2183bf99f9d2f7bd052a2f9716188c7",
        "rho":
            "0db7ef4e1dd9dec42acac7175fbb874b59e1475236f268895ad3b476bf8851e9",
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
    members = [Member(law, 5) for law in LawKind]
    results = run(s, members)
    assert {m.law.value: digests(r) for m, r in zip(members, results)} == GOLDEN
