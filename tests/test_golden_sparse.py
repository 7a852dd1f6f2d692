"""Golden digest of a run on the sparse coupling path.

The bundled scenarios take the dense path, so `test_golden` never reaches
the CSR product. This run does: a 128-player directed ring plus one seeded
chord into every player, a seeded quadratic game whose gradients keep the
actions inside their box (so the actions follow the estimates), and 20 steps
of one member per law in one batch. The SHA-256 of each member's columns is
pinned, so a change to the sparse path meant to preserve behaviour must leave
every bit unchanged. The stochastic and static digests were recorded before
the sparse step became event-driven, the continuous and dynamic ones before
the state dropped its separate copy of the broadcast actions. The actions and
rho digests were recorded again when the sparse path began to keep estimate
rows in closed form, anchor + age * increment: they moved by at most 1.5e-16
(actions) and 5e-16 (rho) of their largest entry, while trig, xi and err_inf
kept their bits.

A second table, ``SPECTRUM_GOLDEN``, pins the game every generated
large-n scenario plays: a 128-player ring-plus-chord spectrum game with
linear pricing (``tau == 1``), whose gradient reads each estimate row's
total, again one member per law over 20 steps in one batch.

The static rho digest of both tables was recorded again when the static law
became zero disagreement weights, so that its rho is the margin it compares,
the raw event energy, with the bits of the energy it compared before; every
other column of every law kept its bits. The stochastic digests of both
tables were recorded again when each stochastic member came to draw from
one generator of its own, ``default_rng(seed)``, instead of one per player;
the deterministic laws' digests kept their bits.

A third table, ``HUB_GOLDEN``, pins a graph with one wide row: the spectrum
scenario's graph with player 1 also hearing every other player at weight
0.01, which is still sparse. It was recorded while the rows a firing step
forms came from a padded neighbour table as wide as that row.

Every table is checked twice: all laws in one batch, and each law alone.
In the batch the continuous member touches every row, so every step forms
the coupling whole; alone, the other laws' firing steps form only the rows
their events touch.

Float bytes depend on the platform's libm and BLAS. The table was recorded
on x86-64 Linux, Python 3.11, numpy 2.4 with OpenBLAS.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from neseek import (
    DirectedGraph,
    EngineConfig,
    LawKind,
    Member,
    QuadraticGame,
    Scenario,
    SpectrumGame,
    TriggerParams,
    engine,
    run,
)

N = 128
COLUMNS = ("actions", "err_inf", "trig", "rho", "xi")

GOLDEN = {
    "stochastic": {
        "actions":
            "80c74531a008267f84fbcfcd66907860fcc033ba1ff005357e4ac865fc94633b",
        "err_inf":
            "f08f34e4f85e448037e282208be947bc22e629a40e97b9cd684cfc3e4aa60009",
        "trig":
            "52b6c21863363f78defeb3cb40aa38cec4867c44fe7458b17c0f6a348c82b590",
        "rho":
            "c3e4e61ba6b729afd17314b775ed87899b9da9c70d743f7e3c9b6d1ebfbf064e",
        "xi":
            "6340d9be41d406cd2516e90139e5047b076fd76665d5efc91ff34db8d4dad66c",
    },
    "static": {
        "actions":
            "e3289f3f6ce03b05546e75b634ef65daf8e445158741aff0906fc7bbb8ec6cba",
        "err_inf":
            "f96d4bd358201045257d2aa349d0bdf7f4e2f066ce711a89bb6e8fb648c9cab1",
        "trig":
            "00013109780f075753aa61fa0cb79259dffc68ab6626f2b883af423d13b314bc",
        "rho":
            "acd257ee10aaabb775ef12ace196d3b586172ff94f7649ec88722a62d7977062",
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
            "9fda21be5e8d8c25d9b1b16ebc94a8dcae11b05f8bca871788b6f4b58f5b2601",
        "xi":
            "c8aeed44f9feac1f117ef8b766722609e33259444845f4711cedd79037f40340",
    },
    "dynamic": {
        "actions":
            "655f2e74fa2a9217edd3b589bf628854d832095ca8c40ed37caaa7d1ff3966df",
        "err_inf":
            "084d4a76592ac5809e5ea3b7237335a07d8c6672c26496077f98b7c8f3930ca9",
        "trig":
            "dabb5f344751cf4b9988317189c985faf2183bf99f9d2f7bd052a2f9716188c7",
        "rho":
            "3c1d67b5eb24cf83f85250a04b442b74af7fb17196f8d502272cd12965b6fb0e",
        "xi":
            "c8aeed44f9feac1f117ef8b766722609e33259444845f4711cedd79037f40340",
    },
}


SPECTRUM_GOLDEN = {
    "continuous": {
        "actions":
            "c12799fd207c7fbe193e2ab76eec1f4b2ad245780437e7cba458368467d399d4",
        "err_inf":
            "5e83b0aeaee4ad8d7d245b52b97ba95eb8e71124f409a0b59dd1d9fce7065744",
        "trig":
            "bbfaa90a80e53128cd3198c01e55d3e9bfb61c8c0c341062e0e86c4f13381b93",
        "rho":
            "07a694c71e28d1d2a26f9ffd4760ec91a23a001e92e9c84cc67599cdca19c5c8",
        "xi":
            "c8aeed44f9feac1f117ef8b766722609e33259444845f4711cedd79037f40340",
    },
    "static": {
        "actions":
            "5157b978ba156a93a14e04eeedc6a3c03bf8e90f99900eeb106d04fee347850c",
        "err_inf":
            "26837cca2a49e8dc91115e84e6af1ea57773ce90a8b9a362ea55295b272ddda5",
        "trig":
            "1c3dd8d2de4ce20ec02ac5ab669046b7b5452757c9a1eb26f2e8ba5d1d517f92",
        "rho":
            "26a4eb79e4d6b4cd641480825950e4d63533596940c0dded2b6b91e44eb2bdfe",
        "xi":
            "c8aeed44f9feac1f117ef8b766722609e33259444845f4711cedd79037f40340",
    },
    "dynamic": {
        "actions":
            "90779ac6483b81c89738b6ccceeeb7456a360155861dc06486845a6afc0199fb",
        "err_inf":
            "a121adae1dfbf15a2e1cd5c5d2a4f6c38e711165176534053cfee70f9c9a8e97",
        "trig":
            "c4fee3e930113a360897e83cdc8f29cad8a13780c8853a6434ec37fec05513b9",
        "rho":
            "eaaa8f1a1c3d9262e7870cade9bb0a843592ff37270795d89de473a7ac349e7d",
        "xi":
            "c8aeed44f9feac1f117ef8b766722609e33259444845f4711cedd79037f40340",
    },
    "stochastic": {
        "actions":
            "ba53e24335de4fcde15306e13fa619f661980552bfc6d3fe30c5b5940c38ebfe",
        "err_inf":
            "427497b07e642da0d20c18f30c3fd11b5b85d829698d67a3d86dfa9f82ee8800",
        "trig":
            "3f9f3b83f83e9927d0434af2e219a8f4b00b9648d124c06a803e9e0a61dc899a",
        "rho":
            "d8d93caafc38aa1e3c059bc00252884cc9609737a1f4c5898aa7ee509c57ec06",
        "xi":
            "63af9c7ae972a119f156a0ded29a879fe725bdb4ee592b7d3265aa86f6ff13a6",
    },
}


HUB_GOLDEN = {
    "continuous": {
        "actions":
            "38efff83707a03929b1f7b7ba829c13ea43b7b59515254d0720feb0a235705d0",
        "err_inf":
            "9ed57c6943bc1fd1985a87ee4f4ded37dbbccc60ff58256adb13c8ed369adec6",
        "trig":
            "bbfaa90a80e53128cd3198c01e55d3e9bfb61c8c0c341062e0e86c4f13381b93",
        "rho":
            "18bbc62f2e1a5fac102b7202765467b53f15b232f43c2727a8cd28e2ece1e35b",
        "xi":
            "c8aeed44f9feac1f117ef8b766722609e33259444845f4711cedd79037f40340",
    },
    "static": {
        "actions":
            "a9e214617021002c2bc76af55a503a6a441b683d2d5f952216994849c0224037",
        "err_inf":
            "26837cca2a49e8dc91115e84e6af1ea57773ce90a8b9a362ea55295b272ddda5",
        "trig":
            "1c3dd8d2de4ce20ec02ac5ab669046b7b5452757c9a1eb26f2e8ba5d1d517f92",
        "rho":
            "2c6d52478f097916963dcbdc5e8bde6c27c169fed7d302ae959d2d945a91f5a3",
        "xi":
            "c8aeed44f9feac1f117ef8b766722609e33259444845f4711cedd79037f40340",
    },
    "dynamic": {
        "actions":
            "f0f8f5d12890f534d95ac58e3fa26472d3e816fbae924a6cfc90100951841b73",
        "err_inf":
            "a121adae1dfbf15a2e1cd5c5d2a4f6c38e711165176534053cfee70f9c9a8e97",
        "trig":
            "03af746569df0708951e5831a1854288f9ac1b08b243ff4bfec2d69740b3dd56",
        "rho":
            "7ff59cb4c40dff98fdba9cb66e6075c2c07d689ed6fd9aeb48f74c45e2c87c22",
        "xi":
            "c8aeed44f9feac1f117ef8b766722609e33259444845f4711cedd79037f40340",
    },
    "stochastic": {
        "actions":
            "8415fab137c6452d8169bc72620ecf32402169029c1488a916b2a26cef7ea679",
        "err_inf":
            "427497b07e642da0d20c18f30c3fd11b5b85d829698d67a3d86dfa9f82ee8800",
        "trig":
            "3f9f3b83f83e9927d0434af2e219a8f4b00b9648d124c06a803e9e0a61dc899a",
        "rho":
            "bb2a4e647a7cbfd3978d57f5fa556962ff3aef980f68fbe7eec8b9a3926c5040",
        "xi":
            "63af9c7ae972a119f156a0ded29a879fe725bdb4ee592b7d3265aa86f6ff13a6",
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
        intervals=[[-3.0, 3.0]] * N,
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


def spectrum_scenario():
    """The sparse path under the spectrum game, with the bundled
    ``spectrum_paper`` scenario's trigger and step sizes and parameters drawn
    around its ranges."""
    rng = np.random.default_rng(256)
    graph = ring_with_chords(rng, N)
    game = SpectrumGame(
        m_c=rng.uniform(5.7, 15.0, N), q=rng.uniform(1.1, 1.5, N), r=np.full(N, 20.0),
        s_db=rng.uniform(12.0, 18.0, N), ber_target=np.full(N, 1e-4),
        intervals=[[0.0, 16.0]] * N, tau=1.0,
    )
    trigger = TriggerParams(
        kappa=1.075, a_floor=0.05, eta=10.0, c=np.ones(N),
        sigma=0.8 / graph.in_degrees, delta0=np.full(N, 100.0),
    )
    return Scenario(
        graph, game, trigger, EngineConfig(alpha=0.14, beta=1.5, dt=0.025, horizon=0.5),
        x0=rng.uniform(0.0, 0.25, N), y0=rng.uniform(0.0, 0.25, (N, N)),
        law=LawKind.STOCHASTIC, ne_override=np.zeros(N),
    )


def with_hub(graph, player):
    """The graph with ``player`` also hearing every player it did not hear,
    at weight 0.01: a row as wide as n - 1 in a graph that stays sparse."""
    w = graph.weights.copy()
    deaf = w[player] == 0.0
    deaf[player] = False
    w[player, deaf] = 0.01
    return DirectedGraph(w)


def hub_scenario():
    s = spectrum_scenario()
    return dataclasses.replace(s, graph=with_hub(s.graph, 1))


def digests(result):
    return {
        column: hashlib.sha256(np.ascontiguousarray(getattr(result, column)).tobytes()).hexdigest()
        for column in COLUMNS
    }


def law_digests(s, seed, batched, monkeypatch):
    """Each law's digests under ``seed``: all members in one batch, or each
    member run alone. Only the lone runs form rows on their own."""
    terms, asked = engine.broadcast_terms, []

    def spy(graph, y_hat, config, rows=None, out=None):
        asked.append(rows is not None)
        return terms(graph, y_hat, config, rows, out)

    monkeypatch.setattr(engine, "broadcast_terms", spy)
    members = [Member(law, seed) for law in LawKind]
    assert engine.sparse_coupling(s.graph)
    results = run(s, members) if batched else [run(s, [m])[0] for m in members]
    assert any(asked) is not batched
    return {m.law.value: digests(r) for m, r in zip(members, results)}


BATCHED = pytest.mark.parametrize("batched", [True, False], ids=["batched", "alone"])


@BATCHED
def test_sparse_run_byte_identical(batched, monkeypatch):
    assert law_digests(sparse_scenario(), 5, batched, monkeypatch) == GOLDEN


@BATCHED
def test_sparse_spectrum_run_byte_identical(batched, monkeypatch):
    s = spectrum_scenario()
    assert s.game.tau == 1
    assert law_digests(s, 11, batched, monkeypatch) == SPECTRUM_GOLDEN


@BATCHED
def test_hub_run_byte_identical(batched, monkeypatch):
    s = hub_scenario()
    assert np.count_nonzero(s.graph.weights[1]) == N - 1
    assert law_digests(s, 11, batched, monkeypatch) == HUB_GOLDEN
