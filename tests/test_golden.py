"""Golden artifact hashes for `simulate` and `compare` on both bundled
scenarios and for runs whose artifacts hold missing values, and golden
`bounds` outputs.

Each bundled scenario is copied with a 5 s horizon. `simulate` runs at seeds
0 and 123, and `compare --laws continuous,static,dynamic,stochastic --runs 2`
runs at the scenario's own seed; `simulate` also runs at seed 0 under each
deterministic law. The SHA-256 of every artifact is pinned, so
a refactor meant to preserve behaviour must leave every byte unchanged. A
change that alters artifacts on purpose updates the table below and says so
in CHANGES.md.

Float bytes depend on the platform's libm and BLAS. The table was recorded
on x86-64 Linux, Python 3.11, numpy 2.4 with OpenBLAS.
"""

import hashlib
import json

import numpy as np
import pytest

from neseek import cli
from neseek.data import bundled_path

HORIZON = 5.0
SIMULATE_SEEDS = (0, 123)
COMPARE_ARGS = ["--laws", "continuous,static,dynamic,stochastic", "--runs", "2"]

GOLDEN = {
    "quadratic_demo": {
        "compare/compare.json":
            "9c3f71d76fd7a5d46daf47174c4acd605ae0e1097307660788414f45ce594ab9",
        "compare/error_compare.svg":
            "ebcf6345fa06d1ba4d980b1a7f52d44d758072324a70cae36626e51c7350a459",
        "compare/gamma_compare.svg":
            "70a932cde22e1b21d1176e701be6048196981d6fa6bced02e7b19aa1fab34b5e",
        "compare/summary.csv":
            "d23753c2597fedbbe8d755cf9c0e3e8b0b13f56a7155d8ee6b6c4e780c9e1190",
        "simulate-seed0/actions.svg":
            "20187a12aeff931cfa7d9f0cc634b6634ffe902b9c06d8a246b3b422f70ac5a7",
        "simulate-seed0/error.svg":
            "05252234160164d3193db183e25c0273299553a57e58c11da18be83f334364d2",
        "simulate-seed0/events.csv":
            "4d304006a4a8117eec247aa274d413edefe01b594e4ee1d38fc9388dddd10ea4",
        "simulate-seed0/gamma.svg":
            "50a378b5e0cde26585328b82128b0329cd8da0bbc89b50f566495bcd170788f9",
        "simulate-seed0/metrics.json":
            "c132b1dd282059f7afbbb583850add2cc2f18a896d3a3afc993b987597334b08",
        "simulate-seed0/trajectory.csv":
            "bb38d006589e11ece16bb5d14961e986aee889674f70768bbde4a37f61717db1",
        "simulate-seed123/actions.svg":
            "20187a12aeff931cfa7d9f0cc634b6634ffe902b9c06d8a246b3b422f70ac5a7",
        "simulate-seed123/error.svg":
            "05252234160164d3193db183e25c0273299553a57e58c11da18be83f334364d2",
        "simulate-seed123/events.csv":
            "418c2d1d2bd1ead367671998531999774e762a8a5fb3d0debcd51bbf85a03bc6",
        "simulate-seed123/gamma.svg":
            "50a378b5e0cde26585328b82128b0329cd8da0bbc89b50f566495bcd170788f9",
        "simulate-seed123/metrics.json":
            "2e3cfe419a23babc9d04b7da024a90712c6b03ab122989158a33335c00408fd1",
        "simulate-seed123/trajectory.csv":
            "bb38d006589e11ece16bb5d14961e986aee889674f70768bbde4a37f61717db1",
    },
    "spectrum_paper": {
        "compare/compare.json":
            "cc87b9993d9741c06973ac16c9a41969d003452872661f2ea805f67ec3fc9a9d",
        "compare/error_compare.svg":
            "8d3c825cb9c74b008dda7a4a08c225fb9d7495b4f3e8048097bc2d0509da1a0c",
        "compare/gamma_compare.svg":
            "2fe01d4410e74db29d587a3fd30a0332777ee00a9dbfafb38dcb760718fd9a81",
        "compare/summary.csv":
            "9a25f486f380d8b2e9fdc6e1d40ab2ce0701f810227dc5413eed9794db23b9a5",
        "simulate-seed0/actions.svg":
            "c6f3f18f7b43f3ef72e8dd8d73d930cbc0af0c3614a51d4e4c2eaf3c93f9fc45",
        "simulate-seed0/error.svg":
            "b8ba95b9f23d8fffaf19adbbcd8079cba60983170dbe3ec4ae1cc474db50eb25",
        "simulate-seed0/events.csv":
            "f1b5a391f2ba1befd924682e5ae6f87fca2a82c07c2bc7cf57a81ae28f7d1762",
        "simulate-seed0/gamma.svg":
            "b64f35e5e23cb35f3520008f53806aa4a9fe9948f406405b0f8c9966a54ee03d",
        "simulate-seed0/metrics.json":
            "b57f0471fdea23d71cc34a9fd5c84de9934a1628cae5f0c1c1dc77ad3fcd02a4",
        "simulate-seed0/trajectory.csv":
            "139dcb2ff8f3a51ff7707d9d633d40249acd10442c56215de5afe2b210e9ef81",
        "simulate-seed123/actions.svg":
            "ef155c988145f2e62c2d678fb25ef4e83778a1ec22b12f6a71420d996c682f6d",
        "simulate-seed123/error.svg":
            "88d891331f482f163bb749247a9c117ef3f03144e9558aa7c70c74aac6e50723",
        "simulate-seed123/events.csv":
            "1ce7ff02e47eacd43a2fafedd42e8d376768cf0f6f884c3ec5b9291c3b15792d",
        "simulate-seed123/gamma.svg":
            "0d89c812fa15af3452a287fe3e2b3e86bb367e37ac4cdda3f23308c1e2f1daa3",
        "simulate-seed123/metrics.json":
            "b8c56cc0d997620bd609d4de36effa33b20c239281316a3d18871a58c29dead1",
        "simulate-seed123/trajectory.csv":
            "351364618531874d6f1d4c8736c8c09b27385a58992e4be0adbbc31f27ad4526",
    },
}


def bundled_copy(name, path, horizon, law=None):
    """Write bundled scenario ``name`` to ``path`` with ``horizon`` and,
    when given, ``law``; return the path as a string."""
    doc = json.loads(bundled_path(name).read_text())
    doc["engine"]["horizon"] = horizon
    if law is not None:
        doc["trigger"]["law"] = law
    path.write_text(json.dumps(doc))
    return str(path)


def run_hashes(config, runs, tmp_path):
    """The SHA-256 of every file each run of ``runs`` (label -> cli argv)
    writes on ``config``, keyed ``<label>/<file name>``."""
    hashes = {}
    for label, argv in runs.items():
        out = tmp_path / label
        assert cli.main([*argv, "--config", config, "--out", str(out)]) == 0
        for path in sorted(out.iterdir()):
            hashes[f"{label}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return hashes


def artifact_hashes(name, tmp_path):
    config = bundled_copy(name, tmp_path / f"{name}.json", HORIZON)
    runs = {f"simulate-seed{seed}": ["simulate", "--seed", str(seed)] for seed in SIMULATE_SEEDS}
    runs["compare"] = ["compare", *COMPARE_ARGS]
    return run_hashes(config, runs, tmp_path)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_artifacts_byte_identical(name, tmp_path, capsys):
    assert artifact_hashes(name, tmp_path) == GOLDEN[name]


# `simulate` at seed 0 under each deterministic law, on the same 5 s copies:
# the table above pins only the bundled stochastic law's runs. The static
# law's events.csv was recorded again when its rho column became the margin
# it compares, the raw event energy (zero disagreement weights); its other
# files kept their bytes.
LAW_SEED = 0
LAW_GOLDEN = {
    "quadratic_demo": {
        "continuous/actions.svg":
            "aae94f62bea3eb6622e1647a059bf7c741f50382c969a3d4dddc5febcef3c0f0",
        "continuous/error.svg":
            "51438e6887cf397fd91ae3a3741efef927894b56c6a08d36e0b11fec5fc0b0b2",
        "continuous/events.csv":
            "e8e5e7799cd2102035c9f1d4de52da2ad1b10719f0a8167fe67f5d2ab99a63df",
        "continuous/gamma.svg":
            "d2373c7db13181da68ed7db752bb4e4142258788f56dc5f9cf74b3e69f6f0d99",
        "continuous/metrics.json":
            "a6782bf1882cfef9c57b5a382c1cf9c48d0ca833fa6bb1d160a01b22b7d3035c",
        "continuous/trajectory.csv":
            "72a67f1df8e4cc441c63b022400d86af5f13299fdb8b4786c2940a84e6586148",
        "dynamic/actions.svg":
            "618fcc6b4729c25bbfada8130d909f040598e441badd732f71959a85c50ab68b",
        "dynamic/error.svg":
            "8c8923ecf38fbd187f2d62b2b3040eb2731ae2081eab7cfeebddcb5080cd9241",
        "dynamic/events.csv":
            "2d519d2c8260c9c8a5a5d7a0fd2ed545c9cf4e00ea9f8a4d62edac77823a0a92",
        "dynamic/gamma.svg":
            "2bdcc8a74c7d29e9d79a03f9eaac58ca3ce1bd6fdbcb556c9b2867fcde2e495e",
        "dynamic/metrics.json":
            "7dc370e8a5f28060bcb35b7a4695c1034aff82fc924e92eebd6411383053319d",
        "dynamic/trajectory.csv":
            "6ac6bf33e1700e9aa40f210984e23e98f2f631427fc51d4dc739e389ac0e5661",
        "static/actions.svg":
            "09d1af2e043c2438db4d2f28e1e6e8cc71b9e44089224b33713ac1b8df12be97",
        "static/error.svg":
            "b6984b920c6f7eeeaf34945b88f9babaf16f41b1dbfa78edfe8403163cc94258",
        "static/events.csv":
            "dea7e1f61295167f2527c018509b10a3c39e019efb81d4971b1d51766a7896f7",
        "static/gamma.svg":
            "a257faeb3cd8c9fad99776ea81d729a1fd3fa5f5daaebe06e7c5fc2d0d3cc945",
        "static/metrics.json":
            "88a8f279333a86c484f5a5a5f7fdc4699464ae1cbc2056e0a113d923c7aa155d",
        "static/trajectory.csv":
            "a94fe04141f4c0d18c0585516d678ed1d4d71402d5e7f44bd0c9a19a2993c7ed",
    },
    "spectrum_paper": {
        "continuous/actions.svg":
            "b0600a75efae8063d6b7af42c030c4e314938fdb55c0a580a76ef49b258b6835",
        "continuous/error.svg":
            "db26dada692e2ca4ed9635b5ccc9ddb7b2459e2f5920fa6372c9edbb84b863d4",
        "continuous/events.csv":
            "9cc636b97b1c69ccc8839c760bb9a859485b614c7f0e03d7eaf4672e34794e5b",
        "continuous/gamma.svg":
            "d2373c7db13181da68ed7db752bb4e4142258788f56dc5f9cf74b3e69f6f0d99",
        "continuous/metrics.json":
            "1dfbe5a1d691b1ae44914c24873a00ed9fcec0fcf8b3c6361ae8348ab6faac21",
        "continuous/trajectory.csv":
            "8a25f8c4900203f07c37d06345b54113ba7f91128aa2f8c855e9c24c2caac47f",
        "dynamic/actions.svg":
            "3a04394b9f95a53c1779bb106832ffb690edff5e1405dd506670c69c38ce60de",
        "dynamic/error.svg":
            "599cb7669b59995b4cbf8d435de838e2a1ef5bd3707729358da77959763c5773",
        "dynamic/events.csv":
            "4b8c09aff4336a7e399ce2f9347205d1fdd1d33109bc0ffabb1c6cafb477ef04",
        "dynamic/gamma.svg":
            "72c973b48079c9e11422f574dec8ce8bcf88a9100c7d4fff154765dbed2b3a64",
        "dynamic/metrics.json":
            "ddd5fd654c84da865b17bb56f65086f063e3aa8ba6f006ad64daf918b1e218cc",
        "dynamic/trajectory.csv":
            "6be7c7e3480ed697fd668d1bd2e350d98123568e9b4f9195bcbe6ba9b5703202",
        "static/actions.svg":
            "e2da60aa70f997e2314122fe49c509f58e50e7866974527313292719a98a990c",
        "static/error.svg":
            "9ec418b89847e917cd2180981604d57c57c36ce0896601d826e661193a73c33c",
        "static/events.csv":
            "4fa4c61984ff6f5b8fa34bc165df93d323b4d9a74bc76346c73423213a9784ca",
        "static/gamma.svg":
            "6dea1c18a9ee0f13e43728d639ecef2ecd48dd9020cede397b9e4afb941a389a",
        "static/metrics.json":
            "366669758ef7aa4935d23d04696067f921d1b06de81588be7e4bc83fd6f4c0e5",
        "static/trajectory.csv":
            "cc52f9bcf74f5cdabaee1436559f506103c6928d840d22040be53fc4c24c1d03",
    },
}


def law_hashes(name, law, tmp_path):
    config = bundled_copy(name, tmp_path / f"{name}-{law}.json", HORIZON, law)
    return run_hashes(config, {law: ["simulate", "--seed", str(LAW_SEED)]}, tmp_path)


@pytest.mark.parametrize("name", sorted(LAW_GOLDEN))
def test_every_law_simulates_byte_identical(name, tmp_path, capsys):
    hashes = {}
    for law in ("continuous", "static", "dynamic"):
        hashes.update(law_hashes(name, law, tmp_path))
    assert hashes == LAW_GOLDEN[name]


# `bounds` stdout on both bundled scenarios as shipped, and on a 20-player
# ring-plus-chord spectrum game with weights in [0.5, 2] and beta = 1e6, so
# that every report field is finite. Recorded while each block of the
# certificate went through scipy's Lyapunov solver; the LAPACK calls that
# replaced it keep every byte. The digests do not change with one or two
# BLAS threads, nor without numpy's AVX-512 kernels.
BOUNDS_GOLDEN = {
    "quadratic_demo": "598e823398f41d0568204a9997335ec07c5ead97aec6eef696a94e87a7ca89ff",
    "ring_chord_n20": "168a7d9c5e31fe26803db097ae87c261f7b48d015a8b537ad5cb24f71596eeff",
    "spectrum_paper": "e7987f4ead27c2f13c12b51185e3f4d027c16eb6b5ddacf0c3e2e86603feee3f",
}


def ring_chord_n20() -> dict:
    """The scenario document of a directed ring in which player i hears
    i - 1, plus one chord into every player, with non-unit weights."""
    n, rng = 20, np.random.default_rng(2020)
    a = np.zeros((n, n))
    for i in range(n):
        a[i, i - 1] = rng.uniform(0.5, 2.0)
        a[i, (i + 1 + rng.integers(n - 2)) % n] = rng.uniform(0.5, 2.0)
    return {
        "adjacency": a.tolist(),
        "game": {
            "kind": "spectrum", "m_c": rng.uniform(5.7, 15.0, n).tolist(),
            "q": rng.uniform(1.1, 1.5, n).tolist(), "r": [20.0] * n,
            "s_db": rng.uniform(12.0, 18.0, n).tolist(), "ber_target": [1e-4] * n,
            "tau": 1.0, "intervals": [[0.0, 16.0]] * n,
        },
        "trigger": {
            "law": "stochastic", "kappa": 1.075, "a_floor": 0.05, "eta": 10.0,
            "c": 1.0, "sigma_rule": "0.8/din", "delta0": 100.0,
        },
        "engine": {"alpha": 0.14, "beta": 1e6, "dt": 0.025, "horizon": 1.0, "seed": 0},
        "x0": rng.uniform(0.0, 16.0, n).tolist(),
        "y0": rng.uniform(0.0, 16.0, (n, n)).tolist(),
    }


@pytest.mark.parametrize("name", sorted(BOUNDS_GOLDEN))
def test_bounds_byte_identical(name, tmp_path, capsys):
    config = name
    if name == "ring_chord_n20":
        config = tmp_path / f"{name}.json"
        config.write_text(json.dumps(ring_chord_n20()))
    assert cli.main(["bounds", "--config", str(config)]) == 0
    text = capsys.readouterr().out
    assert hashlib.sha256(text.encode()).hexdigest() == BOUNDS_GOLDEN[name]


# Runs whose artifacts hold missing values, which no run above has: every
# player there broadcasts at least twice. On ``quadratic_demo`` at its own
# seed 7 with a 1 s horizon, `simulate` leaves both players without a gap
# between broadcasts, and `compare` leaves the dynamic law's player 1 and
# both stochastic players without one, so their interval statistics are
# null in JSON and empty CSV cells; at a 0.025 s horizon (one step) the
# decay-rate fit has too few samples and metrics.json's rate_fit is null.
# Recorded while a missing statistic was None and an undefined fit an
# exception caught and turned into NaN.
MISSING_RUNS = {
    "simulate": (1.0, ["simulate"]),
    "compare": (1.0, ["compare", "--runs", "3", "--laws", "static,dynamic,stochastic"]),
    "simulate-one-step": (0.025, ["simulate"]),
}
MISSING_GOLDEN = {
    "compare/compare.json":
        "d5033057a558a27617f62b8ae3281f50aa7be6f92ef38604bb6fbcd242b42922",
    "compare/error_compare.svg":
        "677017f36b2cd289285ad60fa645aeaaad03f26c72df27e4fb3e4c8ba08667e8",
    "compare/gamma_compare.svg":
        "6c328d6fd32b1e83c4929232463333da84e498a2a98be67eb85a1ff2621e27c9",
    "compare/summary.csv":
        "f730f5043e8fc5bf9c733e73596169d3181f8a4ae202089c70a26900c0dc48e6",
    "simulate-one-step/actions.svg":
        "89f390c02eb94a8a574c72595762069305518d77d6db991bda7241300095a5d3",
    "simulate-one-step/error.svg":
        "d4ab103e98a1571132bdb019a0cd90a2e9a2dad2a21fd582d78a758ff4ffe774",
    "simulate-one-step/events.csv":
        "d90d0d9d7422031a940f725b75d7bd7da1f59a7c34fee84bddf581d0b8e30957",
    "simulate-one-step/gamma.svg":
        "353fcf04f19d7a960e52ebbd4388c503a9628790de9d3c01417baae20d97e817",
    "simulate-one-step/metrics.json":
        "f7fbaa79cd90438451e91ed7e48ce3c34c4a0681050f801411f8a954eb6ee626",
    "simulate-one-step/trajectory.csv":
        "a2390210d32150779872cd57d85766101477cb4912bf63856458192488b2f497",
    "simulate/actions.svg":
        "abc07dd7f7679ef617615f8ab387e7f42d3f1cf0c2d2c5b02bc9c38076265318",
    "simulate/error.svg":
        "14162e25dec9274e85f13d57a786e1e9c8d2bc1392d3884b95082d8fb70d933e",
    "simulate/events.csv":
        "2dfe8ec24f149fb41cdec142780eceda5c21a358376ceb05db39b4024b682eb9",
    "simulate/gamma.svg":
        "fd3a144d20722bf9a967212c6f50ab311b26bd708c8916e9b116aa4d6e14094f",
    "simulate/metrics.json":
        "61c5fedd2484f03508181726ab777cbc1baa02bd0832c12e2993c940f510d452",
    "simulate/trajectory.csv":
        "0f1976806401930718c2fbc0756bb684d071d71992b8ec7fb75e5ef355d2bfa3",
}


def test_missing_values_byte_identical(tmp_path, capsys):
    hashes = {}
    for label, (horizon, argv) in MISSING_RUNS.items():
        config = bundled_copy("quadratic_demo", tmp_path / f"{label}.json", horizon)
        hashes.update(run_hashes(config, {label: argv}, tmp_path))
    simulated = json.loads((tmp_path / "simulate" / "metrics.json").read_text())
    assert all(row["mean_interval"] is None for row in simulated["interval_stats"])
    one_step = json.loads((tmp_path / "simulate-one-step" / "metrics.json").read_text())
    assert one_step["rate_fit"] is None
    summary = (tmp_path / "compare" / "summary.csv").read_text().splitlines()
    assert [line.endswith(",,,") for line in summary[1:]] == [False, False, True, False, True, True]
    assert hashes == MISSING_GOLDEN
