"""Golden artifact hashes for `simulate` and `compare` on both bundled scenarios.

Each bundled scenario is copied with a 5 s horizon. `simulate` runs at seeds
0 and 123, and `compare --laws continuous,static,dynamic,stochastic --runs 2`
runs at the scenario's own seed. The SHA-256 of every artifact is pinned, so
a refactor meant to preserve behaviour must leave every byte unchanged. A
change that alters artifacts on purpose updates the table below and says so
in CHANGES.md.

Float bytes depend on the platform's libm and BLAS. The table was recorded
on x86-64 Linux, Python 3.11, numpy 2.4 with OpenBLAS.
"""

import hashlib
import json

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


def artifact_hashes(name, tmp_path):
    doc = json.loads(bundled_path(name).read_text())
    doc["engine"]["horizon"] = HORIZON
    config = tmp_path / f"{name}.json"
    config.write_text(json.dumps(doc))
    runs = {f"simulate-seed{seed}": ["simulate", "--seed", str(seed)] for seed in SIMULATE_SEEDS}
    runs["compare"] = ["compare", *COMPARE_ARGS]
    hashes = {}
    for label, argv in runs.items():
        out = tmp_path / label
        assert cli.main([*argv, "--config", str(config), "--out", str(out)]) == 0
        for path in sorted(out.iterdir()):
            hashes[f"{label}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return hashes


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_artifacts_byte_identical(name, tmp_path, capsys):
    assert artifact_hashes(name, tmp_path) == GOLDEN[name]
