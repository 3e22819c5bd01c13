"""Golden digests: simulator and pipeline output pinned byte for byte.

The simulator's ground-truth quote records come from the same replay loop
that re-ingests them, so the round-trip criterion cannot see a drift in the
simulated flow itself; these digests do. A change that alters them on
purpose must say so and update them.
"""

import hashlib

import pytest

from queuecast.cli import main as cli_main

SIMULATE_DIGESTS = {
    "large-tick": {
        "day000_message.csv": "fda9a412a077c16db0d6f6baabab223e5b9e33e7d73277274bfaa0f8b800d463",
        "day000_orderbook.csv": "bd942fbb7522bbcdc0b1b9cfae1382d92fe906f5a492ef336f9b9b57c9574b6f",
        "day001_message.csv": "b0b5653993945d21b8ac0dba65a12171c2da39260227dc0cbf5e80919e19ecbb",
        "day001_orderbook.csv": "6a27fb503414e19096d0387e980d3046c3db11fbcbb5445030d81384986f5841",
        "manifest.json": "ce392b51024320af0c0e37bd0dd2121c893bbcd65b435c61e37a60157ac61f5e",
    },
    "small-tick": {
        "day000_message.csv": "7f1bb9f3fd3e5f76e8d610ca14c9d0e35517724112c3191c9e10c09d6d542b23",
        "day000_orderbook.csv": "380e00a76449caad049cf7308c726ac5eb6a6a37f9fcb2fa90463a135ef18a7f",
        "day001_message.csv": "26b8a109bcec1b9c69e7685cd51671d09e239912858b4f4f3f8b5eaa872fb183",
        "day001_orderbook.csv": "222846d220ea2780de183e08467b30c56d7892b9e0f58991792a65ec1327bd7b",
        "manifest.json": "10cc831c869c390fea194d94552af82c093e346a249bc89d359039dbfb843e9a",
    },
}

PIPELINE_DIGESTS = {
    "summary.json": "7a1f24604cfc2fbe0cff307dde276d55b1120cf7aabda30d7bf6f2d507ca916b",
    "samples.csv": "283611d242e8978902f66e43e951d4caad51f2fb845dc68178f7c997834ccd5d",
    # embeds the provenance block: every config key except out_dir and jobs
    "report.json": "72738279083bf094cbc1b396842c11c21abb6ff2cacf0371b56d6cf1edd35e4a",
}


def digests(root, names):
    return {name: hashlib.sha256((root / name).read_bytes()).hexdigest() for name in names}


@pytest.mark.parametrize("preset", sorted(SIMULATE_DIGESTS))
def test_simulate_output_pinned(tmp_path, preset):
    out = tmp_path / preset
    argv = ["simulate", "--preset", preset, "--seed", "7", "--days", "2", "--out", str(out)]
    assert cli_main(argv) == 0
    assert digests(out, SIMULATE_DIGESTS[preset]) == SIMULATE_DIGESTS[preset]


def test_pipeline_output_pinned(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("days = 3\nmodels = logistic,null\n")
    out = tmp_path / "run"
    assert cli_main(["pipeline", "--config", str(cfgfile), "--out", str(out)]) == 0
    assert digests(out, PIPELINE_DIGESTS) == PIPELINE_DIGESTS
