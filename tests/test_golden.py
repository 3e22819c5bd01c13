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
    "summary.json": "0389d38f7db834d74d6154df432b30b550d138bdabeba78118ed1ea80f2b6802",
    "samples.csv": "283611d242e8978902f66e43e951d4caad51f2fb845dc68178f7c997834ccd5d",
    "sampling_flags.json": "bf76b672804c6c02f37773dd8879074613f81cedb484f9391a4a2cbae09f2e9a",
    "queue_survivor.csv": "cb63a57d7cbfd31013b756b9be6411279c1c8571a6b4315a622d883ff26e9017",
    "eval/histogram.csv": "9b0a26e7c49276f4856dccb1bba835502a7339876325c7931d0bbd522421d502",
    "eval/roc_logistic_out.csv": "9b9ed4681c279e41afd58f535278352c5ed668a493a14b5da12e4d88bb14a146",
    # embeds the provenance block: every config key except out_dir and jobs
    "report.json": "72738279083bf094cbc1b396842c11c21abb6ff2cacf0371b56d6cf1edd35e4a",
}

# the local-logistic curve, its CV's MSR per bandwidth, and its ROC, on a coarse grid
LOCAL_PIPELINE_DIGESTS = {
    "fits/local_meta.json": "629f2b273fd121122607061aeabe8895b9f102e158e5ebb0f10e9768962d3dad",
    "fits/local_curve.csv": "39088ae70420b53bbfd5ea2f0274e8b9a47af04729a67473374a021ba363ae78",
    "eval/roc_local_out.csv": "9b9ed4681c279e41afd58f535278352c5ed668a493a14b5da12e4d88bb14a146",
}

# small-tick days sampled in event time: every draw reads the quote timeline
EVENT_PIPELINE_DIGESTS = {
    "samples.csv": "6ec15dabccc753f8789c51af01947a76d3d57da62316bf812dabf14f8e4b500d",
    "sampling_flags.json": "7b77360b7f7cd18135adccbef6fea66b9b945bcbbce2006ccfd2f0f04cf683d5",
}


# preset days whose session closes 100 s after the open, inside the 300 s of
# simulated flow: the mid changes after the close are dropped, not sampled
WINDOWED_SAMPLE_CONFIG = "days = 2\nseed = 5\nsession_open = 36000\nsession_close = 36100\n"
WINDOWED_SAMPLE_DIGESTS = {
    "samples.csv": "8929d1b2bba9a248d52abcfc6f6162847904a96994e8e64c0f44620f23abeec5",
    "sampling_flags.json": "57de8b6734e8c8c3ae8381e3867f6ffc7c65e2647991603e75140d4a34c85fdf",
}


def digests(root, names):
    return {name: hashlib.sha256((root / name).read_bytes()).hexdigest() for name in names}


@pytest.mark.parametrize("preset", sorted(SIMULATE_DIGESTS))
def test_simulate_output_pinned(tmp_path, preset):
    out = tmp_path / preset
    argv = ["simulate", "--preset", preset, "--seed", "7", "--days", "2", "--out", str(out)]
    assert cli_main(argv) == 0
    assert digests(out, SIMULATE_DIGESTS[preset]) == SIMULATE_DIGESTS[preset]


def run_pipeline(tmp_path, config):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(config)
    out = tmp_path / "run"
    assert cli_main(["pipeline", "--config", str(cfgfile), "--out", str(out)]) == 0
    return out


def test_pipeline_output_pinned(tmp_path):
    out = run_pipeline(tmp_path, "days = 3\nmodels = logistic,null\n")
    assert digests(out, PIPELINE_DIGESTS) == PIPELINE_DIGESTS


def test_local_pipeline_output_pinned(tmp_path):
    for jobs in (1, 2):  # the CV's fits in process, and on two workers
        (tmp_path / str(jobs)).mkdir()
        out = run_pipeline(tmp_path / str(jobs),
                           f"days = 3\nmodels = logistic,local,null\ngrid_points = 41\njobs = {jobs}\n")
        assert digests(out, LOCAL_PIPELINE_DIGESTS) == LOCAL_PIPELINE_DIGESTS


def test_windowed_sample_output_pinned(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(WINDOWED_SAMPLE_CONFIG)
    out = tmp_path / "run"
    assert cli_main(["sample", "--config", str(cfgfile), "--out", str(out)]) == 0
    assert digests(out, WINDOWED_SAMPLE_DIGESTS) == WINDOWED_SAMPLE_DIGESTS


def test_event_pipeline_output_pinned(tmp_path):
    config = "preset = small-tick\ndays = 2\nsampling_mode = event\nmodels = logistic,null\n"
    out = run_pipeline(tmp_path, config)
    assert digests(out, EVENT_PIPELINE_DIGESTS) == EVENT_PIPELINE_DIGESTS


# two simulated small-tick days read back as LOBSTER files; a few level-1
# rows of day 1 perturbed, so that verification.json holds mismatches
INGEST_DIGESTS = {
    "day000_events.csv": "14289b5867246779a267b4593ddcb11b4f373196a7ea57df5749175e49676aaa",
    "day001_events.csv": "90cecf3e9303af22d2c7aa6a4b5199849f55a21abb6a4d18245cbd8182d132dd",
    "verification.json": "94d350b8d91e72d3e3d6604646f5a96496b35a24f45cc5441540a4c523a06616",
    "summary.json": "7ecf7e249dd943b14ad8a13be93530348fa63ebcb8f5106b744a98b4ca6e73f8",
}

LOBSTER_PIPELINE_DIGESTS = {
    "samples.csv": "1332ae48087f447f636e8b878e83e11a78ffc8f08bb1ef0c4b38d82864de3681",
    "sampling_flags.json": "1f4e1be5ff94e22f7aa4db1d3fad9313f8e328d214b0465e995b6c71cd7bdfbe",
}


@pytest.fixture(scope="module")
def lobster_days(tmp_path_factory):
    data = tmp_path_factory.mktemp("lobster")
    argv = ["simulate", "--preset", "small-tick", "--seed", "3", "--days", "2", "--out", str(data)]
    assert cli_main(argv) == 0
    path = data / "day001_orderbook.csv"
    rows = path.read_text().splitlines(keepends=True)
    for i in (3, 700, 701, 5000):
        ask, na, bid, nb = map(int, rows[i].split(","))
        rows[i] = f"{ask},{na},{bid},{nb + 1}\n"
    path.write_text("".join(rows))
    return data


def lobster_config(data):
    files = ("message", "orderbook")
    return "source = lobster\n" + "".join(
        f"{kind}_files = " + ",".join(str(data / f"day{d:03d}_{kind}.csv") for d in range(2)) + "\n"
        for kind in files
    )


def test_ingest_output_pinned(tmp_path, lobster_days):
    cfgfile = tmp_path / "ingest.cfg"
    cfgfile.write_text(lobster_config(lobster_days))
    out = tmp_path / "ingest"
    assert cli_main(["ingest", "--config", str(cfgfile), "--out", str(out)]) == 0
    assert digests(out, INGEST_DIGESTS) == INGEST_DIGESTS


def test_lobster_pipeline_output_pinned(tmp_path, lobster_days):
    config = lobster_config(lobster_days) + "sampling_mode = event\nmodels = logistic,null\n"
    out = run_pipeline(tmp_path, config)
    assert digests(out, LOBSTER_PIPELINE_DIGESTS) == LOBSTER_PIPELINE_DIGESTS
