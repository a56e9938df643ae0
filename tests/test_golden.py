"""Byte-level regression guard for the CLI's output files.

Fixed-seed runs of both generation modes, followed by ``validate``; every
file they leave (points, metadata, plot data, reports) must hash to the
SHA-256 recorded below.  Most runs are small; the two ``-chunks`` runs are
large enough that the points writer crosses chunk boundaries.  A change to
sampling, draw order, float formatting or report layout shows up here as a
digest mismatch.
"""
import hashlib
from pathlib import Path

import pytest

from scatternet.cli import main

PLANS = Path(__file__).parent.parent / "plans"
DATA = Path(__file__).parent / "data"

SMALL_REGIME = ["deploy", "--size", "1", "--max-layers", "5", "--nodes", "100", "--seed", "42"]
# 50000 points span four chunks of the points writer (16384 rows each).
CHUNKED_REGIME = ["deploy", "--size", "1", "--max-layers", "5", "--nodes", "50000", "--seed", "42", "--plot-data"]

RUNS = {
    "deploy-csv": SMALL_REGIME + ["--runs", "2", "--plot-data"],
    "deploy-json": SMALL_REGIME + ["--runs", "2", "--plot-data", "--format", "json"],
    "deploy-csv-chunks": CHUNKED_REGIME,
    "deploy-json-chunks": CHUNKED_REGIME + ["--format", "json"],
    "plan-mixed": ["plan", "--plan", str(PLANS / "mixed_demo.json"), "--seed", "3", "--runs", "2", "--plot-data"],
    "plan-two-annulus": [
        "plan", "--plan", str(PLANS / "two_annulus_80_20.json"), "--seed", "3", "--runs", "2", "--plot-data",
    ],
    # 400 points in the rectangle: enough for its 8x8-cell areal chi-square.
    "plan-rect-grid": ["plan", "--plan", str(DATA / "rect_grid.json"), "--seed", "3", "--runs", "2", "--plot-data"],
}

GOLDEN = {
    "deploy-csv": {
        "run_000.csv": "c491c13160977a5a5ea445e1f739df2375f661eebc7af53fad7772a669d34242",
        "run_000.meta.json": "ae71625ea7a2595543d1945bbbf12e7fe071e1f7d91d2c00dcdea0856c4323ca",
        "run_000.report.json": "b01662142b9a7978dfbe5898ea726a6dd271c897490373ea88480fe2bd2bd8a8",
        "run_000.rings": "4bf74b6689612af3e1a19acf9ea8f58fcbe46e45ef9f5b28670bcbfcc1c9bc8a",
        "run_000.xy": "9589d78f127745cbc25b7b5a74093cec6d7415750eff6da56f64345432934703",
        "run_001.csv": "a3fffa724b52201c7f3a0fab7e4ccca45fcd708d054a57dcc797b9f60fb6cdf1",
        "run_001.meta.json": "809e1e82c539e7bd660d299f78be04226118422596192f9f21770071859dec17",
        "run_001.report.json": "18dad56b7e505fc1ced14b5b018dcb561ea7c1efebc51b2c011fe4b1a0a87bc3",
        "run_001.rings": "6794ff42e4d34ff0cfcbd3e665ac28c30cfcf263b748e713c7c2f1c5b71cb2d2",
        "run_001.xy": "81611ac04d3fa682d29a23ecb12adaae6affd7ee2a73ba1ed536291e8e568860",
    },
    "deploy-json": {
        "run_000.json": "49306eca5d32f6201a78a51466bdf9d045639e08d4c50fa8c609ff16d3992ccc",
        "run_000.meta.json": "ae71625ea7a2595543d1945bbbf12e7fe071e1f7d91d2c00dcdea0856c4323ca",
        "run_000.report.json": "b01662142b9a7978dfbe5898ea726a6dd271c897490373ea88480fe2bd2bd8a8",
        "run_000.rings": "4bf74b6689612af3e1a19acf9ea8f58fcbe46e45ef9f5b28670bcbfcc1c9bc8a",
        "run_000.xy": "9589d78f127745cbc25b7b5a74093cec6d7415750eff6da56f64345432934703",
        "run_001.json": "8b209d03d0820d831fb1b07dc2664e098598c6187d57901cfd4414cf6fecec98",
        "run_001.meta.json": "809e1e82c539e7bd660d299f78be04226118422596192f9f21770071859dec17",
        "run_001.report.json": "18dad56b7e505fc1ced14b5b018dcb561ea7c1efebc51b2c011fe4b1a0a87bc3",
        "run_001.rings": "6794ff42e4d34ff0cfcbd3e665ac28c30cfcf263b748e713c7c2f1c5b71cb2d2",
        "run_001.xy": "81611ac04d3fa682d29a23ecb12adaae6affd7ee2a73ba1ed536291e8e568860",
    },
    "deploy-csv-chunks": {
        "run_000.csv": "099ca0e554652b730d1356748cccb39e7a8d4d3d9d3a3055e18e07dc8b387a44",
        "run_000.meta.json": "2b5c78227f5d6225b777726e21e2cb21b1568050a0672fb8571d75569903b24e",
        "run_000.report.json": "fb25a24452d1ec96702954b5e207723181502fe1105eb99d02d4fdd7c1110ff7",
        "run_000.rings": "4bf74b6689612af3e1a19acf9ea8f58fcbe46e45ef9f5b28670bcbfcc1c9bc8a",
        "run_000.xy": "291140d3eb5d6781da1ce6c566773fbdfba57dbb4c4121f41b0e77d227d0d8b0",
    },
    "deploy-json-chunks": {
        "run_000.json": "684fdaad944e8aba0afde1a9081052e4766565d4f8bbe67e4c50362f937f5327",
        "run_000.meta.json": "2b5c78227f5d6225b777726e21e2cb21b1568050a0672fb8571d75569903b24e",
        "run_000.report.json": "fb25a24452d1ec96702954b5e207723181502fe1105eb99d02d4fdd7c1110ff7",
        "run_000.rings": "4bf74b6689612af3e1a19acf9ea8f58fcbe46e45ef9f5b28670bcbfcc1c9bc8a",
        "run_000.xy": "291140d3eb5d6781da1ce6c566773fbdfba57dbb4c4121f41b0e77d227d0d8b0",
    },
    "plan-mixed": {
        "run_000.csv": "02d6e1b0912c61a5ffbca0070c16aa7e24aa34e8afef7fbe82182ea6c55ebdfd",
        "run_000.meta.json": "2e57359bbb51fba9b38db51884525c3d58ed078531922b28cc7eaacceb8eb000",
        "run_000.report.json": "db1252adf682bcd10a2f20edacbac48cd76b16272a80abe8a85d5e53846fc7c1",
        "run_000.xy": "2b5c4bacad9bf663196b77dc5a12de24d050f00c6da0fd9fa6dc2a678bfaa017",
        "run_001.csv": "aa9a5f7d141ec7996f18fe7527f6884102c54793843805dd74238c8378b28354",
        "run_001.meta.json": "ee2d6d2ae3820348ec7c82124c2f54fb46bc99715feb4f297dd6145a1f96bf41",
        "run_001.report.json": "ef9deb050a9b40e3a9e7bd63ca0a7ec0f340c59c4043084e6f0d84c1071bdcae",
        "run_001.xy": "edc7565cc696e4c63a0f914d442a3243cd3e63f2bab813b435fd9294657661be",
    },
    "plan-two-annulus": {
        "run_000.csv": "04ec819816f08f23f1e649c743d64c65f8884d85367fae4b5a1f39d94e8ec4fd",
        "run_000.meta.json": "2a8539b0f8cd9167b9377a6867578fce17f4f6d99dad1ff4c6fae8c52f7b6943",
        "run_000.report.json": "55a5aa646d1084d1a65faa22343f253cb119a5fe50008fce4954ddb6c2039cb2",
        "run_000.xy": "1f732661f5012bfa585e1a87a697191aac88af1339fbdae129957c75a1af64c3",
        "run_001.csv": "4100479cc4f77d0b13b5c06458017f1304818000fe5bfc2bcf3036d43dcc4de6",
        "run_001.meta.json": "50bfe91842e358a07915adc9b48f519676ddb8fe6888eeb5abe44393f3942da4",
        "run_001.report.json": "b859d5d27650ea21176d98d4013f27923fe87b25839a0e4b366ae498ead919d2",
        "run_001.xy": "de9017f77c800a86af2689608f0b7b9efcf3964dc2b78d5d965ed25abf4952f7",
    },
    "plan-rect-grid": {
        "run_000.csv": "299167bcae2d82b9e9ae5cf305476f8f8d18ef293fce06d4ad05a40af52782fa",
        "run_000.meta.json": "f4b9bbba5f95d5ad99a0fb35a679b4b5e9c4697c82d7b94b30d7d93280826095",
        "run_000.report.json": "fa3bfa2b794f8682f771b8ec0ae91fc584cd9b85c3ac8d9ffef28fda93afad0a",
        "run_000.xy": "fb10d0872bd3d5cc2cea665d184365352be6a2351f6885994ba92f8de7c6520c",
        "run_001.csv": "750179d23d4856aa91e878523f232f526d1d1f80fe11cb1a6fb349f31314115a",
        "run_001.meta.json": "4134bcd96c44460517aabafd2321666d03f5f4e46bf795ef6f8a50088e39e6f1",
        "run_001.report.json": "d91e3e8878ab4dd49f8af8a341cd4a483e8a9c844b5656aafac53e50d783b7de",
        "run_001.xy": "7980d2666a9d0cd7685c5659206a7d7126cc8c04b0e4ba0a416ce05d268f4240",
    },
}


def run_digests(name, out: Path) -> dict:
    """Generate run ``name`` into ``out``, validate it, and hash every file."""
    assert main([*RUNS[name], "--out-dir", str(out)]) == 0
    points = sorted(p for p in out.iterdir() if p.suffix in (".csv", ".json") and ".meta" not in p.suffixes)
    assert main(["validate", *map(str, points)]) == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_output_bytes_unchanged(name, tmp_path):
    assert run_digests(name, tmp_path) == GOLDEN[name]
