"""Output digests: the SHA-256 of byte-stable command outputs.

fixed_points.json of `fixed-points` on every shipped config, and
validate_report.json at seed 0, must not change by a single bit under a
refactor. A change that means to move these bits re-pins the digests and
says why in CHANGES.md.
"""

import hashlib
from pathlib import Path

import pytest

from sivjp.harness import ExperimentConfig, cmd_fixed_points, cmd_validate

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

FIXED_POINTS_SHA256 = {
    "flow_demo": "cb565a3ac70817eb25ebcf9630fc1cb1039471a100584ad1ab26007f52136b1e",
    "localize_two_well": "791033427f44b0b83de3ede5a2e43f1b521d3bda8cd41695bd9b7ff7b351215f",
    "pitchfork_scan": "8c56e1636876efdf1bc5fbe9750394abab36f5845709204f634e12775bd9842c",
    "subcritical_smoke": "a254fdaf142417b262283fa4ad1755d8b7ae02b83b741f3128a6cbe2bfaea064",
    "supercritical": "cb565a3ac70817eb25ebcf9630fc1cb1039471a100584ad1ab26007f52136b1e",
}
VALIDATE_SEED0_SHA256 = "ec686d7118f5f6c49db93c2ffebab3a1dd821d205868202ddda10988e893fb69"


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_every_shipped_config_is_pinned():
    assert sorted(p.stem for p in CONFIG_DIR.glob("*.json")) == sorted(FIXED_POINTS_SHA256)


@pytest.mark.parametrize("name", sorted(FIXED_POINTS_SHA256))
def test_fixed_points_digest(tmp_path, name):
    cfg = ExperimentConfig.from_file(str(CONFIG_DIR / f"{name}.json"))
    cmd_fixed_points(cfg, str(tmp_path))
    assert _sha256(tmp_path / "fixed_points.json") == FIXED_POINTS_SHA256[name]


def test_validate_report_digest(tmp_path):
    cmd_validate(out_dir=str(tmp_path), master_seed=0)
    assert _sha256(tmp_path / "validate_report.json") == VALIDATE_SEED0_SHA256
