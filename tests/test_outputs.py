"""Output digests: the SHA-256 of byte-stable command outputs.

fixed_points.json of `fixed-points` on every shipped config,
validate_report.json at seed 0, and every file that `flow`, `shadow`,
`simulate`, `scan` and `localize` write on their shipped configs at
--threads 1 must not change by a single bit under a refactor. `simulate`,
`scan` and `localize` must write the same bytes at --threads 2, through a
process pool. A change that means to move these bits re-pins the digests
and says why in CHANGES.md.
"""

import hashlib
from pathlib import Path

import pytest

from sivjp.cli import main
from sivjp.harness import ExperimentConfig, cmd_fixed_points, cmd_validate

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

FIXED_POINTS_SHA256 = {
    "flow_demo": "fe53078f53afa40b4ab1e0e261cd288245aa4a7ee46704cf422f415ba3d1b7f1",
    "localize_two_well": "959d0acc1c423e30e0bb64cb0ef439a0b043d98ffe42732dd513811703d27a5a",
    "pitchfork_scan": "eec89fe8686856662a8c7067c884986dde198618560245523c6700e06e24d626",
    "shadow_demo": "fe53078f53afa40b4ab1e0e261cd288245aa4a7ee46704cf422f415ba3d1b7f1",
    "subcritical_smoke": "772577260d95bd5da26a56b2ada68cbe6b463c2a2ba2624ea2acb7ea195e6979",
    "supercritical": "fe53078f53afa40b4ab1e0e261cd288245aa4a7ee46704cf422f415ba3d1b7f1",
}
VALIDATE_SEED0_SHA256 = "7d29614f71ed016ee50aec460fd8caf5e7a0e42b6244b5876d5e734140a4cda8"
# (command, shipped config) -> {file it writes: SHA-256}
COMMAND_OUTPUTS_SHA256 = {
    ("flow", "flow_demo"): {
        "flow_demo_flow.csv": "eb86a026a503dc2691a352689c6769eb4e9142eb37ac086e1c5b38409dc25609",
    },
    # the moments are the bytes of the former shadowing script
    ("shadow", "shadow_demo"): {
        "shadow_demo_flow.csv": "58251c2d061e12de7be5b8fbbb25b49ececc4befeb244815d6283d50217ac87e",
        "shadow_demo_moments.csv": "b4ba3df6847378782b2f17cb0bc013ca0a63db30d7bb0199a58805cf2e2830b1",
        "shadow_demo_shadow.csv": "3e4292bd2ecc18c282ad8d4bf18471c9b964cdce5f6dbe04d35aa87fbb1188cf",
    },
    ("simulate", "supercritical"): {
        "fixed_points.json": "fe53078f53afa40b4ab1e0e261cd288245aa4a7ee46704cf422f415ba3d1b7f1",
        "summary.json": "d598c968ebf111f19a70e0f8cc5f77092757738aa22ae0453bf93715e127df72",
        "supercritical_seed0000.csv": "b0a38d2947b69efeb596d5b50657aa8add6dd11ca06b247ba5c4ef935a9a90a7",
        "supercritical_seed0001.csv": "6b762a50bd4c63505b0a2e3cf51f54ae7d2f8dae0ba44141f88a123ab5232a89",
        "supercritical_seed0002.csv": "b2e57de95ca89602c2fb399127feeeecbc412e7467191fd0fe235082b5262bc7",
        "supercritical_seed0003.csv": "0081feb1e81992f34e895c2031fe0813c042cd42b7c7d644febb2ff3db7d2ecb",
        "supercritical_seed0004.csv": "73e9d0e29f942788dac82b34d4343f443982116846a42e3502205d1fefd85812",
        "supercritical_seed0005.csv": "9023269549a54b9fdd7632071fa30399925f5df14e494e8efdbd4622b40a767c",
        "supercritical_seed0006.csv": "770edb8736ab004d20f37e012adc0bbc46dfe5bfe79e22f254cebb3901c5321d",
        "supercritical_seed0007.csv": "321a8684f4087c192f866502dd2d6fc0628bf9709086ed72dfb00d8eb6094a6a",
        "supercritical_seed0008.csv": "ffec2d3df08a055243a4f6d2ad8d45499bfc0f0baa56c65a1e0384a62326cbac",
        "supercritical_seed0009.csv": "31327846a55ed8b2a11180192651e1d178b4c639cb870fd1184cd468698b2ca1",
        "supercritical_seed0010.csv": "c6ea40bbf60f08ae6377e590f99bbb41e46dc8f5e82736560d05f80c4168dcf5",
        "supercritical_seed0011.csv": "5e0e4b2432d92456eab22144a1f9b41a8ceb1c1db8c2f1526b9cee54274c8da0",
        "supercritical_seed0012.csv": "9f427896865ee122c7daef9792d2aa4d6be1a5a6032d1e0f0cb716d0384cfccd",
        "supercritical_seed0013.csv": "d84b268c673dab44410141c6d0cf320d47ca602baad6e21a1017fbda9bdcff9c",
        "supercritical_seed0014.csv": "ab166c8b09748b5d752f174d2736c9f67fc8e50de2cc0f91294e783f70fb74f9",
        "supercritical_seed0015.csv": "9b4c6094e6f676be9546219b66683a1786e66bfc58e2bbf9400cbda9ce00c568",
        "supercritical_seed0016.csv": "06be26cd38211fdee7112d276012c4ea7639d833ba87f91c9e983e444b735333",
        "supercritical_seed0017.csv": "6ea7444ce0210b02bc879115d068d7ffefb8ad08e6a0e428d9ae6b8922c08b95",
        "supercritical_seed0018.csv": "ef746e47274eda78c2ae8a8107a87182996c282613b068db4cad4937d437c2dc",
        "supercritical_seed0019.csv": "598dc77562569f6a9a7bfcf979b83ac050314978f1c0594fc1d6517fc0f6e217",
    },
    ("simulate", "subcritical_smoke"): {
        "fixed_points.json": "772577260d95bd5da26a56b2ada68cbe6b463c2a2ba2624ea2acb7ea195e6979",
        "subcritical_smoke_seed0000.csv": "75ad775bbc66a832d4a843ca324779bff2ea063b8a511071ca7c0c7416f0181f",
        "subcritical_smoke_seed0001.csv": "f89f42d51091edc33f29f1a0ba7e7fa60a379e84009e41e5a06a5c815baa7d89",
        "subcritical_smoke_seed0002.csv": "e8528a7c9c71324f0cba5acd71110fdb5a879b3800209208779f4add9d6964d9",
        "subcritical_smoke_seed0003.csv": "9096ea7e54c250905f660220e2b89ade645ee7229d6b17b999dee9d540ebd789",
        "summary.json": "a90b15de9371e531ca243b8e9f07b46d63ec3831481339bc3eda9b8940daf30b",
    },
    ("scan", "pitchfork_scan"): {
        "pitchfork_scan.csv": "fbaf362d4c48831dce48a714bf95cf6cffdf605aafc5a63cabfa1aa6648f718c",
        "pitchfork_scan_census.json": "94a3170a479f04f37fd4971d89c5a10670161a93c9f9528e53c14055202f43e7",
        "pitchfork_scan_info.json": "2befcb3ec96375c566ee73f1860bfbc2e23e47f72cb7fc7f171ce71b51e05dd6",
    },
    ("localize", "localize_two_well"): {
        "localize_localize.json": "38638079a5431348f3e0e4519efcd291acf4988962c78e0ddd56ef857d7c86c4",
    },
}


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


# the commands that run their seeds through a pool at --threads above 1
POOLED = ("simulate", "scan", "localize")


@pytest.mark.parametrize("command, name, threads", [
    pytest.param(command, name, threads,
                 id=f"{command}-{name}" + ("" if threads == 1 else f"-threads{threads}"))
    for command, name in sorted(COMMAND_OUTPUTS_SHA256)
    for threads in ((1, 2) if command in POOLED else (1,))])
def test_command_outputs_digest(tmp_path, command, name, threads):
    assert main(["--config", str(CONFIG_DIR / f"{name}.json"), "--out", str(tmp_path),
                 "--threads", str(threads), "--quiet", command]) == 0
    assert {p.name: _sha256(p) for p in tmp_path.iterdir()} \
        == COMMAND_OUTPUTS_SHA256[(command, name)]
