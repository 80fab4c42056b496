"""Pinned machine reports: the SHA-256 of the 37 reports that every change
must keep byte-identical.  They are the five shipped specs under each
spec-taking check at ``--seed 3`` and ``--check fuzz`` at seeds 0..11, run
from the root of a checkout with relative spec paths (the report records the
path it was given).  A change that alters what a seeded sampler draws
updates these pins and says so in CHANGES.md.
"""

import hashlib
from pathlib import Path

import pytest

from enrichkit.cli import parse_spec, run

ROOT = Path(__file__).resolve().parent.parent

# (check, spec file stem or None, seed) -> SHA-256 of the machine report
PINNED = {
    ("validate", "boolean_chain", 3): "af1fc9badc2b5eb26fb895bbb56f4ef17b3b4724f042b3d127b67de0a08344b6",
    ("presheaves", "boolean_chain", 3): "08eefb23416468921adbcf0fa3f36e0d39cde1c09a9482cf82fd93ce73d46c48",
    ("yoneda", "boolean_chain", 3): "08077650fbb67cb6a2c8e63d9e15665fc32a2794bf4eff3845ed8555b3e3493a",
    ("wcolim", "boolean_chain", 3): "be15c6c139f717633b7b55e9ea08edc6befb5f9d4e2a389ac282d8a84fde8da0",
    ("universal", "boolean_chain", 3): "04dbd927f890fecf638ebc7602dc2a564ac3b6a8ebe1f49435cc1949a58102d3",
    ("validate", "c3_loop", 3): "e7bebd29d147259db9c6c56bf1dd9cb589a69bc700ba45a20b475335caf6b23c",
    ("presheaves", "c3_loop", 3): "4400f81339e897561ac0d5b1494f7087f54c022a274f757867fd41839641793b",
    ("yoneda", "c3_loop", 3): "ddb66b4f5bd9ba045ebf626f7bb76e9e8d35b51bfd3ea98142e07671ab00f29c",
    ("wcolim", "c3_loop", 3): "17fdcdc97d764294d9c2a1c1e2c6c53eaef9886e22f086797930dec399e9a3e7",
    ("universal", "c3_loop", 3): "9d81ff02eb26f39e4f0787e71a49e729eed7489963d8e42e936bcedc99feb30b",
    ("validate", "corrupted_assoc", 3): "a7bddd6d3ead69fb23c3cd1116d5258c3941f673209998d27bd1d696e71ab4d1",
    ("presheaves", "corrupted_assoc", 3): "0c748d945e63749584070dcbb0ada7bd854899d1bce042b3b5ca700927bb5e08",
    ("yoneda", "corrupted_assoc", 3): "265d4837e419a9056f23759cb46454a667f07d1065d3e1706218007e75eff131",
    ("wcolim", "corrupted_assoc", 3): "716c64de19de481427a49175dfe5b899d826ac2dff3934a60e8191498d177d8d",
    ("universal", "corrupted_assoc", 3): "f80882b9645e805ec8e7554080f4c3b2172d3a153c08f8111f582d51cdc3c805",
    ("validate", "s3_pair", 3): "56d5ac2b52d42f3e062cdc2897bf6f2ea6f7d974d6c6e42eadc56dad5f66ca97",
    ("presheaves", "s3_pair", 3): "c8fcb22753431f90debb026bcf2f36d2fdd5fc4fd2a694361535dd9168ee6045",
    ("yoneda", "s3_pair", 3): "cf6b12a074565489b4e688f1ca27748d5beb9cdbaec7ac26a2c21bd683bfdc2d",
    ("wcolim", "s3_pair", 3): "1c678763fbb70095df0773dd794293a13cec7196f8eedf4a95f55652f342d426",
    ("universal", "s3_pair", 3): "f3de76ab8b3f5b87e17682ec626248c023335d1cf1e88b94eb1167f64817217d",
    ("validate", "wcolim_demo", 3): "fc5092808a673d7edaf049b023daada751ae5e426c8c71cd898f1ff18b0472a3",
    ("presheaves", "wcolim_demo", 3): "d1712114f78edfa3ac18893d5ca1be46dfbe3bf1080e5a68c1fa0c252bff7c24",
    ("yoneda", "wcolim_demo", 3): "385d822fcb509397f5d84e6075e229d716f3fcb556e9635a0ac550bceeca4a17",
    ("wcolim", "wcolim_demo", 3): "bfa62f0ebf233eb6c24904948e1ad5faab2e935d94349212c3249f6a40e77e78",
    ("universal", "wcolim_demo", 3): "8a7572b9605f0ef48b71374ac4f5cfda78d1f4ced9f2b6bfd815e6a4c863b075",
    ("fuzz", None, 0): "075f63e4ec1889019617c27b9d5ff36cfb5b2fd5d9982ed0810e00643b8138c3",
    ("fuzz", None, 1): "0acac738cc42599a0037e4c77edce8c74f29d68d9710cff9ebeffd21ec11ef30",
    ("fuzz", None, 2): "64efc074974c41061ddd2df73276cd1db79844bb66c4e21692608a9b8362a01a",
    ("fuzz", None, 3): "f73742ef9b742b60c26694dc1774d9e4fdd8c540fa8dc21fad10aa5141da61c0",
    ("fuzz", None, 4): "591d41d40c8a81ad97204784870e8f587588fb7b965ccb442e9b06e801259dc9",
    ("fuzz", None, 5): "53b49b95c0f04ba6c953e701f16d19c90eda3b91487324ccb9ec797d70511fb8",
    ("fuzz", None, 6): "e4aaf1c65514d5da39780c13ca83ca143085b576c6398ea7880282ae08b7bef9",
    ("fuzz", None, 7): "b46fe8ddc86d9b5f4b62127b0193b3fcc00229dbc65e4fc0da59bca14d88a5a7",
    ("fuzz", None, 8): "6fbe93bf3eded16c934064917400dbcb0bb79ba252cd402e1cd544bfa106e0ac",
    ("fuzz", None, 9): "dce390dc2186a73801cba1e54922f5b3b530b9232ff4d75a127aff3b82389aea",
    ("fuzz", None, 10): "ce90b3e684f127b0f8d9e0c62a7826becb37e8a5cfa14e44e19de807cfdd72c1",
    ("fuzz", None, 11): "003a3d133663e6b10be26241d585728eb4434d5eb925eeecc53421dc5feab19f",
}


@pytest.mark.parametrize("check, spec, seed", list(PINNED))
def test_machine_report_is_pinned(monkeypatch, check, spec, seed):
    monkeypatch.chdir(ROOT)
    parsed = parse_spec(f"demos/specs/{spec}.json") if spec else None
    text = run(check, parsed, {"seed": seed}).to_machine_json()
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED[(check, spec, seed)]
