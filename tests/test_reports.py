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
    ("fuzz", None, 0): "9ffe6c3da4f888e5fc5c0b9ebef039f04be71fce3f8ca54b054d530502bd3631",
    ("fuzz", None, 1): "d9c03fb3c044d4fce1ee1ce82420ab2de121a1e61620674f8f8c681289e920a8",
    ("fuzz", None, 2): "0138ae66abd700eee1acad1aee156813b4cfd08b709b596d3952b3368352f4f8",
    ("fuzz", None, 3): "362228e2d605384565d3b980cce855e0f098888c08c5879f6dfd4ad97007d854",
    ("fuzz", None, 4): "71e98475a9610da421bd6d2e23a6ebf87e9b0299f7f5298a912b5f5ad3ff5b8a",
    ("fuzz", None, 5): "c5af7f67ded274316d6e223dad66162bbde0f5a487a0ed80a90d9b404e1eb1a5",
    ("fuzz", None, 6): "ee1060399a7d6b5bef2a0f2222ba0acf6e0236990fae6a7087a7f4d63439b4ed",
    ("fuzz", None, 7): "b02b741b45ac97a22a39b08042f9460964d31f64f5d84ca0413730b6687f05c0",
    ("fuzz", None, 8): "248dbf5a5ddc7c5deb0c1f4593356d9b8663e1cff471b35fc671f128e68fde73",
    ("fuzz", None, 9): "0fa90bed4754daeefc58c0a1895ae15038fb5af1ddc13d890205e469eb2a2167",
    ("fuzz", None, 10): "4f7b1fc0f52672ca5716ef170ff03f131d1199b66760b8164b2311390535e291",
    ("fuzz", None, 11): "aa9d7a11f6fbfb6ae1b427d1fe99aff02d822f59250255e2adc78c6b72ebc5ed",
}


@pytest.mark.parametrize("check, spec, seed", list(PINNED))
def test_machine_report_is_pinned(monkeypatch, check, spec, seed):
    monkeypatch.chdir(ROOT)
    parsed = parse_spec(f"demos/specs/{spec}.json") if spec else None
    text = run(check, parsed, {"seed": seed}).to_machine_json()
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED[(check, spec, seed)]
