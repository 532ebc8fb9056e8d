"""Byte pin of every table and side file the subcommands write.

Each of the eleven computing subcommands runs on the c12 determinism config
(`acceptance._C12_CONFIG`) and on the default config with one thread; the
sha256 of every CSV and JSON file written, apart from `manifest.json` (which
holds timings), must equal the hash recorded here.  The manifest must list the
same files in the same order, and the same task keys with the same
statuses.  A refactor keeps this test passing unchanged; a change that
moves digits updates the hashes and says which columns moved.

The hashes were recorded with numpy 2.4.6 and scipy 1.17.1 (Python 3.11).
Other versions may round differently in the last printed digit.
"""

import hashlib

import pytest

from strata_lab.acceptance import _C12_CONFIG
from strata_lab.cli_harness import run

PINNED = {
    "lyapunov": {
        "lyapunov.csv":
            "bc0192fe110e08eb36cf1ab375b59c0747e73ce64bca0cf14aae042ee455fafd",
    },
    "acceleration": {
        "acceleration.csv":
            "63cc888b5110462d6ea58cafa50a913a42778c78f1f73c1084d488fde3865500",
        "accel_curve.csv":
            "78b005ce51df893bc6f9112c3ad3cc52f7c69eb351d5d2024148282bef12ee31",
        "accel_segments.csv":
            "ec10e5317983065c6acd89328d8f754b1100f0d14454fc9257b0685672f5b434",
    },
    "zeros": {
        "zeros.csv":
            "62fd02a42c88025792d241a87193b0a39de11719390202ef98ad97dbba621134",
        "zero_counts.csv":
            "dcc1d0b35abab63d699605468d8d9fc01b087271593f1935a3c9c1974f537088",
    },
    "verify-acc-zeros": {
        "verify_acc_zeros.csv":
            "1bf679f57d81f69d6e2b21e17429c05f5dcf74de6c9f73ba5e6753bfc0f514dc",
    },
    "green": {
        "green_suite.csv":
            "1f97440ea864a924ddd64d47bcfc2a08eb2d444a0d137c833643721d71ecee70",
    },
    "riesz": {
        "riesz.csv":
            "305d0be3006d01ba1c72d11dc869f990c6e0bc2db1795aa4a99f586f8950d06c",
    },
    "ids": {
        "ids.csv":
            "b768347bea1595e93c09a8bef14f0c1271274f1ebbdf463a53f705324f9221e9",
    },
    "holder": {
        "holder.csv":
            "4a8fbe5448c8db52381add04e8ce2e33db8b283b88229a4de168a594221b3180",
    },
    "strata": {
        "strata.csv":
            "f1ae7d6fc754b14238374ea53be48dc570770c53b82104a827d7caf0584a6493",
        "strata_summary.json":
            "70e3fad6233588c276ad815686edef70d9ac8f8558a0b5d972eae13ee900ee01",
    },
    "ldt": {
        "ldt_arcs.csv":
            "7006aa2ee509f96a337497fbc14961b2c8c322309c702de47e0dca285fd9d765",
        "resonance_scan.csv":
            "8ef2643465b091ee64c3d8a6329fa281d5e4203a342a8799f4a8deb8b6021473",
        "ldt_geometry_0.json":
            "f8e4b4d3fde36bbe85bf197168f1c275b8af52bcee6d2025a0712de487093f2d",
        "ldt_geometry_1.json":
            "9d0745beae8a2b264242dc2fabc78fb441e9c34cbd09af327cceaaab273f0ca6",
    },
    "localize": {
        "localize_summary.csv":
            "796bf704242ac5b0be0a4c91f82aad8c7f50b78f6854f76203c0c3da650fe04e",
        "decay_profiles.csv":
            "c7a86e76e8e8fd0cc8790a77e4d7b742ecda3d5a9eecaa98799306649f8316d9",
    },
}

TASKS = {
    "lyapunov": ["lyapunov[all]"],
    "acceleration": ["acceleration[all]"],
    "zeros": [f"zeros[E={E},n={n}]" for E in (0.5, 1.5) for n in (50, 100)],
    "verify-acc-zeros": ["verify[E=0.5]", "verify[E=1.5]"],
    "green": ["green[suite]"],
    "riesz": ["riesz[E=0.5]", "riesz[E=1.5]"],
    "ids": ["ids[E=0.5]", "ids[E=1.5]"],
    "holder": ["holder[E0=0.5]", "holder[E0=1.5]"],
    "strata": ["strata[all]"],
    "ldt": ["ldt[E=0.5]", "ldt[E=1.5]"],
    "localize": ["localize[all]"],
}

# the one task that does not end "ok": E = 1.5 sits in a gap, where the
# acceleration window has a slope break
SKIPPED = {"verify[E=1.5]"}


@pytest.mark.parametrize("subcommand", sorted(PINNED))
def test_outputs_match_pinned_hashes(subcommand, tmp_path):
    man = run(subcommand, config=dict(_C12_CONFIG), out_dir=str(tmp_path),
              threads=1)
    assert [t["key"] for t in man.tasks] == TASKS[subcommand]
    assert [t["status"] for t in man.tasks] == [
        "skipped" if t["key"] in SKIPPED else "ok" for t in man.tasks]
    assert list(man.files) == list(PINNED[subcommand])
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        list(man.files) + ["manifest.json"])
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in man.files}
    assert got == PINNED[subcommand]


# the default config (about 5 s for the eleven, 2 s of it riesz)
PINNED_DEFAULT = {
    "lyapunov": {
        "lyapunov.csv":
            "75ab36cac333c95ecec8aa6ab954d93574b568c50d6ff57d0a7d957b00583a24",
    },
    "acceleration": {
        "acceleration.csv":
            "de8ba3b8d8802467b200cb2d1d621fa2d124eec9996e7cff7250532ca2560fea",
        "accel_curve.csv":
            "d603733fa216b68a26e897308ab72295a7cb7ac7319e8032343f089f53eb362c",
        "accel_segments.csv":
            "334b22d294ea52ad5bf8fde4eae3ae8b93693ece74761a5dfe8cb390f12e699d",
    },
    "strata": {
        "strata.csv":
            "0a1b1295c7a58e71408955e9ee607f3d272094728e875ee2d7da4ab1f885da2b",
    },
    "zeros": {
        "zeros.csv":
            "8dfb397c332376d716fc00b004333bf2d8013728c9a1a08fd03448fce6ccb0b5",
        "zero_counts.csv":
            "32fa6514c58e96df7db3c8cf8b89d9a253f13bb247edd0f79c048708387b01cf",
    },
    "verify-acc-zeros": {
        "verify_acc_zeros.csv":
            "8ae27c6e15cd83e4b3ec40294e83cac6a997240746fd05fd3148ec35904e889d",
    },
    "green": {
        "green_suite.csv":
            "9d7eafb2d96e622e8f2b01321a94bc93331b9856dfbd02533c72dcd43ce7ffd5",
    },
    "ids": {
        "ids.csv":
            "95680a8fc4817ad1367d890c651a95e69b97cce3e76c6924e046295c47d45243",
    },
    "holder": {
        "holder.csv":
            "5cdef4ae8f150c8d8b3ede438e47575294cdc73aa40422c60c91870b919284fa",
    },
    "ldt": {
        "ldt_arcs.csv":
            "7006aa2ee509f96a337497fbc14961b2c8c322309c702de47e0dca285fd9d765",
        "resonance_scan.csv":
            "8d618c2ab5dd4fc7c63a678552bf241042a15003aefb4e79a36f6cb04f8061a9",
        "ldt_geometry_0.json":
            "3f22e6899a0d39f2b433a358cdb6c4d0774665a241a94c9a30d8a8440683a9db",
    },
    "riesz": {
        "riesz.csv":
            "e6770da054461a645abc1e817d8d5cc744f53c36350729fb13b8a179b4fcc9eb",
    },
    "localize": {
        "localize_summary.csv":
            "796bf704242ac5b0be0a4c91f82aad8c7f50b78f6854f76203c0c3da650fe04e",
        "decay_profiles.csv":
            "c7a86e76e8e8fd0cc8790a77e4d7b742ecda3d5a9eecaa98799306649f8316d9",
    },
}

TASKS_DEFAULT = {
    "lyapunov": ["lyapunov[all]"],
    "acceleration": ["acceleration[all]"],
    "strata": ["strata[all]"],
    "zeros": [f"zeros[E=0.5,n={n}]" for n in (100, 200, 400)],
    "verify-acc-zeros": ["verify[E=0.5]"],
    "green": ["green[suite]"],
    "ids": ["ids[E=0.5]"],
    "holder": ["holder[E0=0.5]"],
    "ldt": ["ldt[E=0.5]"],
    "riesz": ["riesz[E=0.5]"],
    "localize": ["localize[all]"],
}


@pytest.mark.parametrize("subcommand", sorted(PINNED_DEFAULT))
def test_default_outputs_match_pinned_hashes(subcommand, tmp_path):
    man = run(subcommand, config={}, out_dir=str(tmp_path), threads=1)
    assert [t["key"] for t in man.tasks] == TASKS_DEFAULT[subcommand]
    assert [t["status"] for t in man.tasks] == ["ok"] * len(man.tasks)
    assert list(man.files) == list(PINNED_DEFAULT[subcommand])
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in man.files}
    assert got == PINNED_DEFAULT[subcommand]
