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
            "ba283fd54fc0542c2dc6c87708ffeafa43f09d11c747b651b7cf8c8ee8047aba",
        "zero_counts.csv":
            "dcc1d0b35abab63d699605468d8d9fc01b087271593f1935a3c9c1974f537088",
    },
    "verify-acc-zeros": {
        "verify_acc_zeros.csv":
            "1bf679f57d81f69d6e2b21e17429c05f5dcf74de6c9f73ba5e6753bfc0f514dc",
    },
    "green": {
        "green_suite.csv":
            "9d359963dd2a12240bb70d1d0be0e35a92634c9e09123afaec183e9accc87400",
    },
    "riesz": {
        "riesz.csv":
            "6b6baeaa823c7e73dc0a0bf976ceea0dfefe058253893653ebb118885bae8b87",
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
            "6985bc7536cda78c9e471a697fa9a765c6e2be96c0063a2e96fa914599f909b3",
        "ldt_geometry_0.json":
            "73d734ba952da4b8ff899befb9fd1cbda35c7a2215f183edbdeb4cd85c862cb3",
        "ldt_geometry_1.json":
            "2b69373d58bcfde01cd65af678371423e7e8f346afe6dde280c577b633db046d",
    },
    "localize": {
        "localize_summary.csv":
            "b5945a9e79a4418eb4caaf4965eb88480e82073ec9f4a729a566506f3c423fc9",
        "decay_profiles.csv":
            "710121b609ad70591f2f3e142c1690f852b7037b5b557814c20da643ba0c0010",
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
            "10882d7a9521b296d479fe409f15d9e46dcd2f275c7614f731b18bf26db8b930",
        "accel_curve.csv":
            "d603733fa216b68a26e897308ab72295a7cb7ac7319e8032343f089f53eb362c",
        "accel_segments.csv":
            "e2630762e654ac829f17274a9fb2ee4e6339ca1ae0983b13adac871b82767e3f",
    },
    "strata": {
        "strata.csv":
            "181663a1067d3660c60d26a375792daefb527f76b0c224dfdcff0b81b2158cdb",
    },
    "zeros": {
        "zeros.csv":
            "356ec175068e676b8f011972f7147e096b70780ecaddaca9bf1a260e6a625214",
        "zero_counts.csv":
            "32fa6514c58e96df7db3c8cf8b89d9a253f13bb247edd0f79c048708387b01cf",
    },
    "verify-acc-zeros": {
        "verify_acc_zeros.csv":
            "8ae27c6e15cd83e4b3ec40294e83cac6a997240746fd05fd3148ec35904e889d",
    },
    "green": {
        "green_suite.csv":
            "8a9c5a61abf87d544d25a411676926b8785d2f74999b47c6447da886a088cc0d",
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
            "902664860dcab2a8baec61f89ec2d486ee85bb4ddc67e5fd00de6db76f78727c",
        "ldt_geometry_0.json":
            "3f22e6899a0d39f2b433a358cdb6c4d0774665a241a94c9a30d8a8440683a9db",
    },
    "riesz": {
        "riesz.csv":
            "8e00851710c2fa2ef01b5084afe3f45ff8b7d76a74ad3154f3bb0060ff4e138d",
    },
    "localize": {
        "localize_summary.csv":
            "09cdacd0cc8960982150acb1d4d11efb50c2e2ddb3c8beb47b071b0c9e0a65de",
        "decay_profiles.csv":
            "5e5fcd6e5fc7f018e0fdc706b040fe4e6f053f0dafc18105ebb3d6a92ebb6e62",
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
