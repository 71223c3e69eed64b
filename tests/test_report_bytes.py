"""Pin the bytes the CLI prints.

Each invocation runs in a fresh interpreter under several ``PYTHONHASHSEED``
values.  Its stdout and exit code must not depend on the hash seed, and the
stdout's sha256 must equal the digest recorded here.  ``STATUS_CASES`` pin,
in process, small reports that reach every record status of the sampled
modes.  A refactor that keeps reports byte-identical leaves this file alone;
a change that alters a report on purpose re-records the digest
(``python tests/test_report_bytes.py`` prints the current ones, both kinds)
and says why.
"""

import hashlib
import os
import subprocess
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack
from pathlib import Path
from unittest import mock

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
HASH_SEEDS = ("0", "1", "2")
PENTAGON = ["--vertices", "a,b,c,d,e", "--edges", "a-b,b-c,c-d,d-e,e-a"]
# a triangle a-b-c with a pendant edge c-d
TRIANGLE4 = ["--vertices", "a,b,c,d", "--edges", "a-b,b-c,a-c,c-d"]
PENTAGON_WORD = "a^2 c b^-1 d a^-1 e^2 c^-1 b^3 d e^-1 a"
TRIANGLE4_WORD = "a b c d a^-1 c^2 b d^-1 a"

# name -> (CLI arguments, expected exit code, sha256 of stdout)
CASES = {
    "support-graph-pentagon": (
        ["support-graph", *PENTAGON],
        0,
        "0724fde84cbf3bd038df9decada3f8ec47e4fe8d2282b82e639daff6c7e6f64a",
    ),
    "normal-form-pentagon": (
        ["normal-form", *PENTAGON, PENTAGON_WORD],
        0,
        "91dc089ab711a6217b271dadecdb2012734019db951bf8b0daa34bc88d65fe72",
    ),
    "syl-order-pentagon": (
        ["syl-order", *PENTAGON, PENTAGON_WORD],
        0,
        "0b1a6ebe7a59e3a6ccf530f51bc405cc33ffec89f2aab9be794d89799ddbb2cf",
    ),
    "normal-form-triangle4": (
        ["normal-form", *TRIANGLE4, TRIANGLE4_WORD],
        0,
        "aae1a378a77929b9dd1b2d73b6a7ba08b62a72bee4bec561baf118321918c761",
    ),
    "syl-order-triangle4": (
        ["syl-order", *TRIANGLE4, TRIANGLE4_WORD],
        0,
        "a02e16c3109dde9270182e20d4567523a65dccd1afed2947bbe377fd19b78be3",
    ),
    "fold": (
        ["fold", "--letters", "a,b,c", "a b a^-1 c, b b c^-1, c a c"],
        0,
        "e49e720281bf78c2103df78b94ea8c9206ff4587db50bc83ff3d147f9b89c6ee",
    ),
    "intersect": (
        ["intersect", "--letters", "a,b,c", "a b, c a c^-1, b b", "a, b c b^-1, b b b"],
        0,
        "2d3795fbed6a91f55ae753bb0a29b88e0e797e298f1cc7e68f6cc4adf281b406",
    ),
    "project": (
        ["project", "--letters", "a,b,c", "--factor", "a,b", "--marking", "a a b, a b, c"],
        0,
        "eaa406143c31df98a5a4757646e755921da5816f4e6a4032f5fe2832c641a50e",
    ),
    "meet": (
        ["meet", "--letters", "a,b,c", "a,b", "a, b c"],
        0,
        "a008b475fcc19025c8ea132b77da9176e0fea1d5d7eef104992039453706180e",
    ),
    "run-behrstock-scan": (
        ["run", "--mode", "behrstock-scan", "--samples", "3", "--seed", "1"],
        0,
        "ca19cbee6ed8bc220de86e481d0e19b26543586f1611b181b1ec0994207f64bb",
    ),
    "run-behrstock-scan-pentagon-support-f6": (
        ["run", "--mode", "behrstock-scan", "--fixture", "pentagon-support-f6", "--samples", "3",
         "--seed", "2"],
        0,
        "4496af1f0661d741666a657ac6d8ea8c7c68efe94f9474892ce26490668eaee8",
    ),
    "run-behrstock-scan-overlap-chain-f3": (
        ["run", "--mode", "behrstock-scan", "--fixture", "overlap-chain-f3", "--samples", "3",
         "--seed", "2"],
        0,
        "93a6aabb309e371f6e113a05f3626002ac095a6be32264e06d08a2e2ee792f66",
    ),
    "run-order-audit-pentagon": (
        ["run", "--mode", "order-audit", "--fixture", "pentagon-f5", "--samples", "3", "--seed", "1"],
        0,
        "320f209ef18d1d2a5afd5e64e0f140834a1114c9f838c32b1b64fc758363967a",
    ),
    "run-order-audit": (
        ["run", "--mode", "order-audit", "--fixture", "overlap-chain-f3", "--samples", "3", "--seed", "1"],
        0,
        "57167baec5bd0537541f915bd71a10bcbebf5eabc0a913e3886ae143a90ca519",
    ),
    # acceptance criterion 6's audit
    "run-order-audit-overlap-chain-f3-100": (
        ["run", "--mode", "order-audit", "--fixture", "overlap-chain-f3", "--samples", "100",
         "--seed", "6"],
        0,
        "c50ad46737f3df8362fef9bb82a13f66852d4ef76e7a5606e453c8e6e620fed2",
    ),
    "run-farey-crosscheck": (
        ["run", "--mode", "farey-crosscheck", "--samples", "3", "--seed", "1"],
        0,
        "2b8af9481c0e206e46348957f5ac92e3c37d7d2832bf6fb1cdb15d0ab67c32d7",
    ),
    "run-qie-sandwich": (
        ["run", "--mode", "qie-sandwich", "--samples", "3", "--seed", "1"],
        0,
        "0d1667d9229211dec6a8c6925c6aa2c8a0ec59e1efe9c5b33442881db6aa7d63",
    ),
    "run-theorem9-check": (
        ["run", "--mode", "theorem9-check", "--samples", "2", "--seed", "1"],
        3,
        "f04c7308f6eca03e808d8037f30f845a5d6577fbd8944386d9a4526577d7877c",
    ),
    # p = 2: two samples fit the exponent budget, so their products are built
    "run-theorem9-check-power-2": (
        ["run", "--mode", "theorem9-check", "--power", "2", "--samples", "5", "--seed", "1"],
        1,
        "d494f5d826f0ffe1846827651b176b5746f1cba90e1b29b45e7f39985d97d06b",
    ),
    "verify-system-pentagon": (
        ["verify-system", "pentagon-f5"],
        0,
        "969e0457828b79bcc2cdc0a0a32e5c9c6b8a84ba6887f9cf51827cee4eb4b3ac",
    ),
    "verify-system-pentagon-support-f6": (
        ["verify-system", "pentagon-support-f6"],
        0,
        "c09cbafd53e4b9141c56ebbe80038e2db18efb483088d9673d29a69adb25d1c2",
    ),
    "dist": (
        ["dist", "--letters", "a,b,c", "--factor", "a,b", "--marking", "a a b, a b, c",
         "--marking2", "b, a c, c"],
        0,
        "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3",
    ),
}


def _run(args, hash_seed):
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-m", "freefactor.cli", *args],
        env=env,
        capture_output=True,
        timeout=120,
    )
    return proc.returncode, proc.stdout


def _run_all_seeds(args):
    with ThreadPoolExecutor(max_workers=2) as pool:
        return list(pool.map(lambda seed: _run(args, seed), HASH_SEEDS))


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes_pinned(name):
    args, exit_code, digest = CASES[name]
    results = _run_all_seeds(args)
    assert len(set(results)) == 1, f"{name}: output depends on PYTHONHASHSEED"
    code, out = results[0]
    assert code == exit_code, out.decode(errors="replace")
    assert hashlib.sha256(out).hexdigest() == digest


# report modes that read what a loaded fixture keeps (its factor shadows)
IN_PROCESS = ("run-behrstock-scan", "run-order-audit-pentagon", "run-order-audit", "run-theorem9-check-power-2")


@pytest.mark.parametrize("name", IN_PROCESS)
def test_report_bytes_repeat_in_process(name):
    """Two runs in one process print the same bytes as each other and as a
    fresh interpreter, whose output ``test_report_bytes_pinned`` checks
    against the same digest; the second run reads the cached shadows."""
    from click.testing import CliRunner

    from freefactor.cli import main

    args, exit_code, digest = CASES[name]
    first, second = (CliRunner().invoke(main, args) for _ in range(2))
    assert first.stdout_bytes == second.stdout_bytes
    assert first.exit_code == second.exit_code == exit_code
    assert hashlib.sha256(second.stdout_bytes).hexdigest() == digest


def _swap_first_two_maps(system):
    """The pentagon system with f_0 and f_1 exchanged: f_1 commutes with A_0
    and fixes its projection, so some pairs are barely pushed apart."""
    from freefactor import systems as sy

    maps = (system.maps[1], system.maps[0]) + system.maps[2:]
    return sy.AdmissibleSystem(system.collection, maps, system.power, system.restriction_hyperbolic)


def _disjoint_pair_called_overlapping(system):
    """The pentagon system with its first disjoint pair classified as
    overlapping: its factors do not meet, so it has no factor shadows."""
    from freefactor import systems as sy

    coll = system.collection
    pair = next((i, j) for i, j, kind in coll.classifications if kind == "disjoint")
    relabelled = tuple(
        (i, j, "overlap" if (i, j) == pair else kind) for i, j, kind in coll.classifications
    )
    collection = sy.AdmissibleCollection(coll.names, coll.factors, coll.gamma, relabelled)
    return sy.AdmissibleSystem(collection, system.maps, system.power, system.restriction_hyperbolic)


# In-process pentagon-f5 reports that reach every record status a sampled mode
# can emit.  ``M`` and ``L`` replace the measured constants (``measure_m_emp``
# and ``measure_l_path``) so the push powers stay small; ``system`` rebuilds
# the loaded fixture.
# name -> (config, replacements, record statuses, violation count, sha256 of the report)
STATUS_CASES = {
    # K = 2M + 1 = 15 puts the push power over the exponent budget
    "order-audit-power-insufficient": (
        dict(mode="order-audit", samples=3, seed=1), dict(M=7),
        {"power-insufficient": 3}, 0,
        "01ece883cc0bad368f1ddffe65cc4224fcfe460d4b3a215ed842e77bd4c0da17",
    ),
    # with M = 0 no shadow is near: every checked sample fails a check
    "order-audit-failing-check": (
        dict(mode="order-audit", samples=4, seed=1), dict(M=0),
        {"checked": 4}, 4,
        "dc26ac3a483e7a85fb3ebd912ba2de4201528a7a44139a304b2df28e99d0b191",
    ),
    "order-audit-pair-degenerate": (
        dict(mode="order-audit", samples=6, seed=3), dict(M=1, system=_disjoint_pair_called_overlapping),
        {"pair-degenerate": 1, "checked": 5}, 1,
        "0ed92a526a793facf1cf790c300fd11739a3275d4c71783d02390ea5a0d16113",
    ),
    "order-audit-precondition-unmet": (
        dict(mode="order-audit", samples=6, seed=1), dict(M=1, system=_swap_first_two_maps),
        {"precondition-unmet": 2, "checked": 4}, 0,
        "183dd910a8f5dd827bde2e82e7eb0234a9a52acefcb540aa146d29e2ad410aa3",
    ),
    # K = 5M + 3L = 18 puts the push power K + 1 over the exponent budget
    "interval-check-power-insufficient": (
        dict(mode="interval-check", samples=3, seed=1), dict(M=3, L=1),
        {"power-insufficient": 3}, 0,
        "7fcd18a84f05e6a8819ee2226c8ce555b1aa8b882971d97ea1c5b5ae2f81112b",
    ),
    "interval-check-threshold-unmet": (
        dict(mode="interval-check", samples=6, seed=1), dict(M=0, L=1, system=_swap_first_two_maps),
        {"threshold-unmet": 2, "checked": 4}, 2,
        "25c76cf4dfa6896f253ff8bad70d669d56847d4a9b9ff15e7874a66855ae9911",
    ),
    # the fourth word of seed 4 normalizes to the identity
    "theorem9-check-empty-word": (
        dict(mode="theorem9-check", samples=4, seed=4), {},
        {"empty-word": 1, "power-insufficient": 3}, 0,
        "dd130e634393415d67b2f56d9cb81f8d1c4a83e103a4fc11836ec9db8bf88622",
    ),
    "theorem9-check-empty-word-power-1": (
        dict(mode="theorem9-check", samples=4, seed=4, power=1), {},
        {"empty-word": 1, "checked": 3}, 3,
        "0adb9c80649ec16dc8285879ba86c7087306efa342595fc44e9254254bb266d1",
    ),
}


def _status_report(config, replacements):
    """The canonical report of one run with its replacements in place."""
    from freefactor import experiments as ex, serialize as se

    with ExitStack() as stack:
        if "M" in replacements:
            stack.enter_context(mock.patch.object(ex, "measure_m_emp", lambda *_: replacements["M"]))
        if "L" in replacements:
            stack.enter_context(mock.patch.object(ex, "measure_l_path", lambda *_: replacements["L"]))
        if "system" in replacements:
            load = se.load_fixture
            rebuilt = lambda name: replacements["system"](load(name))  # noqa: E731
            stack.enter_context(mock.patch.object(se, "load_fixture", rebuilt))
        report = ex.run_experiment(ex.ExperimentConfig(fixture="pentagon-f5", **config))
    return report, se.canonical_dumps(report).encode()


@pytest.mark.parametrize("name", sorted(STATUS_CASES))
def test_status_report_pinned(name):
    config, replacements, statuses, violations, digest = STATUS_CASES[name]
    report, out = _status_report(config, replacements)
    assert Counter(rec["status"] for rec in report["records"]) == statuses
    assert len(report["violations"]) == violations
    assert hashlib.sha256(out).hexdigest() == digest


# the interval-check report of acceptance criterion 8, whose paths fold the
# longest labels any report builds
CRITERION8_INTERVALS = (
    dict(mode="interval-check", fixture="pentagon-f5", samples=20, seed=8),
    "9a161dda1d1636a5fbbd4b9469ac453f73ad55e74fc747dcdfbc974449067aeb",
)


def test_criterion8_interval_report_pinned():
    from freefactor import experiments as ex, serialize as se

    config, digest = CRITERION8_INTERVALS
    report = ex.run_experiment(ex.ExperimentConfig(**config))
    assert report["verdict"] == "pass"
    assert hashlib.sha256(se.canonical_dumps(report).encode()).hexdigest() == digest


if __name__ == "__main__":
    for name in sorted(CASES):
        args, _, _ = CASES[name]
        code, out = _run(args, HASH_SEEDS[0])
        print(f"{name}: exit {code} sha256 {hashlib.sha256(out).hexdigest()}")
    sys.path.insert(0, str(SRC))
    for name in sorted(STATUS_CASES):
        config, replacements, _, _, _ = STATUS_CASES[name]
        _, out = _status_report(config, replacements)
        print(f"{name}: in process sha256 {hashlib.sha256(out).hexdigest()}")
