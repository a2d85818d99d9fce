"""Run the Tier-1 suite and fail on anything but the pinned literature clauses.

The suite runs as ROADMAP.md states it,

    PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q --continue-on-collection-errors

with no test deselected, skipped or marked xfail; only a JUnit XML report is
added, from which the failing and erroring test IDs are read.  The gate
prints the pinned failures and exits 1 if any other test fails or errors
(a module that does not collect is an erroring test) or if pytest ends with
neither "all passed" nor "some failed".

Usage, from anywhere:

    python tools/tier1_gate.py
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# literature claims the program is known not to meet (see ROADMAP.md)
PINNED = frozenset({
    "tests/test_acceptance.py::test_criterion_2_below_window_infeasibility_claim",
    "tests/test_acceptance.py::test_criterion_4_trace_exceeds_baseline_claim",
    "tests/test_acceptance.py::test_criterion_4_window_edge_infeasibility_claim",
})


def _node_id(classname: str, name: str) -> str:
    """pytest's node ID of a JUnit test case: the dotted ``classname`` is the
    module path up to its first ``test_`` part, then the test classes.  A
    collection error has an empty classname and the module in ``name``."""
    if not classname:
        return name.replace(".", "/") + ".py"
    parts = classname.split(".")
    k = next((i for i, p in enumerate(parts) if p.startswith("test_")), len(parts) - 1)
    return "::".join(["/".join(parts[:k + 1]) + ".py", *parts[k + 1:], name])


def failed_ids(junit_xml: str) -> list[str]:
    """The node IDs of the failing and erroring test cases of a JUnit report."""
    return [_node_id(case.get("classname", ""), case.get("name", ""))
            for case in ET.fromstring(junit_xml).iter("testcase")
            if case.find("failure") is not None or case.find("error") is not None]


def classify(junit_xml: str) -> tuple[list[str], list[str]]:
    """(pinned failures, other failures) of a JUnit report."""
    failed = failed_ids(junit_xml)
    return [f for f in failed if f in PINNED], [f for f in failed if f not in PINNED]


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "tier1.xml"
        code = subprocess.call([sys.executable, "-m", "pytest", "-q",
                                "--continue-on-collection-errors", f"--junitxml={report}"],
                               cwd=ROOT, env=env)
        xml = report.read_text(encoding="utf-8") if report.exists() else ""
    if code not in (0, 1) or not xml:
        print(f"tier1-gate: pytest ended with exit code {code}")
        return 1
    pinned, other = classify(xml)
    for test_id in pinned:
        print(f"tier1-gate: pinned failure {test_id}")
    for test_id in other:
        print(f"tier1-gate: FAILED {test_id}")
    return 1 if other else 0


if __name__ == "__main__":
    sys.exit(main())
