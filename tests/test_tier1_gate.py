import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "tier1_gate.py"
_SPEC = importlib.util.spec_from_file_location("tier1_gate", _PATH)
gate = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(gate)

# the shape pytest writes: a collection error has an empty classname and the
# module in its name; parametrized tests keep their IDs in the name
REPORT = """<?xml version="1.0" encoding="utf-8"?>
<testsuites><testsuite name="pytest" errors="2" failures="3" skipped="1" tests="8">
<testcase classname="" name="tests.test_broken" time="0.000"><error message="collection failure">ImportError</error></testcase>
<testcase classname="tests.test_acceptance" name="test_criterion_2_below_window_infeasibility_claim" time="1.0"><failure message="pinned">AssertionError</failure></testcase>
<testcase classname="tests.test_acceptance" name="test_criterion_4_trace_exceeds_baseline_claim" time="1.0"><failure message="pinned">AssertionError</failure></testcase>
<testcase classname="tests.test_acceptance" name="test_criterion_6_audit" time="1.0" />
<testcase classname="tests.test_cli.TestVerifyCommand" name="test_end_to_end[1.5-2]" time="0.1"><failure message="x">AssertionError</failure></testcase>
<testcase classname="tests.test_verify" name="test_fixture" time="0.1"><error message="fixture">RuntimeError</error></testcase>
<testcase classname="tests.test_verify.TestSimulate" name="test_ok" time="0.1" />
<testcase classname="tests.test_verify" name="test_skipped" time="0.0"><skipped message="no data" /></testcase>
</testsuite></testsuites>
"""


def test_node_ids():
    assert gate.failed_ids(REPORT) == [
        "tests/test_broken.py",
        "tests/test_acceptance.py::test_criterion_2_below_window_infeasibility_claim",
        "tests/test_acceptance.py::test_criterion_4_trace_exceeds_baseline_claim",
        "tests/test_cli.py::TestVerifyCommand::test_end_to_end[1.5-2]",
        "tests/test_verify.py::test_fixture",
    ]


def test_classification():
    pinned, other = gate.classify(REPORT)
    assert pinned == [
        "tests/test_acceptance.py::test_criterion_2_below_window_infeasibility_claim",
        "tests/test_acceptance.py::test_criterion_4_trace_exceeds_baseline_claim",
    ]
    assert other == [
        "tests/test_broken.py",
        "tests/test_cli.py::TestVerifyCommand::test_end_to_end[1.5-2]",
        "tests/test_verify.py::test_fixture",
    ]


def test_pinned_only_report_passes():
    pinned_only = "<testsuite>" + "".join(
        f'<testcase classname="tests.test_acceptance" name="{test_id.split("::")[1]}">'
        "<failure /></testcase>" for test_id in sorted(gate.PINNED)) + "</testsuite>"
    pinned, other = gate.classify(pinned_only)
    assert sorted(pinned) == sorted(gate.PINNED)
    assert other == []
