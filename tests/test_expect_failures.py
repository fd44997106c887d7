import importlib.util
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "expect_failures.py"
_spec = importlib.util.spec_from_file_location("expect_failures", _SCRIPT)
expect_failures = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(expect_failures)

_REPORT = """<?xml version="1.0" encoding="utf-8"?>
<testsuites><testsuite name="pytest" errors="1" failures="1" tests="4">
<testcase classname="tests.test_a" name="test_passes" time="0.1" />
<testcase classname="tests.test_a" name="test_known" time="0.1"><failure message="x" /></testcase>
<testcase classname="tests.test_a" name="test_skipped" time="0.0"><skipped message="s" /></testcase>
{extra}
</testsuite></testsuites>
"""


def _report(tmp_path, extra=""):
    path = tmp_path / "report.xml"
    path.write_text(_REPORT.format(extra=extra))
    return str(path)


def test_passes_only_on_exactly_the_expected_failures(tmp_path, capsys):
    report = _report(tmp_path)
    assert expect_failures.failing(report) == {"test_known"}
    assert expect_failures.main([report, "test_known"]) == 0
    assert expect_failures.main([report]) == 1
    assert "unexpected failure: test_known" in capsys.readouterr().out
    assert expect_failures.main([report, "test_known", "test_passes"]) == 1
    assert "did not: test_passes" in capsys.readouterr().out
    assert expect_failures.main([]) == 2


def test_a_collection_error_is_a_failure(tmp_path):
    # pytest reports a module it cannot import as a case holding <error>
    report = _report(tmp_path, '<testcase classname="" name="tests.test_b"><error message="e" /></testcase>')
    assert expect_failures.failing(report) == {"test_known", "tests.test_b"}
    assert expect_failures.main([report, "test_known"]) == 1
