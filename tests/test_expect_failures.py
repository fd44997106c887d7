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
    known = "tests.test_a::test_known"
    assert expect_failures.failing(report) == {known}
    assert expect_failures.main([report, known]) == 0
    assert expect_failures.main([report]) == 1
    assert f"unexpected failure: {known}" in capsys.readouterr().out
    assert expect_failures.main([report, known, "tests.test_a::test_passes"]) == 1
    assert "did not: tests.test_a::test_passes" in capsys.readouterr().out
    assert expect_failures.main([]) == 2


def test_a_same_named_failure_in_another_module_is_unexpected(tmp_path, capsys):
    # the known failure passes and a test of the same name in another module
    # fails: only the module-qualified id tells the two apart
    path = tmp_path / "report.xml"
    path.write_text('''<?xml version="1.0" encoding="utf-8"?>
<testsuites><testsuite name="pytest" errors="0" failures="1" tests="2">
<testcase classname="tests.test_a" name="test_known" time="0.1" />
<testcase classname="tests.test_b" name="test_known" time="0.1"><failure message="y" /></testcase>
</testsuite></testsuites>
''')
    assert expect_failures.failing(str(path)) == {"tests.test_b::test_known"}
    assert expect_failures.main([str(path), "tests.test_a::test_known"]) == 1
    out = capsys.readouterr().out
    assert "unexpected failure: tests.test_b::test_known" in out
    assert "did not: tests.test_a::test_known" in out


def test_a_collection_error_is_a_failure(tmp_path):
    # pytest reports a module it cannot import as a case holding <error>
    report = _report(tmp_path, '<testcase classname="" name="tests.test_b"><error message="e" /></testcase>')
    assert expect_failures.failing(report) == {"tests.test_a::test_known", "tests.test_b"}
    assert expect_failures.main([report, "tests.test_a::test_known"]) == 1
