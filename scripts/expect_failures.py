#!/usr/bin/env python3
"""Check that the failing tests of a pytest run are exactly the expected ones.

    python3 scripts/expect_failures.py REPORT.xml [TEST_ID ...]

REPORT.xml is the file `pytest --junitxml=REPORT.xml` writes. A test case
fails when it holds a <failure> or an <error>; pytest reports a collection
error as such a case too. A test's id is `<classname>::<name>` from the
report (`tests.test_acceptance::test_criterion_7_marking_characterization`),
so a same-named test in another module has another id; a case with no
classname, such as a collection error, is its name alone. Exits 0 when the
failing ids are exactly the given ones, and otherwise prints each unexpected
failure and each expected failure that did not fail, and exits 1.
"""
from __future__ import annotations

import sys
import xml.etree.ElementTree as ET


def failing(report: str) -> set[str]:
    """Ids of the failing test cases in a junit XML report."""
    return {"::".join(filter(None, (case.get("classname"), case.get("name", ""))))
            for case in ET.parse(report).iter("testcase")
            if case.find("failure") is not None or case.find("error") is not None}


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    report, *want = argv
    got = failing(report)
    for name in sorted(got - set(want)):
        print(f"unexpected failure: {name}")
    for name in sorted(set(want) - got):
        print(f"expected to fail but did not: {name}")
    return 0 if got == set(want) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
