"""List the lines of src/hanst that the test suite never executes.

Run from anywhere, with the same arguments pytest takes (default: tests/):

    python tests/line_coverage.py [pytest args]

It installs a sys.settrace hook before hanst is imported, for this thread and
(threading.settrace) every thread started after it, runs pytest in this
interpreter, and prints each line of src/hanst/*.py that has code (as listed by
its code objects' co_lines) but never ran, then the count. __main__.py is
skipped: the suite runs it only in a child interpreter, which the hook cannot
see.

Tracing slows the suite about twofold, so a test that bounds wall time can fail
here on time alone (TIMING_TESTS); such a failure is reported and says nothing
about the code. The exit status is 1 when any line was missed, when any other
test failed, or when pytest could not run the tests; otherwise 0. This file is
not collected by pytest (its name does not start with test_).
"""

import pathlib
import sys
import threading
import types

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hanst"
SKIPPED = {"__main__.py"}
TIMING_TESTS = {
    "tests/test_bounded_prepare.py::TestSegmenterMatchesOracle::test_segments_long_body_in_linear_time",
}

executed: set[tuple[str, int]] = set()


def _trace_lines(frame, event, arg):
    if event == "line":
        executed.add((frame.f_code.co_filename, frame.f_lineno))
    return _trace_lines


def _trace_calls(frame, event, arg):
    filename = frame.f_code.co_filename
    if not filename.startswith(str(PACKAGE)):
        return None
    executed.add((filename, frame.f_lineno))
    return _trace_lines


def code_lines(code: types.CodeType) -> set[int]:
    """Every line that holds an instruction of code or of a code object
    nested in it (functions, classes, comprehensions)."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= code_lines(const)
    return lines


def unexecuted() -> list[tuple[str, int]]:
    missed = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name in SKIPPED:
            continue
        source = path.read_text(encoding="utf-8")
        code = compile(source, str(path), "exec")
        ran = {line for name, line in executed if name == str(path)}
        missed.extend((path.relative_to(ROOT).as_posix(), line)
                      for line in sorted(code_lines(code) - ran))
    return missed


class FailedTests:
    """pytest plugin that collects the node ids of failed tests."""

    def __init__(self):
        self.nodeids: list[str] = []

    def pytest_runtest_logreport(self, report):
        if report.failed:
            self.nodeids.append(report.nodeid)


def main(argv: list[str]) -> int:
    if "hanst" in sys.modules:
        raise SystemExit("hanst was imported before tracing started")
    sys.path.insert(0, str(PACKAGE.parent))
    import pytest

    failed = FailedTests()
    sys.settrace(_trace_calls)
    threading.settrace(_trace_calls)
    try:
        status = pytest.main(argv or [str(ROOT / "tests")], plugins=[failed])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    missed = unexecuted()
    print()
    for path, line in missed:
        print(f"{path}:{line}")
    print(f"{len(missed)} line(s) of src/hanst never executed "
          f"(skipped: {', '.join(sorted(SKIPPED))})")
    for nodeid in failed.nodeids:
        if nodeid in TIMING_TESTS:
            print(f"failed on its time bound, which tracing slows: {nodeid}")
    others = [nodeid for nodeid in failed.nodeids if nodeid not in TIMING_TESTS]
    if others:
        print(f"{len(others)} other test(s) failed; their lines may be missing above")
    ran = status in (pytest.ExitCode.OK, pytest.ExitCode.TESTS_FAILED)
    return 1 if missed or others or not ran else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
