"""Line coverage of `src/tworelay/` from the standard library alone.

    PYTHONPATH=src:tests python -m pytest -p line_coverage

Tracing starts when pytest imports this plugin, before `tests/conftest.py`
imports tworelay, so the module bodies are traced too.  `sys.settrace`
covers the main thread and `threading.settrace` every thread started after
it (the simulator's batch workers).  At the end of the session the report
lists, per module, the lines compiled into its code objects (`co_lines`)
that no test ran.  Code run in a subprocess (the CLI process tests, the
demos) is not traced, so its lines are listed as not run.  The report is a
gate for a run of the whole suite: where a line other than those of
`_ALLOWED` goes unrun, a session that passed ends with exit status 1.
"""

from __future__ import annotations

import os
import sys
import threading
from pathlib import Path
from types import CodeType

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_PACKAGE = _ROOT / "src" / "tworelay"

#: Lines run per traced file name; None for a file outside the package.
_ran: dict[str, set[int] | None] = {}

#: Source text, per module, of the lines that may go unrun: the CLI's `__main__`
#: exit runs only in the subprocess tests.
_ALLOWED = {"cli.py": {"sys.exit(run())"}}

#: The report, formed at the end of the session.
_report: list[str] = []


def _ran_in(filename: str) -> set[int] | None:
    try:
        return _ran[filename]
    except KeyError:
        inside = Path(os.path.realpath(filename)).parent == _PACKAGE
        ran = _ran[filename] = set() if inside else None
        return ran


def _line(frame, event, arg):
    if event == "line":
        _ran[frame.f_code.co_filename].add(frame.f_lineno)
    return _line


def _call(frame, event, arg):
    ran = _ran_in(frame.f_code.co_filename)
    if ran is None:
        return None
    ran.add(frame.f_lineno)
    return _line


sys.settrace(_call)
threading.settrace(_call)


def _code_lines(code: CodeType) -> set[int]:
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, CodeType):
            lines |= _code_lines(const)
    return lines


def _spans(lines: list[int]) -> str:
    """1, 2, 3, 7 as '1-3, 7'."""
    spans, start = [], lines[0]
    for prev, line in zip(lines, lines[1:] + [None]):
        if line != prev + 1:
            spans.append(str(start) if start == prev else f"{start}-{prev}")
            start = line
    return ", ".join(spans)


def pytest_sessionfinish(session):
    sys.settrace(None)
    threading.settrace(None)
    ran: dict[Path, set[int]] = {}
    for filename, lines in _ran.items():
        if lines is not None:
            ran.setdefault(Path(os.path.realpath(filename)), set()).update(lines)
    total = unexpected = 0
    for path in sorted(_PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        compiled = _code_lines(compile(source, str(path), "exec"))
        missed = sorted(compiled - ran.get(path, set()))
        allowed, text = _ALLOWED.get(path.name, ()), dict(enumerate(source.splitlines(), 1))
        unexpected += sum(text.get(line, "").strip() not in allowed for line in missed)
        total += len(missed)
        if missed:
            _report.append(f"{path.relative_to(_ROOT)}: {len(missed)} of "
                           f"{len(compiled)} lines: {_spans(missed)}")
    _report.append(f"{total} lines not run, {unexpected} of them not allowed")
    if unexpected and session.exitstatus == pytest.ExitCode.OK:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter):
    terminalreporter.section("lines of src/tworelay no test ran")
    for line in _report:
        terminalreporter.line(line)
