"""A stdlib line tracer for the test suite: every statement of src/omloq runs, or is listed.

Load it as a pytest plugin; it is not part of the default run, since tracing makes the
suite several times slower:

    PYTHONPATH=src:tests python -m pytest -q -p line_trace

Run it on the whole suite: a run of some test files leaves most statements unreached.

It records the lines that run in ``src/omloq/*.py`` (``sys.settrace`` and
``threading.settrace``; code run in a subprocess is not traced) and checks every
statement inside a function body against ``tests/unreached_lines.txt``.  Docstrings and
``global``/``nonlocal`` declarations emit no line event and are not statements here.
A statement counts as reached when a line event falls on one of its own lines: its span
less the spans of the statements nested in it.  The session fails on an unreached
statement that the list does not name, and on a listed one that now runs, so the list
can only shrink.

Each entry of the list names a statement by its file and the text of its first line,
not by line number, so an edit elsewhere in the file keeps it valid; a second line,
indented, gives the reason the statement never runs.  Text that occurs more than once
in a file needs one entry per unreached occurrence.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "omloq"
LIST = Path(__file__).resolve().parent / "unreached_lines.txt"


def statements(source: str):
    """(first line, own lines) of each statement inside a function body."""
    tree = ast.parse(source)
    out = []

    def own_lines(node):
        start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        lines = set(range(start, node.end_lineno + 1))
        for child in ast.walk(node):
            if child is not node and isinstance(child, ast.stmt):
                lines -= set(range(child.lineno, child.end_lineno + 1))
        return lines

    def visit(body, in_function):
        for i, node in enumerate(body):
            docstring = (i == 0 and isinstance(node, ast.Expr)
                         and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str))
            if in_function and not docstring and not isinstance(node, (ast.Global, ast.Nonlocal)):
                out.append((node.lineno, own_lines(node)))
            inner = in_function or isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            for field in ("body", "orelse", "finalbody"):
                visit(getattr(node, field, ()), inner)
            for handler in getattr(node, "handlers", ()):
                visit(handler.body, inner)
            for case in getattr(node, "cases", ()):
                visit(case.body, inner)

    visit(tree.body, False)
    return out


def read_list(path: Path = LIST) -> Counter:
    """(file, text) -> count of listed entries; every entry must carry a reason."""
    entries: Counter = Counter()
    key, reason = None, ""
    for raw in path.read_text(encoding="utf-8").splitlines() + [""]:
        if raw.startswith((" ", "\t")) and key is not None:
            reason += raw.strip()
            continue
        if key is not None:
            if not reason:
                raise ValueError(f"{path.name}: entry {key} has no reason")
            entries[key] += 1
            key, reason = None, ""
        if raw.strip() and not raw.startswith("#"):
            name, sep, text = raw.partition(": ")
            if not sep:
                raise ValueError(f"{path.name}: expected 'file.py: source text', got {raw!r}")
            key = (name, text.strip())
    return entries


class LineTrace:
    def __init__(self, root: Path = SRC):
        self.root = str(root)
        self.reached: dict[str, set[int]] = {}  # file -> the lines that ran
        self.skip: set = set()  # code objects outside the package, or with every line seen
        self.tracers: dict = {}  # code object -> its local trace function
        self.new: list[str] = []  # both set from compare when the session ends
        self.ran: list[str] = []

    def _local(self, code):
        """A local trace function for code: records its lines, and once each line that
        carries bytecode has run, adds code to ``skip`` when a frame of it returns."""
        path = os.path.abspath(code.co_filename)
        add = self.reached.setdefault(path, set()).add
        remaining = {line for _, _, line in code.co_lines() if line is not None} - {code.co_firstlineno}
        discard, skip = remaining.discard, self.skip

        def trace(frame, event, arg):
            if event == "line":
                line = frame.f_lineno
                add(line)
                discard(line)
            elif event == "return" and not remaining:
                skip.add(code)
            return trace

        return trace

    def global_trace(self, frame, event, arg):
        code = frame.f_code
        if code in self.skip:
            return None
        tracer = self.tracers.get(code)
        if tracer is None:
            if not os.path.abspath(code.co_filename).startswith(self.root):
                self.skip.add(code)
                return None
            tracer = self.tracers[code] = self._local(code)
        return tracer

    def start(self):
        threading.settrace(self.global_trace)
        sys.settrace(self.global_trace)

    def stop(self):
        sys.settrace(None)
        threading.settrace(None)

    def unreached(self) -> list[tuple[str, int, str]]:
        """(file name, line, first-line text) of each statement that never ran."""
        out = []
        for path in sorted(Path(self.root).glob("*.py")):
            source = path.read_text(encoding="utf-8")
            text = source.splitlines()
            seen = self.reached.get(str(path), set())
            out.extend((path.name, line, text[line - 1].strip())
                       for line, own in statements(source) if not own & seen)
        return out


def compare(unreached, listed: Counter) -> tuple[list[str], list[str]]:
    """Unreached statements the list does not name, and listed entries that ran."""
    left = Counter(listed)
    new = []
    for name, line, text in unreached:
        if left[(name, text)]:
            left[(name, text)] -= 1
        else:
            new.append(f"{name}:{line}: {text}")
    ran = [f"{name}: {text}" for (name, text), count in sorted(left.items()) for _ in range(count)]
    return new, ran


def pytest_configure(config):
    config._line_trace = LineTrace()
    config._line_trace.start()


def pytest_sessionfinish(session, exitstatus):
    trace = session.config._line_trace
    trace.stop()
    trace.new, trace.ran = compare(trace.unreached(), read_list())
    if trace.new or trace.ran:
        session.exitstatus = 1


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    trace, tr = config._line_trace, terminalreporter
    tr.section("line trace of src/omloq")
    tr.write_line(f"{sum(map(len, trace.reached.values()))} distinct lines reached; list: {LIST.name}")
    for line in trace.new:
        tr.write_line(f"unreached and not listed: {line}")
    for line in trace.ran:
        tr.write_line(f"listed but reached, delete its entry: {line}")
    if not trace.new and not trace.ran:
        tr.write_line("every statement inside a function body ran or is listed")
