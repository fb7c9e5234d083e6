"""A pytest plugin that fails the session when a line of ``src/polyclinch`` never ran.

Load it by name, with ``tests`` on the path (Python 3.12+)::

    PYTHONPATH=src:tests python -W error -m pytest -q -p line_gate --hypothesis-seed=0

It listens to ``sys.monitoring`` LINE events on a free tool id, keeps those
in the package's files and returns ``DISABLE`` after each line's first event,
so a line costs one callback.  At the end of the session it compares them
with the lines that ``co_lines()`` gives for every code object of each
module, lists each line that never ran and sets a failing exit status.
Line 0 (the module's RESUME) and the ``if __name__ == "__main__":`` block
are not counted.  Only code run in the pytest process counts.
"""

import ast
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def pytest_configure(config):
    if sys.version_info < (3, 12):
        raise pytest.UsageError("line_gate needs sys.monitoring (Python 3.12+)")
    config.pluginmanager.register(LineGate(ROOT / "src" / "polyclinch"))


def _code_lines(path: pathlib.Path) -> set:
    """The lines of every code object compiled from ``path``, less line 0
    and the ``__main__`` block."""
    source = path.read_text(encoding="utf-8")
    skipped = set()
    for node in ast.parse(source).body:
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'":
            skipped.update(range(node.lineno, node.end_lineno + 1))
    lines, codes = set(), [compile(source, str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        codes.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines - skipped


class LineGate:
    """Records which lines of the package's modules run, from construction
    to the end of the session."""

    def __init__(self, package: pathlib.Path):
        self.files = {str(path): path for path in sorted(package.glob("*.py"))}
        self.ran = set()
        self.missing = []
        monitoring = sys.monitoring
        self.tool = next(i for i in range(6) if monitoring.get_tool(i) is None)
        monitoring.use_tool_id(self.tool, "line_gate")
        monitoring.register_callback(self.tool, monitoring.events.LINE, self._line)
        monitoring.set_events(self.tool, monitoring.events.LINE)

    def _line(self, code, line):
        if code.co_filename in self.files:
            self.ran.add((code.co_filename, line))
        return sys.monitoring.DISABLE

    def pytest_sessionfinish(self, session):
        monitoring = sys.monitoring
        monitoring.set_events(self.tool, 0)
        monitoring.register_callback(self.tool, monitoring.events.LINE, None)
        monitoring.free_tool_id(self.tool)
        self.missing = [f"{path.relative_to(ROOT)}:{line}"
                        for name, path in self.files.items()
                        for line in sorted(_code_lines(path))
                        if (name, line) not in self.ran]
        if self.missing:
            session.exitstatus = pytest.ExitCode.TESTS_FAILED

    def pytest_terminal_summary(self, terminalreporter):
        terminalreporter.write_line(f"line_gate: {len(self.missing)} line(s) of src/polyclinch "
                                    "never ran" + (":" if self.missing else ""))
        for where in self.missing:
            terminalreporter.write_line(f"  {where}")
