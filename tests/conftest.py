"""Shared fixtures and the acceptance-gate summary printer."""

from acceptance_report import RESULTS
from hypothesis import settings

# the same examples on every run; each test keeps its own max_examples
# and deadline
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(RESULTS):
        name, ok, detail = RESULTS[num]
        status = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"[{status}] criterion {num}: {name} -- {detail}")
