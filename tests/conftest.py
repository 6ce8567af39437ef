import os

import pytest
from hypothesis import settings

# CI (GitHub sets CI) draws the same examples every run, so a failing
# property test replays locally under `CI=1 pytest ...`
settings.register_profile("ci", derandomize=True, deadline=None)
if os.environ.get("CI"):
    settings.load_profile("ci")

_ACCEPTANCE_RESULTS: dict[str, str] = {}


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "acceptance: release-gating criteria, one test per criterion"
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if item.get_closest_marker("acceptance") is None:
        return
    if report.when == "call":
        _ACCEPTANCE_RESULTS[item.name] = report.outcome
    elif report.when == "setup" and report.skipped:
        _ACCEPTANCE_RESULTS[item.name] = "skipped"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_RESULTS:
        return
    labels = {"passed": "PASS", "failed": "FAIL", "skipped": "SKIP"}
    terminalreporter.section("acceptance criteria")
    for name, outcome in _ACCEPTANCE_RESULTS.items():
        terminalreporter.write_line(f"{labels.get(outcome, outcome.upper()):<4}  {name}")
