import pytest

import emhorn.em

_ACCEPTANCE: list[tuple[str, bool]] = []


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "acceptance: one of the numbered acceptance criteria"
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when == "call" and item.get_closest_marker("acceptance"):
        _ACCEPTANCE.append((item.name, report.passed))


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name, passed in _ACCEPTANCE:
        terminalreporter.write_line(f"{'PASS' if passed else 'FAIL'}  {name}")


@pytest.fixture
def levels_read(monkeypatch):
    """The (level, degree) of every level enumerated through ``emhorn.em``."""
    calls = []
    original = emhorn.em.enumerate_surjections

    def recording(m, n):
        calls.append((m, n))
        return original(m, n)

    monkeypatch.setattr(emhorn.em, "enumerate_surjections", recording)
    return calls
