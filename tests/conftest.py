import pathlib

import hypothesis
import pytest

from acceptance_log import _ACCEPTANCE_RESULTS

hypothesis.settings.register_profile(
    "default", max_examples=60, deadline=None
)
hypothesis.settings.load_profile("default")

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
MINIWEB = FIXTURES / "miniweb"
HOSTILE = FIXTURES / "hostile"


@pytest.fixture(scope="session")
def miniweb_path() -> pathlib.Path:
    return MINIWEB


@pytest.fixture(scope="session")
def hostile_path() -> pathlib.Path:
    return HOSTILE


@pytest.fixture(scope="session")
def miniweb_provider():
    from ctms.corpus import FixtureProvider, load_fixture

    return FixtureProvider(load_fixture(MINIWEB))


@pytest.fixture
def fresh_miniweb_provider():
    """A miniweb provider of its own, loaded for one test: no mine has
    fetched its pages yet, so the first mine parses every page it fetches
    (mining keeps each page object's parse for every later mine)."""
    from ctms.corpus import FixtureProvider, load_fixture

    return FixtureProvider(load_fixture(MINIWEB))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name, status in _ACCEPTANCE_RESULTS:
        terminalreporter.write_line(f"[{status}] {name}")
