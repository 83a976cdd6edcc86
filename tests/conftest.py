import pytest

import braidshadow as bs


@pytest.fixture(scope="session")
def pb3():
    return bs.pb3_subgroup()


@pytest.fixture(scope="session")
def catalog4():
    return bs.catalog_search(4)


@pytest.fixture(scope="session")
def catalog7():
    return bs.catalog_search(7, degree_limit=7)


# The first non-isolated component: entries 9 and 10 of catalog_search(7,
# degree_limit=7), frozen here so that the tests using them need not run
# the degree-7 search; test_catalog_degree_seven_is_frozen checks them.
_CAT09_10_SIGMA1 = (0, 2, 3, 4, 5, 6, 1, 8, 7, 9)


@pytest.fixture(scope="session")
def cat09():
    sigma2 = bs.Permutation((1, 4, 2, 0, 6, 3, 5, 7, 9, 8))
    return bs.new_nfi((bs.Permutation(_CAT09_10_SIGMA1), sigma2), label="cat09")


@pytest.fixture(scope="session")
def cat10():
    sigma2 = bs.Permutation((1, 5, 2, 0, 6, 4, 3, 7, 9, 8))
    return bs.new_nfi((bs.Permutation(_CAT09_10_SIGMA1), sigma2), label="cat10")


# One PASS/FAIL line per acceptance check at the end of the run, in order.
_acceptance_outcomes = {}


def pytest_runtest_logreport(report):
    if "test_acceptance.py" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    if report.when == "call" or (report.when == "setup" and report.skipped):
        _acceptance_outcomes[name] = report.outcome


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_outcomes:
        return
    terminalreporter.section("acceptance")
    for name in sorted(_acceptance_outcomes):
        outcome = _acceptance_outcomes[name]
        tag = "PASS" if outcome == "passed" else outcome.upper()
        terminalreporter.write_line(f"{tag}  {name}")
