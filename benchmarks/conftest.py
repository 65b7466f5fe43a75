"""Shared fixtures/helpers for the benchmark harness.

Every bench regenerates one paper artifact (a Table 1 row, a figure, or a
worked example): it measures protocol rounds on the simulator, prints a
paper-style table, and asserts the *shape* of the result (who wins, how
the gap scales), not absolute constants.
"""

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--quick", action="store_true",
        help="bench_materialize.py: check rows only, time nothing",
    )


def print_banner(title: str) -> None:
    print("\n" + "=" * 78)
    print(title)
    print("=" * 78)


@pytest.fixture(autouse=True)
def _newline_before_bench_output():
    print()
    yield
