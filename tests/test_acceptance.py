"""Acceptance gate: every criterion runs at its pinned tolerance.

One test per criterion; ``run_all`` prints its PASS/FAIL line so
``pytest -v -s`` doubles as the acceptance protocol transcript.
"""

import pytest

from parabolab import acceptance

RUNTIME_BUDGETS = {
    1: 10.0, 2: 1.0, 3: 60.0, 4: 5.0, 5: 5.0, 6: 60.0,
    7: 300.0, 8: 120.0, 9: 120.0, 10: 10.0, 11: 300.0, 12: 30.0,
}


@pytest.mark.parametrize("index,name",
                         [(i, n) for i, n, _ in acceptance.CRITERIA],
                         ids=[f"{i:02d}_{n.replace(' ', '_')}" for i, n, _ in acceptance.CRITERIA])
def test_criterion(index, name):
    [res] = acceptance.run_all(indices=[index])
    assert res.passed, f"criterion {index} ({name}): {res.detail}"
    assert res.runtime <= RUNTIME_BUDGETS[index], (
        f"criterion {index} took {res.runtime:.1f}s, budget {RUNTIME_BUDGETS[index]}s")


def test_criterion_12_prints_nothing(capsys):
    # its nested CLI runs write to a temporary directory; none may print its path
    passed, detail = acceptance.criterion_12_determinism()
    assert passed, detail
    assert capsys.readouterr() == ("", "")
