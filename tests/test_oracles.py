import pytest

from gppi.checks import CHECKS, run_check


@pytest.mark.parametrize("name", CHECKS)
def test_oracle(name):
    ok, detail = run_check(name)
    assert ok, detail
