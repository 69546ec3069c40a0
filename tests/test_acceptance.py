import pytest

from mlcontour import acceptance


@pytest.mark.parametrize("name", acceptance.criterion_names())
def test_criterion_passes(name):
    result = acceptance.run_one(name)
    assert result.passed, result.detail
