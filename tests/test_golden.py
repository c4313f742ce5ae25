import pytest

import golden


@pytest.mark.parametrize("key", sorted(set(golden.RESULTS) | set(golden.load())))
def test_golden_digest(key):
    assert golden.digest(golden.RESULTS[key]()) == golden.load()[key]
