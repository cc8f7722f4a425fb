import pytest


@pytest.fixture(autouse=True)
def _in_tmp_dir(tmp_path, monkeypatch):
    """Each test runs in its own temporary directory, so a config that
    leaves `out` at its default writes there and not into the checkout; no
    test may leave a writer's temporary file behind."""
    monkeypatch.chdir(tmp_path)
    yield
    assert not sorted(tmp_path.rglob(".*.tmp"))
