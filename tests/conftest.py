import numpy as np
import pytest


@pytest.fixture
def lapack_rows(monkeypatch):
    """lapack_rows(name) wraps np.linalg.<name> for the test and returns a list
    that gets the number of matrices in each stack reaching it, in call order."""
    def install(name) -> list[int]:
        rows, kernel = [], getattr(np.linalg, name)

        def counting(a, *args, **kwargs):
            rows.append(int(np.prod(a.shape[:-2], dtype=int)))
            return kernel(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
        return rows

    return install
