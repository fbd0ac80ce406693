import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from commprob.constructors import catalog_keys, named


@pytest.fixture(scope="session")
def cat():
    """One shared build of the whole catalog (memoized invariants persist)."""
    return {k: named(k) for k in catalog_keys()}
