import json
import sys
from pathlib import Path

import pytest

TESTS_DIR = Path(__file__).parent
sys.path.insert(0, str(TESTS_DIR))


@pytest.fixture(scope="session")
def golden() -> dict:
    with open(TESTS_DIR / "fixtures" / "golden.json") as fh:
        return json.load(fh)
