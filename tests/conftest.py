import hashlib
import sys
from pathlib import Path

import pytest

# make the oracle helpers importable as a plain module
sys.path.insert(0, str(Path(__file__).parent))

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture
def golden_digests():
    """Check named texts against `tests/golden/<file>`, which holds the
    SHA-256 of each in `sha256sum` format: the same names, not a byte changed."""

    def check(file, texts):
        lines = (GOLDEN / file).read_text().splitlines()
        want = dict(reversed(line.split()) for line in lines)
        got = {name: hashlib.sha256(text.encode("ascii")).hexdigest()
               for name, text in texts.items()}
        assert got == want

    return check
