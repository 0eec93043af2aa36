"""Each mutant in `mutants.py` still applies to exactly one place.

Running the mutants is left to `python tests/mutants.py --run`; this
only checks that every old text occurs once in its file and that every
node id names a test function defined in its file.
"""

from pathlib import Path

import pytest

from mutants import MUTANTS

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_mutant_applies_once(mutant):
    assert (ROOT / mutant.path).read_text(encoding="utf-8").count(mutant.old) == 1
    assert mutant.old != mutant.new and mutant.kills
    for node in mutant.kills:
        path, _, func = node.partition("::")
        assert f"def {func}(" in (ROOT / path).read_text(encoding="utf-8"), node
