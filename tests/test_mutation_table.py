"""The mutation table keeps up with the code. Running the mutants is the
mutation CI job (mutation/run.py); here each mutant's old text must occur
exactly once in its file and change it, and each of its tests must exist."""

import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "mutation"))

from mutants import MUTANTS  # noqa: E402


def test_mutant_names_are_distinct():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_each_mutant_applies_once_and_names_existing_tests(mutant):
    assert (ROOT / "src" / mutant.path).read_text(encoding="utf-8").count(mutant.old) == 1
    assert mutant.new != mutant.old and mutant.tests
    for test in mutant.tests:
        path, name = re.fullmatch(r"([\w/]+\.py)::(\w+)(?:\[[\w-]+\])?", test).groups()
        assert f"\ndef {name}(" in (ROOT / path).read_text(encoding="utf-8"), test
