"""Run the mutation checks: every mutant in mutants.py must fail each of
its tests.

    python mutation/run.py [NAME ...]

The runner first runs every listed test against an unmutated copy of
src/, and each must pass. Then, for each mutant (all of them, or the ones
named), it copies src/ to a temporary directory, replaces the mutant's
old text, which must occur exactly once in its file, with its new text,
and runs only the mutant's tests from the checkout's tests/ against the
copy. Each test must be reported failed: a test that passes, errors or is
not run fails the check. pytest runs from the temporary directory, so
hypothesis keeps the mutants' failing examples there, not in the checkout,
and with a fixed hypothesis seed, so each run draws the same examples and
a mutant is caught, or not, on every run alike.

Prints one line per run and exits 0 if every check holds, 1 if one does
not, and 2 for an unknown mutant name. Needs only the standard library,
and the package's test extras for the tests themselves.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Iterable, Optional

from mutants import MUTANTS, Mutant

ROOT = Path(__file__).resolve().parent.parent
OUTCOMES = ("PASSED", "FAILED", "ERROR", "XFAIL", "XPASS")


def copy_src(into: Path, mutant: Optional[Mutant] = None) -> Path:
    """A copy of src/ under into, with mutant applied; ValueError if the
    mutant's old text does not occur exactly once in its file."""
    src = into / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    if mutant is not None:
        path = src / mutant.path
        text = path.read_text(encoding="utf-8")
        count = text.count(mutant.old)
        if count != 1:
            raise ValueError(f"{mutant.name}: old text occurs {count} times in {mutant.path}")
        path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
    return src


def outcomes(src: Path, tests: Iterable[str]) -> dict[str, str]:
    """Each test's outcome (one of OUTCOMES) when pytest runs tests from
    the checkout against the package in src; a test that was not run is
    missing. RuntimeError if the package is not imported from src."""
    env = dict(os.environ, PYTHONPATH=str(src))
    cwd = src.parent
    where = subprocess.run(
        [sys.executable, "-c", "import sinrbackbone; print(sinrbackbone.__file__)"],
        cwd=cwd, env=env, capture_output=True, text=True, check=True,
    ).stdout.strip()
    if not Path(where).is_relative_to(src):
        raise RuntimeError(f"sinrbackbone is imported from {where}, not {src}")
    proc = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider",
            "--hypothesis-seed=0",
            "--rootdir", str(ROOT), "-c", str(ROOT / "pyproject.toml"),
            *(str(ROOT / t) for t in tests),
        ],
        cwd=cwd, env=env, capture_output=True, text=True,
    )
    found = {}
    for line in proc.stdout.splitlines():
        word, _, rest = line.partition(" ")
        if word in OUTCOMES:
            # pytest prints the file relative to cwd
            path, sep, test = rest.split(" - ")[0].partition("::")
            found[(cwd / path).resolve().relative_to(ROOT).as_posix() + sep + test] = word
    return found


def check(name: str, src: Path, tests: tuple[str, ...], want: str) -> bool:
    """Run tests against src and print whether each was reported want."""
    start = time.perf_counter()
    got = outcomes(src, tests)
    wrong = {t: got.get(t, "NOT RUN") for t in tests if got.get(t) != want}
    verdict = "ok" if not wrong else "FAILED"
    print(f"{verdict:6} {name}: {len(tests)} tests, each must be {want} "
          f"({time.perf_counter() - start:.0f} s)", flush=True)
    for t, outcome in wrong.items():
        print(f"         {outcome} {t}", flush=True)
    return not wrong


def main(names: list[str]) -> int:
    known = {m.name: m for m in MUTANTS}
    if unknown := [n for n in names if n not in known]:
        print(f"unknown mutants: {unknown}; known: {sorted(known)}", file=sys.stderr)
        return 2
    chosen = [known[n] for n in names] if names else list(MUTANTS)
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        every = tuple(dict.fromkeys(t for m in chosen for t in m.tests))
        ok &= check("unmutated", copy_src(Path(tmp, "unmutated")), every, "PASSED")
        for m in chosen:
            try:
                src = copy_src(Path(tmp, m.name), m)
            except ValueError as exc:
                print(f"FAILED {exc}", flush=True)
                ok = False
                continue
            ok &= check(m.name, src, m.tests, "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
