"""Run the mutation gate: every mutant in table.py must be killed.

    python3 mutants/run.py            # every mutant
    python3 mutants/run.py -k oracle  # the mutants whose name contains "oracle"

The selected tests must first pass on a temporary copy of src/, tests/
and perfbench/; then each mutant is applied to that copy in turn and its
tests run there with pytest -x.  A mutant is killed when
they fail.  The script prints one line per mutant, killed or survived with
the time taken, and exits 1 if any mutant survived.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from table import MUTANTS  # noqa: E402

COPIED = ("src", "tests", "perfbench")


def pytest(work: str, tests) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.path.join(work, "src"),
               PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, "-m", "pytest", "-x", "-q",
                           "-p", "no:cacheprovider", *tests],
                          cwd=work, env=env, capture_output=True, text=True)


def run_one(mutant, work: str) -> bool:
    """Apply the mutant in `work`, run its tests, undo it; True if killed."""
    path = os.path.join(work, "src", "exactweil", mutant.path)
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    if text.count(mutant.old) != 1:
        raise SystemExit("mutant %r: its old text occurs %d times in %s"
                         % (mutant.name, text.count(mutant.old), mutant.path))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text.replace(mutant.old, mutant.new))
    try:
        run = pytest(work, mutant.tests)
    finally:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    if run.returncode not in (0, 1):
        raise SystemExit("mutant %r: pytest exited %d\n%s"
                         % (mutant.name, run.returncode, run.stdout[-2000:]))
    return run.returncode == 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run the mutation gate.")
    parser.add_argument("-k", default="", help="run the mutants whose name contains this")
    args = parser.parse_args(argv)
    chosen = [m for m in MUTANTS if args.k in m.name]
    work = tempfile.mkdtemp(prefix="exactweil-mutants-")
    survived = 0
    try:
        for name in COPIED:
            shutil.copytree(os.path.join(ROOT, name), os.path.join(work, name),
                            ignore=shutil.ignore_patterns("__pycache__", "out"))
        # A test that fails unmutated would "kill" every mutant it selects.
        baseline = pytest(work, sorted({t for m in chosen for t in m.tests}))
        if baseline.returncode != 0:
            raise SystemExit("the selected tests fail on the unmutated code:\n"
                             + baseline.stdout[-2000:])
        for mutant in chosen:
            start = time.perf_counter()
            killed = run_one(mutant, work)
            survived += not killed
            print("%-8s %6.1f s  %s" % ("killed" if killed else "SURVIVED",
                                        time.perf_counter() - start, mutant.name),
                  flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("%d of %d mutants killed" % (len(chosen) - survived, len(chosen)))
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
