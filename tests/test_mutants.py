"""The mutation gate's table stays applicable to the current source."""

import ast
import os
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, os.fspath(ROOT / "mutants"))

from table import MUTANTS  # noqa: E402


def test_each_mutant_old_text_occurs_once_under_src():
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in (ROOT / "src" / "exactweil").glob("*.py")}
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    for mutant in MUTANTS:
        counts = {name: text.count(mutant.old) for name, text in sources.items()}
        assert sum(counts.values()) == 1 and counts[mutant.path] == 1, (mutant.name, counts)
        assert mutant.new != mutant.old and mutant.tests, mutant.name


def test_each_mutant_names_existing_tests():
    # A renamed test would otherwise show only when run.py stops on pytest's
    # exit 4 (no tests collected).
    defined = {}
    for mutant in MUTANTS:
        for node in mutant.tests:
            path, _, name = node.partition("::")
            if path not in defined:
                source = ROOT / path
                assert source.is_file(), (mutant.name, node)
                tree = ast.parse(source.read_text(encoding="utf-8"), filename=path)
                defined[path] = {f.name for f in tree.body if isinstance(f, ast.FunctionDef)}
            assert name.split("[")[0] in defined[path], (mutant.name, node)
