"""The scripts under scripts/ still run against the library.

scripts/make_synthetic_corpus.py promises to regenerate data/ byte for
byte. Loading the script by path checks that promise without running its
main(), so no file is written. scripts/run_suffix_experiment.py runs in a
child process on a tiny corpus. scripts/mutants.py runs its mutants
outside tier-1; here only its table is checked against the tree.
scripts/check_float_text.py also runs outside tier-1; here it is only
imported.
"""

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import copytag
import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "make_synthetic_corpus.py"


def _load(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_make_synthetic_corpus_reproduces_data():
    script = _load(SCRIPT, "copytag_make_corpus")
    assert script.SPLITS
    for name, (n_sentences, seed) in script.SPLITS.items():
        expected = (ROOT / "data" / name).read_text(encoding="utf-8")
        generated = script.write_conll(script.toy_ner_corpus(n_sentences, seed=seed))
        assert generated == expected, name


def test_run_suffix_experiment_smoke():
    # the child runs the same copytag this test imported
    src = str(Path(copytag.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [
            sys.executable,
            str(ROOT / "scripts" / "run_suffix_experiment.py"),
            "--train-sentences", "20",
            "--dev-sentences", "5",
            "--epochs", "1",
            "--neighbors", "3",
        ],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert "before fine-tuning: dev token accuracy" in proc.stdout
    assert "after fine-tuning: dev token accuracy" in proc.stdout


def test_mutant_table_matches_the_tree():
    # each mutant's old text is in its file exactly once, and each named
    # test's file defines its classes and functions, so a change to mutated
    # code or a renamed test fails here until the table follows it
    script = _load(ROOT / "scripts" / "mutants.py", "copytag_mutants")
    assert script.MUTANTS
    for mutant in script.MUTANTS:
        text = (ROOT / mutant.path).read_text(encoding="utf-8")
        assert text.count(mutant.old) == 1, mutant.name
        assert mutant.tests, mutant.name
        for test in mutant.tests:
            path, *names = test.split("::")
            assert (ROOT / path).is_file(), f"{mutant.name}: no file {path}"
            source = (ROOT / path).read_text(encoding="utf-8")
            for name in names:
                assert re.search(rf"^\s*(class|def) {name}\b", source, re.M), f"{mutant.name}: {test}"


def test_check_float_text_imports():
    # the script compares millions of values in CI's mutants job; here
    # its value set and its comparison are only checked on a few values
    script = _load(ROOT / "scripts" / "check_float_text.py", "copytag_check_float_text")
    assert callable(script.main)
    assert script.first_mismatch(np.array([0.1, -0.0, 5e-324, 1e16, 1e-4])) is None
    assert script.first_misread(["1e0", "+1.5", "00012.5", "\t.5", "1_0.0"]) is None
    assert script.first_accepted(["0.1.2", "--1", ""]) is None
