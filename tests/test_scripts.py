"""The committed data files are what their generator script writes.

scripts/make_synthetic_corpus.py promises to regenerate data/ byte for
byte. Loading the script by path checks that promise without running its
main(), so no file is written.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "make_synthetic_corpus.py"


def test_make_synthetic_corpus_reproduces_data():
    spec = importlib.util.spec_from_file_location("copytag_make_corpus", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.SPLITS
    for name, (n_sentences, seed) in script.SPLITS.items():
        expected = (ROOT / "data" / name).read_text(encoding="utf-8")
        generated = script.write_conll(script.toy_ner_corpus(n_sentences, seed=seed))
        assert generated == expected, name
