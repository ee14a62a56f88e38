"""Byte-level pins of every CLI output on two seeded synthetic shapes.

Each shape trains a checkpoint through the CLI, then tags with it (marginal,
and dp with --explain), sweeps a grid of segment costs and inspects one
sentence. The sha256 of every output is pinned: the checkpoint, the
predictions, the provenance file, the sweep CSV, each manifest, and the
stdout of train and inspect. Every verb after train loads the checkpoint,
so a change to the load path moves the outputs built from it.

A moved pin means copytag now writes different bytes. Outputs are meant to
stay byte-identical across refactors and speedups, so a moved pin is a
regression to find, not a value to re-pin. The pins hold for the float
kernels they were made with; a failure names this run's OpenBLAS kernel
and numpy SIMD dispatch, so a pin moved by another platform shows as
such.

Shapes:
* toy NER: 40 db sentences, 10 queries, K=20 neighbors;
* long suffix: 32 db sentences of 40 tokens, 4 queries, K=16. Its segment
  dictionaries are deep and its sentences are embedded in cache-sized runs;
* sparse toy NER: 20 db sentences, 6 queries, K=2 neighbors. Its neighbor
  sets lack some label types, so marginal column k is not type k and the
  mapping from columns to type ids shows in every output.
"""

import contextlib
import hashlib
import io

import pytest

from copytag.cli import main
from copytag.corpus import relabel, write_conll
from copytag.synthetic import suffix_corpus, toy_ner_corpus

from conftest import platform_facts


def _long_suffix(n_sentences: int, seed: int):
    # sweep scores spans, which needs BIO tags; each suffix class becomes
    # a one-token span type
    data = suffix_corpus(n_sentences, seed, min_len=40, max_len=40)
    return relabel(data, {name: f"B-{name}" for name in data.vocab.types})


SHAPES = {
    "toy_ner": {
        "db": lambda: toy_ner_corpus(40, seed=31),
        "input": lambda: toy_ner_corpus(10, seed=32),
        "neighbors": "20",
    },
    "suffix_l40": {
        "db": lambda: _long_suffix(32, seed=41),
        "input": lambda: _long_suffix(4, seed=42),
        "neighbors": "16",
    },
    "toy_ner_k2": {
        "db": lambda: toy_ner_corpus(20, seed=60),
        "input": lambda: toy_ner_corpus(6, seed=160),
        "neighbors": "2",
    },
}

PINS = {
    "toy_ner": {
        "dp.conll": "91ce27e192438f14f16d6f006aa4d582c4b05ecb9f3850967840a82cc4cabc24",
        "dp.conll.manifest.json": "a253c8635b28276cb78fcd881460dc24131c4abebfc6e2f36a0d56be04c3637d",
        "dp.explain": "1ecbe8dfa00a4ad135d37eab835646169e2d2995cd6b43607cbe248be841a7a4",
        "inspect_stdout": "1010586863f223f2c3ae75ac2587b45f63a276c52df551cf1725c07c893b7a4f",
        "marginal.conll": "91ce27e192438f14f16d6f006aa4d582c4b05ecb9f3850967840a82cc4cabc24",
        "marginal.conll.manifest.json": "f9736de6d2b771d8db859914edb9d9059c93c8952882fb0c2bea917f638fd4db",
        "model.ckpt": "2cbb2cffc2c2ed04b3cd3fd8cf328784e9cbd37e9a7a4d81c9ae2ead08feb9c6",
        "model.ckpt.manifest.json": "adeda9e32876e02fbb6d0f1218c63cfd2d8cb55094334b9fba9b8796e64ca637",
        "sweep.csv": "c1ee04a760a310e5a2d2136ed4c2095a453e804dcdf7498da83e4d6ed6427912",
        "sweep.csv.manifest.json": "46f947aca8f86eb55bc015e8e1492372f75d3605d196854a6eb3b63a01da58e8",
        "train_stdout": "3a7ba104baef58efd624752b3a23b97e9d30636735c36369034bca1acedd77e7",
    },
    "suffix_l40": {
        "dp.conll": "d69814b2893112b61464a483be8ecee175fc75515e5b034ee5c29148326494d5",
        "dp.conll.manifest.json": "e9dd9afa5c0eb9a0fffb0c9430c39c8925b67467fcab4bfe5d8216418fb28889",
        "dp.explain": "903de5ba8e18bc6c4c88bffe7a4043ccdbf9d17b2689a4509fef2d10966e9faa",
        "inspect_stdout": "c8b1549efee29e8b9f72c09136d5a8a18336e9ed9f7a0e861a01f431363e51d0",
        "marginal.conll": "b8edcd2a74f4feb4504992c9c9bc97b4f77cea5d190223c767a354f20cd283bb",
        "marginal.conll.manifest.json": "de3e853fc4dc670d1e067d5e92e29cab369236646607941265f4690ebfa46f6c",
        "model.ckpt": "de8dce4f9f10be5109a655d88cfd9789075bcf5dd76181bf8dc668770aa31788",
        "model.ckpt.manifest.json": "6fa18c1283da9526d480b7bb83dfb7642f829c782cb57c024d04aad790da6ccb",
        "sweep.csv": "52d4ec8ce0d18d0e74723a198fdf92f4bef2fd2642055a15cb17a21980bc6ced",
        "sweep.csv.manifest.json": "a816d32b58a3a661b44cbb7650fda9d715e65c41463920366448272608e72fa2",
        "train_stdout": "6c0ef8378b9d6860e8c159c93cddfc71e1f73db60479f5c3d3d34efc9a8446a6",
    },
    "toy_ner_k2": {
        "dp.conll": "4b1c79dc682c8ed8f13cdc63de9d44b215b271d9044abb779535938cba0b526a",
        "dp.conll.manifest.json": "c8c8e5598ade3c540d1a505c56325390c7922ede1d71c908c9e6291af775efe7",
        "dp.explain": "1af84605631f67743360be97f211753d97cc11e9c1b042e3c615cd41b5c07150",
        "inspect_stdout": "08b95f070b31f8e36982a549a7af39a7ffa960b0cbafb9989e5264ad305c1751",
        "marginal.conll": "4b1c79dc682c8ed8f13cdc63de9d44b215b271d9044abb779535938cba0b526a",
        "marginal.conll.manifest.json": "e3af43e1f49c1cfcf558a6aa3bfa06f1cbe03dd040f4927f315058d35c0d4a70",
        "model.ckpt": "d8d4059cb615d1641186a170fff7aa4b979b3c3d9a69188e691cb78be77d94d6",
        "model.ckpt.manifest.json": "5b2fb222d9e73c3ba8a12bf50e1bbfc360ec31d2f36a780e30cfe2ea3dd4d903",
        "sweep.csv": "c1ee04a760a310e5a2d2136ed4c2095a453e804dcdf7498da83e4d6ed6427912",
        "sweep.csv.manifest.json": "de034e4382461f3fcd3be572d745404313c3efcbd0e8bc226c6522b1c859a916",
        "train_stdout": "fcca9bb79eda3792b5f55994e30da570655929ee5dc6f34746c718a02bdf9871",
    },
}


def _run(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0, argv
    return out.getvalue()


def _outputs(root, shape) -> dict[str, bytes]:
    db = root / "db.conll"
    data = root / "input.conll"
    db.write_text(write_conll(shape["db"]()))
    data.write_text(write_conll(shape["input"]()))
    k = shape["neighbors"]
    ckpt = root / "model.ckpt"
    marginal = root / "marginal.conll"
    dp = root / "dp.conll"
    explain = root / "dp.explain"
    sweep = root / "sweep.csv"
    printed = {
        "train_stdout": _run([
            "train", "--data", str(db), "--dev", str(data), "--out", str(ckpt),
            "--epochs", "1", "--batch", "8", "--neighbors", "5", "--seed", "3",
        ]),
    }
    _run([
        "tag", "--ckpt", str(ckpt), "--db", str(db), "--input", str(data),
        "--out", str(marginal), "--neighbors", k,
    ])
    _run([
        "tag", "--ckpt", str(ckpt), "--db", str(db), "--input", str(data),
        "--out", str(dp), "--neighbors", k, "--decode", "dp", "--c", "0.3",
        "--explain", str(explain),
    ])
    _run([
        "sweep", "--ckpt", str(ckpt), "--db", str(db), "--data", str(data),
        "--c-grid", "0,0.2,0.4,0.8", "--out", str(sweep), "--neighbors", k,
    ])
    printed["inspect_stdout"] = _run([
        "inspect", "--ckpt", str(ckpt), "--db", str(db), "--input", str(data),
        "--sentence-id", "1", "--neighbors", k, "--c", "0.3",
    ])
    files = {
        path.name: path.read_bytes()
        for path in sorted(root.iterdir())
        if path not in (db, data)
    }
    files.update((name, text.encode("utf-8")) for name, text in printed.items())
    # manifests record the paths they were run with
    return {
        name: blob.replace(str(root).encode("utf-8"), b"<dir>")
        for name, blob in files.items()
    }


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    found = {}
    for name, shape in SHAPES.items():
        outputs = _outputs(tmp_path_factory.mktemp(name), shape)
        found[name] = {
            output: hashlib.sha256(blob).hexdigest()
            for output, blob in outputs.items()
        }
    return found


@pytest.mark.parametrize("shape", list(SHAPES))
def test_outputs_match_pins(digests, shape):
    assert digests[shape] == PINS[shape], platform_facts()
