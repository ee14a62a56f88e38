import json
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import copytag
from copytag.cli import _read_text, main
from copytag.corpus import parse_conll, write_conll
from copytag.evaluation import SWEEP_HEADER
from copytag.decoder import provenance_lines
from copytag.synthetic import suffix_corpus, toy_ner_corpus
from copytag.tagging import DECODE_DP, Tagger
from copytag.trainer import load_checkpoint


@pytest.fixture(scope="module")
def corpora(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    paths = {
        "train": root / "train.conll",
        "dev": root / "dev.conll",
    }
    paths["train"].write_text(write_conll(toy_ner_corpus(30, seed=11)))
    paths["dev"].write_text(write_conll(toy_ner_corpus(8, seed=12)))
    return paths


@pytest.fixture(scope="module")
def suffix_corpora(tmp_path_factory):
    # unlike the toy NER pair, dev sentences here decode into more copied
    # segments at a low segment cost than at a high one
    root = tmp_path_factory.mktemp("suffix")
    paths = {"db": root / "db.conll", "dev": root / "dev.conll"}
    paths["db"].write_text(write_conll(suffix_corpus(30, seed=11)))
    paths["dev"].write_text(write_conll(suffix_corpus(8, seed=12)))
    return paths


@pytest.fixture(scope="module")
def trained(corpora, tmp_path_factory):
    out = tmp_path_factory.mktemp("ckpt") / "model.ckpt"
    code = main(
        [
            "train",
            "--data", str(corpora["train"]),
            "--dev", str(corpora["dev"]),
            "--out", str(out),
            "--epochs", "1",
            "--batch", "8",
            "--neighbors", "5",
        ]
    )
    assert code == 0
    return out


class TestPipeline:
    def test_train_writes_checkpoint_and_manifest(self, trained, capsys):
        ck = load_checkpoint(trained.read_text())
        assert ck.config.epochs == 1
        assert len(ck.log) == 1
        manifest = json.loads((trained.parent / "model.ckpt.manifest.json").read_text())
        assert manifest["verb"] == "train"
        assert manifest["outputs"] == [str(trained)]

    def test_tag_eval_roundtrip(self, corpora, trained, tmp_path, capsys):
        pred = tmp_path / "pred.conll"
        code = main(
            [
                "tag",
                "--ckpt", str(trained),
                "--db", str(corpora["train"]),
                "--input", str(corpora["dev"]),
                "--out", str(pred),
                "--neighbors", "5",
            ]
        )
        assert code == 0
        tagged = parse_conll(pred.read_text())
        gold = parse_conll(corpora["dev"].read_text())
        assert len(tagged.items) == len(gold.items)

        code = main(
            ["eval", "--pred", str(pred), "--gold", str(corpora["dev"]), "--spans"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "token_accuracy " in out
        assert "f1 " in out

    def test_eval_report_file(self, corpora, trained, tmp_path, capsys):
        pred = tmp_path / "pred.conll"
        main(
            [
                "tag",
                "--ckpt", str(trained),
                "--db", str(corpora["train"]),
                "--input", str(corpora["dev"]),
                "--out", str(pred),
                "--neighbors", "5",
            ]
        )
        report = tmp_path / "scores.txt"
        code = main(
            [
                "eval",
                "--pred", str(pred),
                "--gold", str(corpora["dev"]),
                "--report", str(report),
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert report.read_text().strip() == printed.strip()
        assert report.read_text().startswith("token_accuracy ")

    def test_sweep_csv(self, corpora, trained, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(
            [
                "sweep",
                "--ckpt", str(trained),
                "--db", str(corpora["train"]),
                "--data", str(corpora["dev"]),
                "--c-grid", "0,0.5,1.5",
                "--out", str(out),
                "--neighbors", "5",
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == SWEEP_HEADER
        assert len(lines) == 4
        assert lines[1].startswith("0.0000,")

    def test_inspect_prints_sources(self, corpora, trained, capsys):
        code = main(
            [
                "inspect",
                "--ckpt", str(trained),
                "--db", str(corpora["train"]),
                "--input", str(corpora["dev"]),
                "--sentence-id", "0",
                "--neighbors", "5",
                "--c", "0.4",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("sentence 0: ")
        assert "token 0 " in out
        assert "top-source neighbor:" in out
        assert "dp decode at c=0.4" in out
        assert "seg 0 " in out

    def test_inspect_segments_match_tag_explain(self, corpora, trained, tmp_path, capsys):
        shared = [
            "--ckpt", str(trained),
            "--db", str(corpora["train"]),
            "--input", str(corpora["dev"]),
            "--neighbors", "5",
            "--c", "0.3",
        ]
        explain = tmp_path / "why.txt"
        code = main(
            [
                "tag", *shared,
                "--out", str(tmp_path / "pred.conll"),
                "--decode", "dp",
                "--explain", str(explain),
            ]
        )
        assert code == 0
        blocks = explain.read_text().split("# sentence ")[1:]
        dev = parse_conll(corpora["dev"].read_text())
        assert len(blocks) == len(dev.items)
        tagger = Tagger(
            load_checkpoint(trained.read_text()).provider(),
            parse_conll(corpora["train"].read_text()),
            5,
        )
        for sentence_id, block in enumerate(blocks):
            assert main(["inspect", *shared, "--sentence-id", str(sentence_id)]) == 0
            out = capsys.readouterr().out.splitlines()
            inspected = [line for line in out if line.startswith("seg ")]
            assert inspected
            assert [str(sentence_id), *inspected] == block.splitlines()
            decode = tagger.tag(
                dev.items[sentence_id].sentence, decode=DECODE_DP, segment_cost=0.3
            ).decode
            assert f"dp decode at c=0.3: objective {decode.objective:.4f}" in out


    def test_segment_cost_reaches_the_segmentation(
        self, suffix_corpora, trained, tmp_path
    ):
        db = parse_conll(suffix_corpora["db"].read_text())
        dev = parse_conll(suffix_corpora["dev"].read_text())
        tagger = Tagger(load_checkpoint(trained.read_text()).provider(), db, 5)
        explained = {}
        for c in ("0", "1.5"):
            explain = tmp_path / f"why-{c}.txt"
            code = main(
                [
                    "tag",
                    "--ckpt", str(trained),
                    "--db", str(suffix_corpora["db"]),
                    "--input", str(suffix_corpora["dev"]),
                    "--out", str(tmp_path / f"pred-{c}.conll"),
                    "--neighbors", "5",
                    "--decode", "dp",
                    "--c", c,
                    "--explain", str(explain),
                ]
            )
            assert code == 0
            blocks = explain.read_text().split("# sentence ")[1:]
            assert len(blocks) == len(dev.items)
            for sentence_id, (block, item) in enumerate(zip(blocks, dev.items)):
                decode = tagger.tag(
                    item.sentence, decode=DECODE_DP, segment_cost=float(c)
                ).decode
                expected = provenance_lines(decode, db.vocab.types)
                assert block.splitlines() == [str(sentence_id), *expected]
            explained[c] = blocks
        assert explained["0"] != explained["1.5"]
        segments = {
            c: sum(block.count("\nseg ") for block in blocks)
            for c, blocks in explained.items()
        }
        assert segments["0"] > segments["1.5"]


class TestDeterminism:
    def test_rerun_is_byte_identical(self, corpora, trained, tmp_path):
        outs = []
        for name in ("a.conll", "b.conll"):
            out = tmp_path / name
            argv = [
                "tag",
                "--ckpt", str(trained),
                "--db", str(corpora["train"]),
                "--input", str(corpora["dev"]),
                "--out", str(out),
                "--neighbors", "5",
            ]
            assert main(argv) == 0
            outs.append(out.read_text())
        assert outs[0] == outs[1]

    def test_manifest_digests(self, corpora, trained, tmp_path):
        out = tmp_path / "pred.conll"
        main(
            [
                "tag",
                "--ckpt", str(trained),
                "--db", str(corpora["train"]),
                "--input", str(corpora["dev"]),
                "--out", str(out),
                "--neighbors", "5",
            ]
        )
        manifest = json.loads((tmp_path / "pred.conll.manifest.json").read_text())
        assert manifest["tool"] == "copytag"
        assert manifest["verb"] == "tag"
        assert manifest["options"]["neighbors"] == 5
        for path, digest in manifest["inputs"].items():
            with open(path, "rb") as handle:
                assert digest == hashlib.sha256(handle.read()).hexdigest()


class TestInputText:
    """`--input` is CoNLL text or bare tokens, one per line."""

    def _tag(self, corpora, trained, tmp_path, name, text):
        source = tmp_path / f"{name}.txt"
        source.write_text(text)
        out = tmp_path / f"{name}.conll"
        code = main(
            [
                "tag",
                "--ckpt", str(trained),
                "--db", str(corpora["train"]),
                "--input", str(source),
                "--out", str(out),
                "--neighbors", "5",
            ]
        )
        return code, source, out

    def test_bare_tokens_tag_like_conll(self, corpora, trained, tmp_path):
        conll = corpora["dev"].read_text()
        bare = "".join(
            f"{line.split()[0] if line.strip() else ''}\n"
            for line in conll.splitlines()
        )
        assert bare != conll
        runs = [
            self._tag(corpora, trained, tmp_path, name, text)
            for name, text in (("conll", conll), ("bare", bare))
        ]
        assert [code for code, _, _ in runs] == [0, 0]
        assert runs[0][2].read_text() == runs[1][2].read_text()

    def test_docstart_line_is_skipped(self, corpora, trained, tmp_path):
        conll = corpora["dev"].read_text()
        first, rest = conll.split("\n\n", 1)
        marked = f"-DOCSTART- -X- O\n\n{first}\n\n-DOCSTART- -X- O\n\n{rest}"
        runs = [
            self._tag(corpora, trained, tmp_path, name, text)
            for name, text in (("plain", conll), ("marked", marked))
        ]
        assert [code for code, _, _ in runs] == [0, 0]
        assert runs[0][2].read_text() == runs[1][2].read_text()

    def test_blank_input_names_path(self, corpora, trained, tmp_path, capsys):
        code, source, out = self._tag(
            corpora, trained, tmp_path, "blank", "\n  \n-DOCSTART- -X- O\n\n"
        )
        assert code == 1
        assert f"no sentences in {source}" in capsys.readouterr().err
        assert not out.exists()


class TestByteOrderMark:
    """A leading UTF-8 byte order mark is not text: it opens no token and
    no line, and a bad byte is still named by its offset in the file."""

    @pytest.mark.parametrize("option", ["--db", "--input", "--ckpt"])
    def test_marked_file_tags_like_the_plain_one(self, corpora, trained, tmp_path, option):
        files = {"--db": corpora["train"], "--input": corpora["dev"], "--ckpt": trained}
        text = files[option].read_text(encoding="utf-8")
        # on the db the mark stands alone on a blank first line, which read
        # as a line of one column while the mark was kept
        marked = tmp_path / "marked"
        marked.write_text(("\ufeff\n" if option == "--db" else "\ufeff") + text, encoding="utf-8")
        outputs = []
        for name, source in (("plain", files[option]), ("marked", marked)):
            paths = {**files, option: source}
            out = tmp_path / f"{name}.conll"
            argv = ["tag", "--neighbors", "5", "--out", str(out)]
            for flag in ("--ckpt", "--db", "--input"):
                argv += [flag, str(paths[flag])]
            assert main(argv) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_mark_dropped_and_counted_in_offsets(self, tmp_path):
        path = tmp_path / "marked.conll"
        path.write_bytes("\ufeffAlice B-PER\r\n\n".encode("utf-8"))
        assert _read_text(str(path)) == "Alice B-PER\n\n"
        path.write_bytes(b"\xef\xbb\xbfcaf\xe9 O\n")
        with pytest.raises(ValueError, match=r"not UTF-8: byte 0xe9 at offset 6 \(invalid"):
            _read_text(str(path))


class TestExplain:
    def test_provenance_file(self, corpora, trained, tmp_path):
        out = tmp_path / "pred.conll"
        explain = tmp_path / "why.txt"
        code = main(
            [
                "tag",
                "--ckpt", str(trained),
                "--db", str(corpora["train"]),
                "--input", str(corpora["dev"]),
                "--out", str(out),
                "--neighbors", "5",
                "--decode", "dp",
                "--c", "0.4",
                "--explain", str(explain),
            ]
        )
        assert code == 0
        text = explain.read_text()
        assert text.startswith("# sentence 0")
        assert "seg 0 " in text
        assert "from=neighbor:" in text
        assert "labels=" in text

    @pytest.mark.parametrize("name", ["pred.conll", "./pred.conll", "pred.conll.manifest.json"])
    def test_output_path_taken_twice_is_refused(
        self, corpora, trained, tmp_path, capsys, name
    ):
        # the explain text would land on the predictions or their manifest
        out = tmp_path / "pred.conll"
        explain = f"{tmp_path}/{name}"
        for path in (out, tmp_path / "pred.conll.manifest.json"):
            path.write_text("OLD\n")
        code = main(
            [
                "tag",
                "--ckpt", str(trained),
                "--db", str(corpora["train"]),
                "--input", str(corpora["dev"]),
                "--out", str(out),
                "--neighbors", "5",
                "--decode", "dp",
                "--explain", explain,
            ]
        )
        assert code == 1
        assert explain in capsys.readouterr().err
        for path in tmp_path.iterdir():
            assert path.read_text() == "OLD\n", path.name
        assert len(list(tmp_path.iterdir())) == 2

    def test_explain_requires_dp(self, corpora, trained, tmp_path, capsys):
        code = main(
            [
                "tag",
                "--ckpt", str(trained),
                "--db", str(corpora["train"]),
                "--input", str(corpora["dev"]),
                "--out", str(tmp_path / "pred.conll"),
                "--explain", str(tmp_path / "why.txt"),
            ]
        )
        assert code == 2
        assert not (tmp_path / "pred.conll").exists()


class TestOutputPaths:
    def test_clash_refused_before_the_checkpoint_loads(self, corpora, tmp_path, capsys):
        out = str(tmp_path / "pred.conll")
        code = main(
            [
                "tag",
                "--ckpt", str(tmp_path / "missing.ckpt"),
                "--db", str(corpora["train"]),
                "--input", str(corpora["dev"]),
                "--out", out,
                "--decode", "dp",
                "--explain", out,
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert f"output {out} would overwrite another output" in err
        assert "missing.ckpt" not in err
        assert list(tmp_path.iterdir()) == []

    def test_out_on_the_db_leaves_it_unchanged(self, corpora, trained, tmp_path, capsys):
        db = tmp_path / "db.conll"
        db.write_bytes(corpora["train"].read_bytes())
        code = main(
            [
                "tag",
                "--ckpt", str(trained),
                "--db", str(db),
                "--input", str(corpora["dev"]),
                "--out", str(db),
                "--neighbors", "5",
            ]
        )
        assert code == 1
        assert f"output {db} would overwrite an input" in capsys.readouterr().err
        assert db.read_bytes() == corpora["train"].read_bytes()
        assert list(tmp_path.iterdir()) == [db]

    @pytest.mark.parametrize("verb", ["train", "eval", "sweep"])
    def test_manifest_on_an_input_is_refused(self, corpora, tmp_path, capsys, verb):
        # the manifest of `out` is itself an output
        data = tmp_path / "data.conll.manifest.json"
        data.write_bytes(corpora["dev"].read_bytes())
        out = str(tmp_path / "data.conll")
        args = {
            "train": ["--data", str(data), "--out", out],
            "eval": ["--pred", str(data), "--gold", str(data), "--report", out],
            "sweep": [
                "--ckpt", str(tmp_path / "missing.ckpt"), "--db", str(data),
                "--data", str(data), "--c-grid", "0,0.4", "--out", out,
            ],
        }[verb]
        assert main([verb, *args]) == 1
        assert f"output {data} would overwrite an input" in capsys.readouterr().err
        assert data.read_bytes() == corpora["dev"].read_bytes()
        assert list(tmp_path.iterdir()) == [data]

    def test_inspect_checks_the_sentence_id_before_the_checkpoint(
        self, corpora, tmp_path, capsys
    ):
        code = main(
            [
                "inspect",
                "--ckpt", str(tmp_path / "missing.ckpt"),
                "--db", str(corpora["train"]),
                "--input", str(corpora["dev"]),
                "--sentence-id", "8",
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "sentence id 8 out of range; input has 8 sentences" in err
        assert "missing.ckpt" not in err


class TestExitCodes:
    def test_unknown_verb(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_missing_required_flag(self, capsys):
        assert main(["tag", "--db", "x"]) == 2

    def test_bad_c_grid(self, corpora, trained, tmp_path, capsys):
        # an empty item is as malformed as a word: a usage error, no output
        for grid in ("0,banana", "0,,0.4", "", "0,0.4,"):
            code = main(
                [
                    "sweep",
                    "--ckpt", str(trained),
                    "--db", str(corpora["train"]),
                    "--data", str(corpora["dev"]),
                    "--c-grid", grid,
                    "--out", str(tmp_path / "s.csv"),
                ]
            )
            assert code == 2, grid
            assert not (tmp_path / "s.csv").exists(), grid

    def test_missing_file_is_runtime_error(self, tmp_path, capsys):
        code = main(
            [
                "eval",
                "--pred", str(tmp_path / "nope.conll"),
                "--gold", str(tmp_path / "nope.conll"),
            ]
        )
        assert code == 1
        assert "copytag: error:" in capsys.readouterr().err

    @pytest.mark.parametrize("option", ["--data", "--db", "--input", "--ckpt", "--pred", "--gold"])
    def test_non_utf8_input_names_file_and_offset(
        self, corpora, trained, tmp_path, capsys, option
    ):
        path = tmp_path / "bad.conll"
        path.write_bytes(b"John B-PER\ncaf\xe9 B-X\n\n")
        bad, out, ckpt = str(path), str(tmp_path / "out"), str(trained)
        train, dev = str(corpora["train"]), str(corpora["dev"])
        argv = {
            "--data": ["train", "--data", bad, "--out", out],
            "--db": ["tag", "--ckpt", ckpt, "--db", bad, "--input", dev, "--out", out],
            "--input": ["tag", "--ckpt", ckpt, "--db", train, "--input", bad, "--out", out],
            "--ckpt": ["tag", "--ckpt", bad, "--db", train, "--input", dev, "--out", out],
            "--pred": ["eval", "--pred", bad, "--gold", dev],
            "--gold": ["eval", "--pred", dev, "--gold", bad],
        }[option]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"copytag: error: {bad}: not UTF-8: byte 0xe9 at offset 14 "
            "(invalid continuation byte)\n"
        )
        assert list(tmp_path.iterdir()) == [path]

    def test_text_is_read_with_universal_newlines(self, tmp_path):
        path = tmp_path / "mixed.conll"
        path.write_bytes("a B-X\r\nb O\rcafé O\n\n".encode("utf-8"))
        with open(path, encoding="utf-8") as handle:
            assert _read_text(str(path)) == handle.read() == "a B-X\nb O\ncafé O\n\n"

    def test_corpus_error_names_file(self, corpora, tmp_path, capsys):
        gold = tmp_path / "one_column.conll"
        gold.write_text("John B-PER\nsmith\n")
        code = main(["eval", "--pred", str(corpora["dev"]), "--gold", str(gold)])
        assert code == 1
        err = capsys.readouterr().err
        assert str(gold) in err
        assert "line 2" in err

    @pytest.mark.parametrize("damage", ["truncate", "bad value", "bad config"])
    def test_checkpoint_error_names_file(
        self, corpora, trained, tmp_path, capsys, damage
    ):
        lines = trained.read_text().splitlines()
        if damage == "truncate":
            text = "\n".join(lines[:5]) + "\n"
            expected = "missing #params section"
        elif damage == "bad config":
            assert lines[1].startswith("dim=")
            lines[1] = "dim=abc"
            text = "\n".join(lines) + "\n"
            expected = "line 2: dim: invalid literal"
        else:
            number = next(i for i, line in enumerate(lines) if line.startswith("col "))
            parts = lines[number].split()
            parts[3] = "0.1.2"
            lines[number] = " ".join(parts)
            text = "\n".join(lines) + "\n"
            expected = f"line {number + 1}: "
        ckpt = tmp_path / "damaged.ckpt"
        ckpt.write_text(text)
        out = tmp_path / "pred.conll"
        code = main(
            [
                "tag",
                "--ckpt", str(ckpt),
                "--db", str(corpora["train"]),
                "--input", str(corpora["dev"]),
                "--out", str(out),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert f"copytag: error: {ckpt}: " in err
        assert expected in err
        assert not out.exists()

    def test_bad_segment_cost_without_dp(self, corpora, trained, tmp_path, capsys):
        # checked in every decode mode, also where the cost goes unused
        out = tmp_path / "pred.conll"
        code = main(
            [
                "tag",
                "--ckpt", str(trained),
                "--db", str(corpora["train"]),
                "--input", str(corpora["dev"]),
                "--out", str(out),
                "--decode", "marginal",
                "--c", "-1",
            ]
        )
        assert code == 1
        assert "segment_cost" in capsys.readouterr().err
        assert not out.exists()
        assert not (tmp_path / "pred.conll.manifest.json").exists()

    @pytest.mark.parametrize(
        "verb, option, value",
        [
            ("tag", "--c", "-1"),
            ("tag", "--c", "nan"),
            ("tag", "--c", "inf"),
            ("tag", "--neighbors", "0"),
            ("inspect", "--c", "-1"),
            ("inspect", "--neighbors", "0"),
            ("sweep", "--neighbors", "0"),
        ],
    )
    def test_bad_option_value_fails_before_loading(
        self, corpora, tmp_path, capsys, monkeypatch, verb, option, value
    ):
        def no_load(text):
            raise AssertionError("checkpoint loaded")

        monkeypatch.setattr("copytag.cli.load_checkpoint", no_load)
        files = {
            "tag": ["--input", str(corpora["dev"]), "--out", str(tmp_path / "pred.conll")],
            "inspect": ["--input", str(corpora["dev"]), "--sentence-id", "0"],
            "sweep": [
                "--data", str(corpora["dev"]), "--c-grid", "0,0.4",
                "--out", str(tmp_path / "sweep.csv"),
            ],
        }[verb]
        code = main(
            [
                verb,
                "--ckpt", str(corpora["train"]),
                "--db", str(corpora["train"]),
                *files,
                option, value,
            ]
        )
        message = {
            "--c": "segment_cost must be finite and non-negative",
            "--neighbors": "n_neighbors must be at least 1",
        }[option]
        assert code == 1
        assert f"copytag: error: {message}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "grid, message",
        [
            ("-1,0", "c grid value -1.0 at position 0: segment_cost must be"),
            ("nan,1", "c grid value nan at position 0: segment_cost must be"),
            ("0,0", "the c grid must be strictly ascending"),
            ("0.4,0.2", "the c grid must be strictly ascending"),
        ],
    )
    def test_bad_c_grid_value_fails_before_loading(
        self, corpora, tmp_path, capsys, monkeypatch, grid, message
    ):
        def no_load(text):
            raise AssertionError("checkpoint loaded")

        monkeypatch.setattr("copytag.cli.load_checkpoint", no_load)
        code = main(
            [
                "sweep",
                "--ckpt", str(corpora["train"]),
                "--db", str(corpora["train"]),
                "--data", str(corpora["dev"]),
                f"--c-grid={grid}",
                "--out", str(tmp_path / "sweep.csv"),
            ]
        )
        assert code == 1
        assert f"copytag: error: {message}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("verb", ["tag", "inspect", "sweep"])
    def test_overflowing_segment_cost_names_the_sentence(
        self, corpora, trained, tmp_path, capsys, verb
    ):
        # 1e308 is a valid cost, but a decode of two segments overflows
        out = tmp_path / "out"
        args = {
            "tag": ["--input", str(corpora["dev"]), "--out", str(out), "--decode", "dp", "--c", "1e308"],
            "inspect": ["--input", str(corpora["dev"]), "--sentence-id", "0", "--c", "1e308"],
            "sweep": ["--data", str(corpora["dev"]), "--c-grid", "0,1e308", "--out", str(out)],
        }[verb]
        code = main([verb, "--ckpt", str(trained), "--db", str(corpora["train"]), *args])
        n_tokens = len(corpora["dev"].read_text().split("\n\n")[0].splitlines())
        assert code == 1
        message = f"sentence 0: segment_cost 1e+308 could overflow the objective of a {n_tokens}-token decode"
        assert capsys.readouterr().err == f"copytag: error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("lr", ["inf", "-inf", "nan", "0"])
    def test_bad_learning_rate_fails_before_loading(
        self, corpora, tmp_path, capsys, monkeypatch, lr
    ):
        def no_load(path):
            raise AssertionError("training data loaded")

        monkeypatch.setattr("copytag.cli._load_dataset", no_load)
        out = tmp_path / "model.ckpt"
        code = main(
            [
                "train",
                "--data", str(corpora["train"]),
                "--epochs", "0",
                f"--lr={lr}",
                "--out", str(out),
            ]
        )
        assert code == 1
        message = "learning_rate must be positive and finite"
        assert f"copytag: error: {message}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_failure_stages_nothing(self, corpora, trained, tmp_path, capsys):
        out = tmp_path / "pred.conll"
        code = main(
            [
                "tag",
                "--ckpt", str(trained),
                "--db", str(tmp_path / "missing.conll"),
                "--input", str(corpora["dev"]),
                "--out", str(out),
            ]
        )
        assert code == 1
        assert not out.exists()
        assert not (tmp_path / "pred.conll.manifest.json").exists()

    def test_console_entry_point(self):
        # the child runs the same copytag this test imported
        src = str(Path(copytag.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "copytag", "--help"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        assert "retrieve-and-copy" in proc.stdout
