"""Command-line interface.

Five verbs: train, tag, eval, sweep, inspect. Every verb that produces a
file also writes `<out>.manifest.json` recording the resolved options,
input digests, and tool version, so a run can be reproduced from its
outputs. An output that resolves to an input or to another output is
refused before any work, and a bad --neighbors, --c or --c-grid value
before any file is loaded. Files are staged to temp paths and renamed
only after the whole verb succeeds, so a failure leaves nothing behind.

Exit codes: 0 success, 2 usage error, 1 runtime failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

import numpy as np

from . import __version__
from .corpus import CorpusError, Sentence, conll_blocks, parse_conll, write_conll
from .decoder import check_segment_cost, predict_marginal, provenance_lines
from .evaluation import check_c_grid, span_f1, sweep_c, sweep_csv, token_accuracy
from .tagging import DECODE_DP, DECODE_MARGINAL, Tagger, check_n_neighbors, predictions_dataset
from .trainer import (
    CheckpointError,
    TrainConfig,
    fine_tune,
    load_checkpoint,
    save_checkpoint,
)

TOOL = "copytag"

RUNTIME_EXIT = 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=TOOL,
        description="retrieve-and-copy sequence labeling",
    )
    sub = parser.add_subparsers(dest="verb", required=True, metavar="verb")

    defaults = TrainConfig()
    p = sub.add_parser("train", help="fine-tune the embedder on a labeled corpus")
    p.add_argument("--data", required=True, help="labeled CoNLL training corpus")
    p.add_argument("--dev", help="labeled CoNLL dev corpus for per-epoch accuracy")
    p.add_argument("--out", required=True, help="checkpoint file to write")
    p.add_argument("--lr", type=float, default=defaults.learning_rate)
    p.add_argument("--batch", type=int, default=defaults.batch_size)
    p.add_argument("--epochs", type=int, default=defaults.epochs)
    p.add_argument("--neighbors", type=int, default=defaults.train_neighbors,
                   help="training neighbors")
    p.add_argument("--seed", type=int, default=defaults.seed)

    p = sub.add_parser("tag", help="label new text by copying from a database")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--db", required=True, help="labeled CoNLL database")
    p.add_argument("--input", required=True, help="CoNLL or one-token-per-line text")
    p.add_argument("--out", required=True, help="CoNLL predictions file")
    p.add_argument("--neighbors", type=int, default=100)
    p.add_argument("--decode", choices=[DECODE_MARGINAL, DECODE_DP],
                   default=DECODE_MARGINAL)
    p.add_argument("--c", type=float, default=0.4, help="per-segment cost (dp)")
    p.add_argument("--explain", help="write per-segment provenance here (dp only)")

    p = sub.add_parser("eval", help="score predictions against gold labels")
    p.add_argument("--pred", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--spans", action="store_true", help="also report span F1")
    p.add_argument("--report", help="also write the metric lines to this file")

    p = sub.add_parser("sweep", help="decode at several segment costs, emit CSV")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--db", required=True)
    p.add_argument("--data", required=True, help="labeled CoNLL eval corpus")
    p.add_argument("--c-grid", dest="c_grid", required=True,
                   help="comma-separated ascending costs, e.g. 0,0.2,0.4")
    p.add_argument("--out", required=True, help="CSV file to write")
    p.add_argument("--neighbors", type=int, default=100)

    p = sub.add_parser("inspect", help="show copy sources for one sentence")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--db", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--sentence-id", dest="sentence_id", type=int, required=True)
    p.add_argument("--neighbors", type=int, default=100)
    p.add_argument("--c", type=float, default=0.4)

    return parser


# per verb: the options that name its input files, then its outputs
_FILES = {
    "train": (("data", "dev"), ("out",)),
    "tag": (("ckpt", "db", "input"), ("out", "explain")),
    "eval": (("pred", "gold"), ("report",)),
    "sweep": (("ckpt", "db", "data"), ("out",)),
    "inspect": (("ckpt", "db", "input"), ()),
}


def _paths(args: argparse.Namespace) -> tuple[list[str], list[str]]:
    """The given input files and outputs of the verb. A verb that writes
    also writes `<first output>.manifest.json`, last in the outputs."""
    inputs, outputs = (
        [p for p in (getattr(args, k) for k in keys) if p] for keys in _FILES[args.verb]
    )
    if outputs:
        outputs.append(f"{outputs[0]}.manifest.json")
    return inputs, outputs


def _check_paths(inputs: list[str], outputs: list[str]) -> None:
    """Refuse, before any work, an output that resolves to the same file
    as an input or an earlier output."""
    seen = {os.path.realpath(p): "an input" for p in inputs}
    for path in outputs:
        real = os.path.realpath(path)
        if real in seen:
            raise ValueError(f"output {path} would overwrite {seen[real]}")
        seen[real] = "another output"


def _commit(staged: list[tuple[str, str]]) -> None:
    """Write every staged (path, text) to a temp file, then rename them all;
    on a failure remove the temp files, so nothing lands on disk."""
    written = []
    try:
        for path, text in staged:
            tmp = f"{path}.tmp{os.getpid()}"
            with open(tmp, "w", encoding="utf-8") as handle:
                handle.write(text)
            written.append((tmp, path))
        for tmp, path in written:
            os.replace(tmp, path)
    except BaseException:
        for tmp, _ in written:
            try:
                os.unlink(tmp)
            except OSError:
                pass
        raise


def _read_text(path: str) -> str:
    # decoded whole, so a bad byte is named by its offset in the file, with
    # the newlines text mode reads and no UTF-8 byte order mark
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        bad = f"byte 0x{data[exc.start]:02x} at offset {exc.start} ({exc.reason})"
        raise ValueError(f"{path}: not UTF-8: {bad}") from None
    return text.removeprefix("\ufeff").replace("\r\n", "\n").replace("\r", "\n")


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _manifest(args: argparse.Namespace, inputs: list[str], outputs: list[str]) -> str:
    options = {k: v for k, v in vars(args).items() if k != "verb"}
    record = {
        "tool": TOOL,
        "version": __version__,
        "verb": args.verb,
        "options": options,
        "seed": getattr(args, "seed", None),
        "inputs": {path: _sha256(path) for path in inputs},
        "outputs": outputs,
    }
    return json.dumps(record, indent=2, sort_keys=True) + "\n"


def _load_dataset(path: str):
    try:
        return parse_conll(_read_text(path))
    except CorpusError as exc:
        raise CorpusError(f"{path}: {exc}") from exc


def _read_sentences(path: str) -> list[Sentence]:
    """Sentences from CoNLL-shaped text: the first column of each line."""
    sentences = [
        Sentence(uid, tuple(cols[0] for _, cols in block))
        for uid, block in enumerate(conll_blocks(_read_text(path)))
    ]
    if not sentences:
        raise ValueError(f"no sentences in {path}")
    return sentences


def _provider_from(ckpt_path: str):
    try:
        return load_checkpoint(_read_text(ckpt_path)).provider()
    except CheckpointError as exc:
        raise CheckpointError(f"{ckpt_path}: {exc}") from exc


def _cmd_train(args, parser, staged) -> None:
    config = TrainConfig(
        learning_rate=args.lr,
        batch_size=args.batch,
        epochs=args.epochs,
        train_neighbors=args.neighbors,
        seed=args.seed,
    )
    train_data = _load_dataset(args.data)
    dev_data = _load_dataset(args.dev) if args.dev else None
    checkpoint = fine_tune(config, train_data, dev_data)
    for entry in checkpoint.log:
        line = (
            f"epoch {entry.epoch} train_nll {entry.train_nll:.4f} "
            f"skipped {entry.skipped_tokens}"
        )
        if entry.dev_accuracy is not None:
            line += f" dev_accuracy {entry.dev_accuracy:.4f}"
        print(line)
    staged.append((args.out, save_checkpoint(checkpoint)))


def _cmd_tag(args, parser, staged) -> None:
    if args.explain and args.decode != DECODE_DP:
        parser.error("--explain requires --decode dp")
    check_n_neighbors(args.neighbors)
    check_segment_cost(args.c)
    provider = _provider_from(args.ckpt)
    db = _load_dataset(args.db)
    sentences = _read_sentences(args.input)
    tagger = Tagger(provider, db, args.neighbors)
    tagged = [
        tagger.tag(s, decode=args.decode, segment_cost=args.c) for s in sentences
    ]
    staged.append((args.out, write_conll(predictions_dataset(tagged))))
    if args.explain:
        lines = []
        for t in tagged:
            lines.append(f"# sentence {t.sentence.uid}")
            lines.extend(provenance_lines(t.decode, db.vocab.types))
        staged.append((args.explain, "\n".join(lines) + "\n"))


def _cmd_eval(args, parser, staged) -> None:
    pred = _load_dataset(args.pred)
    gold = _load_dataset(args.gold)
    lines = [f"token_accuracy {token_accuracy(pred, gold):.4f}"]
    if args.spans:
        precision, recall, f1 = span_f1(pred, gold)
        lines.append(f"precision {precision:.4f}")
        lines.append(f"recall {recall:.4f}")
        lines.append(f"f1 {f1:.4f}")
    for line in lines:
        print(line)
    if args.report:
        staged.append((args.report, "\n".join(lines) + "\n"))


def _cmd_sweep(args, parser, staged) -> None:
    try:
        grid = [float(v) for v in args.c_grid.split(",")]
    except ValueError:
        parser.error(f"--c-grid is not a comma-separated float list: {args.c_grid!r}")
    check_n_neighbors(args.neighbors)
    check_c_grid(grid)
    provider = _provider_from(args.ckpt)
    db = _load_dataset(args.db)
    data = _load_dataset(args.data)
    rows = sweep_c(grid, provider, db, data, args.neighbors)
    staged.append((args.out, sweep_csv(rows)))


def _cmd_inspect(args, parser, staged) -> None:
    check_n_neighbors(args.neighbors)
    check_segment_cost(args.c)
    sentences = _read_sentences(args.input)
    if not 0 <= args.sentence_id < len(sentences):
        raise ValueError(
            f"sentence id {args.sentence_id} out of range; "
            f"input has {len(sentences)} sentences"
        )
    provider = _provider_from(args.ckpt)
    db = _load_dataset(args.db)
    sentence = sentences[args.sentence_id]
    tagger = Tagger(provider, db, args.neighbors)
    tagged = tagger.tag(sentence, decode=DECODE_DP, segment_cost=args.c)
    analysis = tagged.analysis
    neighbors = analysis.neighbors
    names = db.vocab.types

    print(f"sentence {sentence.uid}: {' '.join(sentence.tokens)}")
    probs = np.exp(analysis.posterior)
    predicted = predict_marginal(analysis.marginals)
    for t, token in enumerate(sentence.tokens):
        j = int(probs[t].argmax())
        m, offset = neighbors.locate(j)
        source = db.items[int(neighbors.ids[m])].sentence
        source_label = names[neighbors.flat_labels[j]]
        print(
            f"token {t} {token!r} -> {names[predicted[t]]} "
            f"p={analysis.marginals.probs[t].max():.4f} "
            f"top-source neighbor:{m} (db sentence {source.uid}) "
            f"offset:{offset} {source.tokens[offset]!r} {source_label}"
        )

    print(f"dp decode at c={args.c:g}: objective {tagged.decode.objective:.4f}")
    for line in provenance_lines(tagged.decode, names):
        print(line)


_HANDLERS = {
    "train": _cmd_train,
    "tag": _cmd_tag,
    "eval": _cmd_eval,
    "sweep": _cmd_sweep,
    "inspect": _cmd_inspect,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    staged: list[tuple[str, str]] = []
    try:
        inputs, outputs = _paths(args)
        _check_paths(inputs, outputs)
        _HANDLERS[args.verb](args, parser, staged)
        if outputs:
            staged.append((outputs[-1], _manifest(args, inputs, outputs[:-1])))
        _commit(staged)
    except SystemExit as exc:
        # parser.error inside a handler: usage problems found after parsing
        return int(exc.code or 0)
    except Exception as exc:
        print(f"{TOOL}: error: {exc}", file=sys.stderr)
        return RUNTIME_EXIT
    return 0


if __name__ == "__main__":
    sys.exit(main())
