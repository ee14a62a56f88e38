"""Runs one workload: training, set-up, tagging and sweeps, timed and checked.

After an untimed warm-up, a run goes through rounds. Each round does, on
fresh objects:

* train: fine_tune for one epoch plus save_checkpoint, which is what
  `copytag train` spends;
* setup: load_checkpoint of that checkpoint, parse_conll of the db and
  Tagger(...), which is what `copytag tag` spends before it tags;
* a query pass over chunk r of the query stream: each sentence is tagged
  with marginal decoding and then with dp decoding, which reuses the
  featurization the first call did; then the first sentences of the chunk
  are swept over the c grid.

Every round samples each phase, so each metric is drawn from the whole run
rather than from one stretch of it: on a shared machine the speed drifts
over seconds. A run has at least MIN_ROUNDS rounds and adds more while the
next is expected to end within the measuring time. Outputs are checked
after each operation, outside its timed region, and calibrate.py's
reference kernel is timed before it.

A traced run does two rounds: the first with the spans of tracing.py
recorded, the second without, and the difference is the tracing overhead.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from time import perf_counter

import numpy as np

import copytag
import copytag.corpus as corpus
import copytag.evaluation as evaluation
import copytag.tagging as tagging
import copytag.trainer as trainer
from calibrate import REFERENCE_S, time_kernel
from checks import check_dp, check_marginal, check_sweep
from copytag.corpus import Dataset, build_dataset, write_conll
from copytag.decoder import provenance_lines
from tracing import Tracer, instrument, layer_metrics, phase_coverage
from workloads import Inputs, Workload, sha256

# name, unit, better. Times are at the reference speed of calibrate.py: on a
# shared machine one process's speed swings by up to 2x, in bursts and in
# drifts over minutes. The fastest of many samples drops the bursts, and the
# reference kernel, timed between operations, cancels the drift. Raw times,
# medians and percentiles stay in the run record.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("tag_marginal_min_ms", "ms", "lower"),
    ("tag_dp_min_ms", "ms", "lower"),
    ("sweep_min_s", "s", "lower"),
    ("train_epoch_min_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("token_accuracy", "ratio", "higher"),
    ("span_f1", "ratio", "higher"),
    ("dev_accuracy", "ratio", "higher"),
)

# name, unit
PER_LAYER = (
    ("embeddings.self_s", "s"),
    ("embeddings.embed_s", "s"),
    ("embeddings.embed_tokens", "count"),
    ("embeddings.featurize_s", "s"),
    ("embeddings.featurize_hit_ratio", "ratio"),
    ("embeddings.backprop_s", "s"),
    ("retrieval.self_s", "s"),
    ("retrieval.build_index_s", "s"),
    ("retrieval.index_tokens", "count"),
    ("retrieval.query_s", "s"),
    ("retrieval.assemble_s", "s"),
    ("retrieval.neighbor_tokens", "count"),
    ("retrieval.distinct_neighbor_ratio", "ratio"),
    ("copy_model.self_s", "s"),
    ("copy_model.posterior_s", "s"),
    ("copy_model.posterior_cells", "count"),
    ("copy_model.marginals_s", "s"),
    ("copy_model.loss_s", "s"),
    ("decoder.self_s", "s"),
    ("decoder.segdict_s", "s"),
    ("decoder.segdict_nodes", "count"),
    ("decoder.dp_s", "s"),
    ("decoder.argmax_s", "s"),
    ("tagging.self_s", "s"),
    ("trainer.self_s", "s"),
    ("trainer.adam_s", "s"),
    ("trainer.adam_columns", "count"),
    ("trainer.reembed_s", "s"),
    ("trainer.ckpt_save_s", "s"),
    ("trainer.ckpt_load_s", "s"),
    ("trainer.ckpt_bytes", "B"),
    ("evaluation.self_s", "s"),
    ("evaluation.score_s", "s"),
    ("corpus.self_s", "s"),
    ("corpus.parse_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_pct", "%"),
    ("trace.coverage_min", "ratio"),
    ("trace.spans", "count"),
)

COVERAGE_FLOOR = 0.95
MIN_ROUNDS = 5
# a long operation needs more samples before its fastest one is a calm one
TRAINS_PER_ROUND = 3
SWEEPS_PER_ROUND = 3
MAX_PROBLEMS = 20


@dataclass
class Outcome:
    """Operations attempted and failed, with the first problems found."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            room = MAX_PROBLEMS - len(self.problems)
            self.problems.extend(f"{what}: {p}" for p in problems[:max(room, 0)])


def _attempt(outcome: Outcome, what: str, fn):
    """Call fn; an exception counts the operation as failed."""
    try:
        return fn()
    except Exception as exc:  # the run goes on and reports the failure
        outcome.record(what, [f"raised {type(exc).__name__}: {exc}"])
        return None


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _distribution(values: list[float]) -> dict[str, float]:
    return {
        "min": min(values),
        "p10": percentile(values, 10),
        "p25": percentile(values, 25),
        "median": statistics.median(values),
        "p90": percentile(values, 90),
        "mean": statistics.fmean(values),
    }


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "copytag": copytag.__version__,
        "threads": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


@dataclass
class Samples:
    """Outputs of the query passes, in order, with their gold datasets."""

    marginal: list = field(default_factory=list)
    dp: list = field(default_factory=list)
    gold_rows: list = field(default_factory=list)


class Run:
    def __init__(self, workload: Workload, seed: int, seconds: float, trace: bool):
        if seconds <= 0:
            raise ValueError("seconds must be positive")
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.inputs = Inputs(workload, seed)
        self.outcome = Outcome()
        self.tracer = Tracer()
        self.times: dict[str, list[float]] = {
            "train": [], "setup": [], "tag_marginal": [], "tag_dp": [], "sweep": [],
        }
        self.kernel_s: list[float] = []  # reference kernel, before each operation
        self.round_s: list[float] = []  # wall time of each round
        self.round_ops_s: list[float] = []  # time of its timed operations
        self.digests: dict[str, str] = {}
        self.dev_accuracy: float | None = None
        self.scored = Samples()
        self.coverage: dict[str, float] = {}

    def _train_config(self) -> trainer.TrainConfig:
        return trainer.TrainConfig(
            batch_size=self.w.batch_size,
            epochs=1,
            train_neighbors=self.w.train_neighbors,
            test_neighbors=self.w.neighbors,
            seed=self.seed,
        )

    def _op(self, phase: str, fn):
        """Time fn as one operation; None if it raised."""
        self.kernel_s.append(time_kernel())

        def timed():
            with self.tracer.phase(phase):
                start = perf_counter()
                result = fn()
                return result, perf_counter() - start

        got = _attempt(self.outcome, phase, timed)
        if got is None:
            return None
        result, took = got
        self.times[phase].append(took)
        self.round_ops_s[-1] += took
        return result

    # -- phases ---------------------------------------------------------

    def warm_up(self, train: Dataset) -> None:
        """Untimed: a tiny fine_tune, then one sentence tagged both ways."""
        small = Dataset(train.items[: min(16, len(train.items))], train.vocab)
        config = replace(self._train_config(), train_neighbors=2, test_neighbors=2)
        provider = trainer.fine_tune(config, small).provider()
        tagger = tagging.Tagger(provider, small, min(self.w.neighbors, len(small)))
        sentence = corpus.parse_conll(self.inputs.chunk_text(0, size=1)).items[0].sentence
        tagger.tag(sentence)
        tagger.tag(sentence, decode=tagging.DECODE_DP)

    def train(self, train: Dataset, dev: Dataset) -> str | None:
        def op():
            checkpoint = trainer.fine_tune(self._train_config(), train, dev)
            return checkpoint, trainer.save_checkpoint(checkpoint)

        got = self._op("train", op)
        if got is None:
            return None
        checkpoint, text = got
        problems = []
        dev_acc = checkpoint.log[0].dev_accuracy if len(checkpoint.log) == 1 else None
        if dev_acc is None or not 0.0 <= dev_acc <= 1.0:
            problems.append(f"training log {checkpoint.log} lacks one dev accuracy")
        if self.dev_accuracy is None:
            self.dev_accuracy = dev_acc
        if self.digests.setdefault("checkpoint", sha256(text)) != sha256(text):
            problems.append("a rerun of training wrote a different checkpoint")
        self.outcome.record("train", problems)
        return text

    def setup(self, ckpt_text: str, check_round_trip: bool):
        def op():
            checkpoint = trainer.load_checkpoint(ckpt_text)
            db = corpus.parse_conll(self.inputs.db_text)
            return checkpoint, db, tagging.Tagger(checkpoint.provider(), db, self.w.neighbors)

        got = self._op("setup", op)
        if got is None:
            return None
        checkpoint, db, tagger = got
        problems = []
        if check_round_trip and trainer.save_checkpoint(checkpoint) != ckpt_text:
            problems.append("save_checkpoint(load_checkpoint(text)) differs from text")
        self.outcome.record("setup", problems)
        return db, tagger

    def query_pass(self, r: int, db: Dataset, tagger) -> Samples:
        gold = corpus.parse_conll(self.inputs.chunk_text(r))
        types = db.vocab.types
        out = Samples(gold_rows=[(it.sentence.tokens, gold.label_names(it)) for it in gold.items])
        for item in gold.items:
            for decode, check, dest in (
                (tagging.DECODE_MARGINAL, check_marginal, out.marginal),
                (tagging.DECODE_DP, check_dp, out.dp),
            ):
                phase = f"tag_{decode}"
                tagged = self._op(phase, lambda: tagger.tag(
                    item.sentence, decode=decode, segment_cost=self.w.segment_cost))
                if tagged is not None:
                    self.outcome.record(phase, check(tagged, types))
                    dest.append(tagged)

        head = Dataset(gold.items[: self.w.sweep_size], gold.vocab)
        grid = list(self.w.c_grid)
        first_csv = None
        for _ in range(SWEEPS_PER_ROUND):
            rows = self._op("sweep", lambda: evaluation.sweep_c(
                grid, tagger.provider, db, head, self.w.neighbors))
            if rows is None:
                continue
            marginal = out.marginal[: len(head.items)]
            if len(out.marginal) < len(gold.items):
                problems = ["marginal predictions for the swept sentences are missing"]
            else:
                accuracy = evaluation.token_accuracy(
                    tagging.predictions_dataset(marginal), head)
                problems = check_sweep(rows, grid, accuracy)
            csv = evaluation.sweep_csv(rows)
            first_csv = first_csv or csv
            if csv != first_csv:
                problems.append("a rerun of the sweep wrote a different CSV")
            self.outcome.record("sweep", problems)
        if r == 1 and first_csv is not None:
            self.digests["sweep_csv"] = sha256(first_csv)
        if r == 1:
            self._digest_predictions(out, types)
        return out

    def _digest_predictions(self, out: Samples, types) -> None:
        if len(out.marginal) == len(out.gold_rows):
            pred = tagging.predictions_dataset(out.marginal)
            self.digests["predictions_marginal"] = sha256(write_conll(pred))
        if len(out.dp) == len(out.gold_rows):
            pred = tagging.predictions_dataset(out.dp)
            self.digests["predictions_dp"] = sha256(write_conll(pred))
            explain = []
            for t in out.dp:
                explain.append(f"# sentence {t.sentence.uid}")
                explain.extend(provenance_lines(t.decode, types))
            self.digests["explain"] = sha256("\n".join(explain) + "\n")

    def _score(self, out: Samples) -> None:
        """Pool the first MIN_ROUNDS passes, which every run makes, for quality."""
        self.scored.marginal += out.marginal
        self.scored.dp += out.dp
        self.scored.gold_rows += out.gold_rows

    def one_round(self, r: int, train: Dataset, dev: Dataset) -> bool:
        texts = [self.train(train, dev) for _ in range(TRAINS_PER_ROUND)]
        if None in texts:
            return False
        ckpt_text = texts[0]
        ready = self.setup(ckpt_text, check_round_trip=r == 1)
        if ready is None:
            return False
        out = self.query_pass(r, *ready)
        if r <= MIN_ROUNDS:
            self._score(out)
        return True

    def execute(self) -> dict:
        train = corpus.parse_conll(self.inputs.train_text)
        dev = corpus.parse_conll(self.inputs.dev_text)
        with instrument(self.tracer) if self.trace else nullcontext():
            self.warm_up(train)
            r = 1
            while True:
                self.tracer.recording = self.trace and r == 1
                self.round_ops_s.append(0.0)
                start = perf_counter()
                ok = self.one_round(r, train, dev)
                self.tracer.recording = False
                self.round_s.append(perf_counter() - start)
                if not ok:
                    break
                r += 1
                if r <= (2 if self.trace else MIN_ROUNDS):
                    continue
                if self.trace or sum(self.round_s) + self.round_s[-1] > self.seconds:
                    break
        return self.report()

    # -- results --------------------------------------------------------

    def speed_factor(self) -> float:
        """Multiplier that brings this run's times to the reference speed."""
        return REFERENCE_S / min(self.kernel_s)

    def raw_times(self) -> dict[str, float | None]:
        t = self.times

        def best(samples, scale=1.0):
            return scale * min(samples) if samples else None

        return {
            "setup_s": statistics.median(t["setup"]) if t["setup"] else None,
            "tag_marginal_min_ms": best(t["tag_marginal"], 1000.0),
            "tag_dp_min_ms": best(t["tag_dp"], 1000.0),
            "sweep_min_s": best(t["sweep"]),
            "train_epoch_min_s": best(t["train"]),
        }

    def end_to_end(self) -> dict[str, float | None]:
        factor = self.speed_factor()
        values = {
            name: None if raw is None else raw * factor
            for name, raw in self.raw_times().items()
        }
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values["dev_accuracy"] = self.dev_accuracy
        s = self.scored
        n = len(s.gold_rows)
        if n and len(s.marginal) == n and len(s.dp) == n:
            gold = build_dataset(s.gold_rows)
            values["token_accuracy"] = evaluation.token_accuracy(
                tagging.predictions_dataset(s.marginal), gold)
            values["span_f1"] = evaluation.span_f1(
                tagging.predictions_dataset(s.dp), gold)[2]
        return values

    def per_layer(self) -> dict[str, float]:
        values = layer_metrics(self.tracer)
        self.coverage = phase_coverage(self.tracer)
        low = {p: c for p, c in self.coverage.items() if c < COVERAGE_FLOOR}
        self.outcome.record(
            "trace", [f"layer spans cover {c:.3f} of phase {p}" for p, c in low.items()])
        if len(self.round_ops_s) > 1:
            traced, untraced = self.round_ops_s[:2]
            values["trace.overhead_s"] = traced - untraced
            values["trace.overhead_pct"] = 100.0 * (traced - untraced) / untraced
        values["trace.coverage_min"] = min(self.coverage.values(), default=None)
        values["trace.spans"] = len(self.tracer.spans)
        return values

    def report(self) -> dict:
        if self.trace:
            values, specs = self.per_layer(), PER_LAYER
        else:
            values, specs = self.end_to_end(), [(n, u) for n, u, _ in END_TO_END]
        missing = [name for name, _ in specs if values.get(name) is None]
        self.outcome.record("metrics", [f"no value for {n}" for n in missing])
        metrics = {
            name: {"value": values.get(name), "unit": unit} for name, unit in specs
        }
        return {
            "workload": self.w.name,
            "seed": self.seed,
            "seconds": self.seconds,
            "trace": int(self.trace),
            "correct": self.outcome.failed == 0,
            "attempted": self.outcome.attempted,
            "failed": self.outcome.failed,
            "fail_ratio": self.outcome.failed / max(self.outcome.attempted, 1),
            "problems": self.outcome.problems,
            "metrics": metrics,
            "samples": {phase: len(v) for phase, v in self.times.items()},
            "raw_times": self.raw_times(),
            "kernel_s": {"min": min(self.kernel_s, default=None),
                         "median": statistics.median(self.kernel_s) if self.kernel_s else None,
                         "reference": REFERENCE_S},
            "distribution_s": {
                phase: _distribution(v) for phase, v in self.times.items() if v
            },
            "rounds": len(self.round_s),
            "round_s": self.round_s,
            "digests": {**self.inputs.digests, **self.digests},
            "coverage": self.coverage,
            "environment": environment(),
        }


def run(workload: Workload, seed: int, seconds: float, trace: bool) -> tuple[dict, Tracer]:
    job = Run(workload, seed, seconds, trace)
    return job.execute(), job.tracer
