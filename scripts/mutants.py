"""Apply each recorded mutation alone and check that its tests fail.

Every row of MUTANTS names a file, an exact piece of its text, what to put
in its place and the tests that must then fail. The tree is copied once to
a temporary directory; each row is applied alone to that copy, only its
tests run there (`pytest -x`), and the file is restored before the next
row. The named tests first run on the unmutated copy and must pass there;
none of them is a byte pin, so the table holds on any platform.

Exit status 0 when every mutant is killed. It is 1 when a mutant survives,
when a row's old text is not in its file exactly once, or when a row's
tests do not pass on the unmutated tree or cannot be collected, so a
refactor of the mutated code must update the table.

    python3 scripts/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
EMBEDDINGS = "src/copytag/embeddings.py"
TRAINER = "src/copytag/trainer.py"
HELD_ROWS = "tests/test_embeddings.py::TestHeldRows"
HELD_QUERIES = "tests/test_index_batch.py::test_held_windows_embed_as_the_per_sentence_path"
BATCH_BUILD = "tests/test_index_batch.py::test_batched_build_matches_per_sentence_embedding"
PAIRWISE = "tests/test_embeddings.py::TestPairwiseOracle"
CACHE_SIZED = "tests/test_embeddings.py::TestCacheSizedForward"
FEATURIZER = "tests/test_embeddings.py::TestMatchesFeaturizerReference"
CAPPED = "tests/test_window_state.py::TestCappedState"
OUTLIVE_DROP = "tests/test_window_state.py::TestFeatureEntriesOutliveADrop"
BATCH_HASH = "tests/test_embeddings.py::TestBatchHash"
SEEDED = "tests/test_embeddings.py::TestSeededColumns"
SLOT_ORDER = "tests/test_embeddings.py::TestFeaturizeOnce::test_new_columns_take_slots_in_request_order"
POOLED = "tests/test_retrieval.py::TestBuildIndex::test_pooled_equals_the_mean_of_each_sentence"
DECODER = "src/copytag/decoder.py"
FRESH_NEIGHBORS = "tests/test_trainer.py::TestFineTune::test_neighbor_rows_equal_a_fresh_embedding"
PER_START = "tests/test_decoder.py::TestMatchesPerStartOracle"
PER_LEVEL = "tests/test_decoder.py::TestMatchesPerLevelOracle"
FLOATTEXT = "src/copytag/floattext.py"
MATCHES_REPR = "tests/test_floattext.py::TestMatchesRepr"
READS_AS_FLOAT = "tests/test_floattext.py::TestReadsAsFloat"
MASKED_MARGINALS = "tests/test_copy_model.py::TestMarginals::test_matches_masked_oracle_bit_for_bit"
NO_SEED = (
    "tests/test_embeddings.py::TestEmbedderParams::test_set_columns_seeds_no_column_it_writes",
    "tests/test_trainer.py::TestCheckpointFormat::test_load_seeds_no_column_it_loads",
)


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant(
        "set_columns keeps the held rows",
        EMBEDDINGS,
        "        self.revision += len(cols)\n        self._held = {}\n",
        "        self.revision += len(cols)\n",
        (HELD_ROWS, HELD_QUERIES),
    ),
    Mutant(
        "the cap drop keeps the window entries",
        EMBEDDINGS,
        "held, self._windows = {}, {}",
        "held = {}",
        (CAPPED,),
    ),
    Mutant(
        "the cap drop takes the feature entries under their bound",
        EMBEDDINGS,
        "if len(self._features) > MAX_HELD_ROWS:",
        "if True:",
        (OUTLIVE_DROP,),
    ),
    Mutant(
        "the cap drop keeps the feature entries past their bound",
        EMBEDDINGS,
        "if len(self._features) > MAX_HELD_ROWS:",
        "if False:",
        (OUTLIVE_DROP,),
    ),
    Mutant(
        "the cap drop keeps the row buffer of a call past the cap",
        EMBEDDINGS,
        "self._held, self._rows, new = held, np.zeros((0, self.dim)), list(dict.fromkeys(windows))",
        "self._held, new = held, list(dict.fromkeys(windows))",
        (CAPPED,),
    ),
    Mutant(
        "the cap is checked after holding",
        EMBEDDINGS,
        "if new and len(held) + len(new) > MAX_HELD_ROWS:",
        "if new and len(held) > MAX_HELD_ROWS:",
        (CAPPED,),
    ),
    Mutant(
        "windows held past the cap dropped when read again",
        EMBEDDINGS,
        "if new and len(held) + len(new) > MAX_HELD_ROWS:",
        "if len(held) + len(new) > MAX_HELD_ROWS:",
        (CAPPED,),
    ),
    Mutant(
        "set_columns seeds the columns it overwrites",
        EMBEDDINGS,
        "        slots[missing] = self._new_slots(columns[missing]) + np.arange(np.count_nonzero(missing))\n",
        "        slots = self.slots_for(columns)\n",
        NO_SEED,
    ),
    Mutant(
        "set_columns reads the storage before taking slots",
        EMBEDDINGS,
        "        slots[missing] = self._new_slots(columns[missing]) + np.arange(np.count_nonzero(missing))\n"
        "        # taking slots can grow and rebind the storage, so it is read after\n"
        "        self._store[slots] = values\n",
        "        store = self._store\n"
        "        slots[missing] = self._new_slots(columns[missing]) + np.arange(np.count_nonzero(missing))\n"
        "        store[slots] = values\n",
        NO_SEED,
    ),
    Mutant(
        "missing columns given slots in sorted order, not first-seen order",
        EMBEDDINGS,
        "            new = new[np.argsort(first[new])]\n",
        "",
        (SLOT_ORDER, BATCH_BUILD),
    ),
    Mutant(
        "a seeded block never scaled",
        EMBEDDINGS,
        "        rows *= INIT_STD\n",
        "",
        (SEEDED,),
    ),
    Mutant(
        "a seeded block scaled without its loc",
        EMBEDDINGS,
        "        rows += 0.0\n",
        "",
        (SEEDED,),
    ),
    Mutant(
        "a prefix state without its | byte",
        EMBEDDINGS,
        'f"{offset}|{name}|"',
        'f"{offset}{name}|"',
        (BATCH_HASH,),
    ),
    Mutant(
        "a prefix state for the negated offset",
        EMBEDDINGS,
        'f"{offset}|{name}|"',
        'f"{-offset}|{name}|"',
        (BATCH_HASH,),
    ),
    Mutant(
        "a copy shares the flat feature entries",
        EMBEDDINGS,
        "dup._key_ids, dup._key_slots = self._key_ids.copy(), self._key_slots.copy()",
        "dup._key_ids, dup._key_slots = self._key_ids, self._key_slots",
        ("tests/test_embeddings.py::TestEmbedderParams::test_copy_featurizes_apart",),
    ),
    Mutant(
        "new keys' bounds not offset by the ids already held",
        EMBEDDINGS,
        "            bounds += used\n",
        "",
        (FEATURIZER, "tests/test_embeddings.py::TestFeaturizeOnce"),
    ),
    Mutant(
        "held rows not copied when the buffer grows",
        EMBEDDINGS,
        "    grown[:used] = buffer[:used]\n",
        "",
        (HELD_ROWS,),
    ),
    Mutant(
        "raw sums held without tanh",
        EMBEDDINGS,
        "np.tanh(sums, out=self._rows[len(held) : len(held) + len(new)])",
        "self._rows[len(held) : len(held) + len(new)] = sums",
        (HELD_ROWS,),
    ),
    Mutant(
        "neighbor matrices concatenated in sorted-id order",
        TRAINER,
        "flat = np.concatenate([matrices[nid] for nid in neighbors.ids.tolist()])",
        "flat = np.concatenate([matrices[nid] for nid in sorted(neighbors.ids.tolist())])",
        (FRESH_NEIGHBORS,),
    ),
    Mutant(
        "neighbor rows kept from the index build",
        TRAINER,
        "flat = np.concatenate([matrices[nid] for nid in neighbors.ids.tolist()])",
        "flat = index.token_rows.take(neighbors.rows, axis=0)",
        (FRESH_NEIGHBORS,),
    ),
    Mutant(
        "backprop fetches the window entries again",
        TRAINER,
        "provider.backprop(item.sentence, entries, d_input, embeddings)",
        "provider.backprop(item.sentence, provider.token_columns(item.sentence), d_input, embeddings)",
        ("tests/test_trainer.py::TestFineTune::test_token_columns_built_once_per_forward_pass",),
    ),
    Mutant(
        "backprop accepts the entries of fewer tokens",
        EMBEDDINGS,
        "if len(entries) != len(sentence):",
        "if len(entries) > len(sentence):",
        ("tests/test_embeddings.py::TestBackprop::test_columns_of_another_sentence_rejected",),
    ),
    Mutant(
        "the storage read before featurizing grows it",
        EMBEDDINGS,
        "            entries = self._window_entries(new)\n"
        "            # featurizing can grow and rebind the storage, so it is read after\n"
        "            sums = _entry_sums(self._store, entries)\n",
        "            sums = _entry_sums(self._store, self._window_entries(new))\n",
        ("tests/test_embeddings.py::TestEmbedTokens::test_shape_and_range",),
    ),
    Mutant(
        "pairwise split not rounded down to a multiple of 8",
        EMBEDDINGS,
        "half = n // 2 - n // 2 % 8",
        "half = n // 2",
        (PAIRWISE,),
    ),
    Mutant(
        "pairwise tree adds its first half twice",
        EMBEDDINGS,
        "return _tree_sum(sums, tree[0]) + _tree_sum(sums, tree[1])",
        "return _tree_sum(sums, tree[0]) + _tree_sum(sums, tree[0])",
        (PAIRWISE,),
    ),
    Mutant(
        "+0.0 in place of -0.0 as the sum of no rows",
        EMBEDDINGS,
        "sums = np.full((where.size, dim), -0.0)",
        "sums = np.full((where.size, dim), 0.0)",
        (PAIRWISE,),
    ),
    Mutant(
        "lane sums stored in group order, not leftover order",
        EMBEDDINGS,
        "sums[where[by_group[: steps[0] if steps else 0]]] = pairs[0] + pairs[1]",
        "sums[by_group[: steps[0] if steps else 0]] = pairs[0] + pairs[1]",
        (PAIRWISE, CACHE_SIZED),
    ),
    Mutant(
        "leftover steps added last-first",
        EMBEDDINGS,
        "    at = k\n"
        "    for size in in_left.sum(axis=1).tolist():\n"
        "        sums[:size] += head[at : at + size]\n"
        "        at += size\n",
        "    at = head.shape[0]\n"
        "    for size in in_left.sum(axis=1).tolist()[::-1]:\n"
        "        at -= size\n"
        "        sums[:size] += head[at : at + size]\n",
        (PAIRWISE, CACHE_SIZED),
    ),
    Mutant(
        "new keys featurized in reverse order",
        EMBEDDINGS,
        "new = list(dict.fromkeys(key for key, n in zip(keys, numbers.tolist()) if n < 0))",
        "new = list(dict.fromkeys(key for key, n in zip(keys, numbers.tolist()) if n < 0))[::-1]",
        ("tests/test_embeddings.py::TestFeaturizeOnce", "tests/test_embeddings.py::TestEmbedderParams"),
    ),
    Mutant(
        "windows read across the sentence end",
        EMBEDDINGS,
        "(w, tokens[t - w : t + w + 1])",
        "(w, (tokens * 2)[t - w : t + w + 1])",
        (FEATURIZER, BATCH_BUILD),
    ),
    Mutant(
        "windows not clipped at the sentence start",
        EMBEDDINGS,
        "(t, tokens[: t + w + 1])",
        "(t, tokens[t - w : t + w + 1])",
        (FEATURIZER, BATCH_BUILD),
    ),
    Mutant(
        "a window key without its place",
        EMBEDDINGS,
        "(w, tokens[t - w : t + w + 1])",
        "(0, tokens[t - w : t + w + 1])",
        (FEATURIZER,),
    ),
    Mutant(
        "repeated sentences read another sentence's rows",
        EMBEDDINGS,
        "chain.from_iterable(_windows(s.tokens, w) for s in sentences)",
        "chain.from_iterable(_windows(t, w) for t in dict.fromkeys(s.tokens for s in sentences))",
        (BATCH_BUILD,),
    ),
    Mutant(
        "the gather reads the next held row",
        EMBEDDINGS,
        "held.update(zip(new, range(len(held), len(held) + len(new))))",
        "held.update(zip(new, range(len(held) + 1, len(held) + len(new) + 1)))",
        (HELD_ROWS, HELD_QUERIES),
    ),
    Mutant(
        "an exact tie also yields to equal labels",
        DECODER,
        "if new >= labels[other] + seg_dict.path(*copy):",
        "if new > labels[other] + seg_dict.path(*copy):",
        (PER_START,),
    ),
    Mutant(
        "an exact tie keeps the larger labels",
        DECODER,
        "if new >= labels[other] + seg_dict.path(*copy):",
        "if new <= labels[other] + seg_dict.path(*copy):",
        (PER_START,),
    ),
    Mutant(
        "an exact tie always takes the new copy",
        DECODER,
        "                if new >= labels[other] + seg_dict.path(*copy):\n"
        "                    continue\n",
        "",
        (PER_START,),
    ),
    Mutant(
        "a prefix's labels built without the prefix before it",
        DECODER,
        "labels.append(labels[prev] + seg_dict.path(length, rank))",
        "labels.append(seg_dict.path(length, rank))",
        (PER_START, "tests/test_decoder.py::TestDPExpected"),
    ),
    Mutant(
        "an earlier rank that rounds to the minimum never looked for",
        DECODER,
        "if rank and base + earlier[length - 1] == value:",
        "if False:",
        (PER_START,),
    ),
    Mutant(
        "the first rank found without the prefix cost",
        DECODER,
        "return int((base + step).argmin())",
        "return int(step.argmin())",
        (PER_START,),
    ),
    Mutant(
        "an exemplar's run ends at lcp <= length",
        DECODER,
        "while self.lcp[last + 1] >= length:",
        "while self.lcp[last + 1] > length:",
        (PER_LEVEL,),
    ),
    Mutant(
        "an exemplar taken from the sequence's own window",
        DECODER,
        "return self.neighbors.locate(min(self.positions[first : last + 1]))",
        "return self.neighbors.locate(self.positions[first])",
        (PER_LEVEL,),
    ),
    Mutant(
        "an odd significand's integer right endpoint not excluded",
        FLOATTEXT,
        "out = (low == 0) & (r == 0) & (c & _U64(1) == 1)",
        "out = low != low",
        (MATCHES_REPR,),
    ),
    Mutant(
        "the parity product never moves the extra digit down",
        FLOATTEXT,
        "    f[whole] -= below | tie\n",
        "    f[whole] -= tie\n",
        (MATCHES_REPR,),
    ),
    Mutant(
        "an exact tie not broken to even",
        FLOATTEXT,
        "    f[whole] -= below | tie\n",
        "    f[whole] -= below\n",
        (MATCHES_REPR,),
    ),
    Mutant(
        "r == delta left to the extra digit",
        FLOATTEXT,
        "edge = np.flatnonzero(r == delta)",
        "edge = np.flatnonzero(r != r)",
        (MATCHES_REPR,),
    ),
    Mutant(
        "the shorter interval's left endpoint never an integer",
        FLOATTEXT,
        "integral = (e == 2) | (e == 3)",
        "integral = e != e",
        (MATCHES_REPR,),
    ),
    Mutant(
        "the exponent switch at decpt < -4",
        FLOATTEXT,
        "fixed = (decpt > -4) & (decpt <= 16)",
        "fixed = (decpt >= -4) & (decpt <= 16)",
        (MATCHES_REPR,),
    ),
    Mutant(
        "trailing zeros kept",
        FLOATTEXT,
        "np.concatenate([np.where(trail, 0, digits), digits])",
        "np.concatenate([digits, digits])",
        (MATCHES_REPR,),
    ),
    Mutant(
        "a value read midway not rounded half to even",
        FLOATTEXT,
        "    mantissa &= ~midway.astype(np.uint64)\n",
        "",
        (f"{READS_AS_FLOAT}::test_halfway_spellings_round_to_even",),
    ),
    Mutant(
        "the exact division taken up to 2**54",
        FLOATTEXT,
        "_EXACT = _U64(1 << 53)",
        "_EXACT = _U64(1 << 54)",
        (READS_AS_FLOAT,),
    ),
    Mutant(
        "two points in one word read as one",
        FLOATTEXT,
        "counts = ((point >> _U64(7)) * _ONES) >> _U64(56)",
        "counts = (point != 0).astype(np.uint64)",
        (f"{READS_AS_FLOAT}::test_rejected_with_the_error_of_float",),
    ),
    Mutant(
        "the second 64-bit product skipped",
        FLOATTEXT,
        "second = np.flatnonzero((high & _U64(0x1FF)) == _U64(0x1FF))",
        "second = np.flatnonzero(high != high)",
        (READS_AS_FLOAT,),
    ),
    Mutant(
        "a type's marginal summed in reverse token order",
        "src/copytag/copy_model.py",
        "grouped[:, lo:hi].sum(axis=1)",
        "grouped[:, lo:hi][:, ::-1].sum(axis=1)",
        (MASKED_MARGINALS,),
    ),
    Mutant(
        "pooling rows added last-first",
        "src/copytag/retrieval.py",
        "    for p, m in enumerate(live.tolist(), start=1):\n",
        "    for p, m in reversed(list(enumerate(live.tolist(), start=1))):\n",
        (POOLED, BATCH_BUILD),
    ),
    Mutant(
        "neighbor tokens grouped by type in reverse order",
        "src/copytag/retrieval.py",
        'np.argsort(flat_labels, kind="stable")',
        'np.argsort(flat_labels, kind="stable")[::-1]',
        (MASKED_MARGINALS,),
    ),
    Mutant(
        "locate counts the offset from the previous entry",
        "src/copytag/retrieval.py",
        "return m, pos - self.starts.item(m)",
        "return m, pos - self.starts.item(max(m - 1, 0))",
        ("tests/test_retrieval.py::TestLocate",),
    ),
)


def _pytest(tree: Path, tests) -> int:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(command, cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def main() -> int:
    failures = []
    with tempfile.TemporaryDirectory(prefix="copytag-mutants-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(
            ROOT, tree, ignore=shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis")
        )
        tests = sorted({test for mutant in MUTANTS for test in mutant.tests})
        if _pytest(tree, tests) != 0:
            print(f"the named tests do not pass on the unmutated tree: {' '.join(tests)}")
            return 1
        for mutant in MUTANTS:
            path = tree / mutant.path
            text = path.read_text(encoding="utf-8")
            count = text.count(mutant.old)
            if count != 1:
                outcome = f"old text found {count} times in {mutant.path}"
            else:
                path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
                try:
                    code = _pytest(tree, mutant.tests)
                finally:
                    path.write_text(text, encoding="utf-8")
                # pytest exits 1 when a test failed; other codes mean the
                # tests were not run as named
                outcome = {0: "SURVIVED", 1: "killed"}.get(code, f"pytest exit status {code}")
            print(f"{outcome:>10}  {mutant.name}")
            if outcome != "killed":
                failures.append(mutant.name)
    print(f"{len(MUTANTS) - len(failures)} of {len(MUTANTS)} mutants killed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
