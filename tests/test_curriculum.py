import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hicu import cli, curriculum, network
from hicu.checkpoint import read_container, write_container
from hicu.curriculum import (
    SCORE_BATCH_SIZE,
    CurriculumConfig,
    Trainer,
    inspect_attention,
    load_model,
    score_dataset,
)
from hicu.data import (
    Dataset,
    Document,
    SynthConfig,
    Vocab,
    build_vocab,
    load_dataset,
    load_embeddings,
    synth_generate,
    tokenize,
)
from hicu.icd import ROOT, LabelTree, Node, build_label_tree, parse_code_auto
from hicu.losses import bce, sigmoid
from hicu.metrics import evaluate, macro_micro_f1, precision_at_k
from hicu.network import (
    AdamState,
    DecoderParams,
    adam_step,
    backward,
    forward,
    init_encoder,
)

from conftest import transferred_queries


@pytest.fixture(scope="module")
def tiny_cfg():
    return CurriculumConfig(
        epochs_per_level=(1, 1, 1, 1, 2), batch_size=16, lr=2e-3,
        d_e=12, d_f=12, seed=0, patience=5,
    )


class TestKnowledgeTransfer:
    def test_children_copy_parent_columns(self):
        rng = np.random.default_rng(0)
        q = rng.normal(size=(4, 3))
        a, b, c = (Node(1, label) for label in "abc")
        tree = LabelTree({a: ROOT, b: ROOT, c: ROOT, Node(2, "v"): a, Node(2, "w"): a,
                          Node(2, "x"): c, Node(2, "y"): b, Node(2, "z"): c}, k_max=2)
        pmap = np.array([0, 0, 2, 1, 2])
        assert np.array_equal(tree.ancestor_index_map(2, 1), pmap)
        out = transferred_queries(q, tree, 1)
        assert out.shape == (4, 5)
        for j, p in enumerate(pmap):
            assert np.array_equal(out[:, j], q[:, p])

    def test_siblings_start_identical(self, small_setup):
        _, atree, _, _ = small_setup
        rng = np.random.default_rng(1)
        for k in range(1, atree.k_max):
            q = rng.normal(size=(6, len(atree.level_labels(k))))
            child_q = transferred_queries(q, atree, k)
            nodes = atree.nodes_at_level(k + 1)
            for i, a in enumerate(nodes):
                for j, b in enumerate(nodes):
                    if atree.parent[a] == atree.parent[b]:
                        assert np.array_equal(child_q[:, i], child_q[:, j])


class TestAncestorMonotonicity:
    @given(st.integers(0, 2**20))
    @settings(max_examples=30, deadline=None)
    def test_positive_counts_never_increase_downward(self, seed):
        """A document has at least as many positives at level k+1 as unique
        ancestors at level k, and every level-k positive has a positive child."""
        cfg = SynthConfig(branching=(2, 2, 2, 2, 2), docs_per_split=(1, 1, 1),
                          doc_length=64, seed=seed % 100)
        corpus = synth_generate(cfg)
        atree = corpus.tree
        rng = np.random.default_rng(seed)
        n_leaf = len(atree.level_labels(atree.k_max))
        y = (rng.random((4, n_leaf)) < 0.25).astype(np.float64)
        prev = None
        for k in range(1, atree.k_max + 1):
            yk = atree.ancestor_targets(y, k)
            assert set(np.unique(yk)) <= {0.0, 1.0}
            if prev is not None:
                pmap = atree.ancestor_index_map(k, k - 1)
                # a child can only be positive when its parent is positive
                for d in range(4):
                    for j in range(yk.shape[1]):
                        if yk[d, j]:
                            assert prev[d, pmap[j]] == 1.0
                assert yk.sum() >= prev.sum()
            prev = yk


class TestTrainerMechanics:
    def test_levels_progress_in_order(self, small_setup, tiny_cfg):
        _, atree, vocab, splits = small_setup
        trainer = Trainer(splits["train"], splits["valid"], atree, None, tiny_cfg)
        trainer.run()
        levels = [r["level"] for r in trainer.records]
        assert levels == sorted(levels)
        assert levels[0] == 1 and levels[-1] == atree.k_max
        assert set(levels) == {1, 2, 3, 4, 5}

    def test_decoder_width_tracks_level(self, small_setup, tiny_cfg):
        _, atree, vocab, splits = small_setup
        trainer = Trainer(splits["train"], splits["valid"], atree, None, tiny_cfg)
        while not trainer.finished:
            assert trainer.decoder.n_labels == len(atree.level_labels(trainer.level))
            trainer.step_epoch()

    def test_training_is_deterministic(self, small_setup, tiny_cfg):
        _, atree, vocab, splits = small_setup
        runs = []
        for _ in range(2):
            t = Trainer(splits["train"], splits["valid"], atree, None, tiny_cfg)
            t.run()
            runs.append((t.best_state(), t.records))
        a, b = runs
        assert np.array_equal(a[0].decoder.Q, b[0].decoder.Q)
        assert np.array_equal(a[0].encoder.kernel, b[0].encoder.kernel)
        assert a[1] == b[1]

    def test_zero_epoch_levels_skipped(self, small_setup):
        _, atree, vocab, splits = small_setup
        cfg = CurriculumConfig(epochs_per_level=(0, 1, 0, 0, 1), d_e=8, d_f=8, seed=0)
        trainer = Trainer(splits["train"], splits["valid"], atree, None, cfg)
        trainer.run()
        assert [r["level"] for r in trainer.records] == [2, 5]

    def test_skipped_levels_transfer_from_the_last_trained_level(self, small_setup):
        _, atree, vocab, splits = small_setup
        cfg = CurriculumConfig(epochs_per_level=(1, 0, 1, 0, 1), d_e=8, d_f=8, seed=0)
        trainer = Trainer(splits["train"], splits["valid"], atree, None, cfg)
        level1 = trainer.decoder  # trained in place during the first epoch
        trainer.step_epoch()
        assert trainer.level == 3
        ancestor = atree.ancestor_index_map(3, 1)
        assert np.array_equal(trainer.decoder.Q, level1.Q[:, ancestor])
        trainer.run()
        assert [r["level"] for r in trainer.records] == [1, 3, 5]

    def test_flat_mode_matches_zero_schedule(self, small_setup, tiny_cfg):
        _, atree, vocab, splits = small_setup
        flat = Trainer(splits["train"], splits["valid"], atree, None, tiny_cfg.flat())
        zero = Trainer(splits["train"], splits["valid"], atree, None,
                       replace(tiny_cfg, epochs_per_level=(0, 0, 0, 0, 2)))
        flat.run()
        zero.run()
        assert flat.records == zero.records
        for got, want in ((zero.params, flat.params), (zero.best_params, flat.best_params)):
            assert sorted(got) == sorted(want)
            for name in want:
                assert np.array_equal(got[name], want[name]), name

    def test_label_outside_the_leaves_rejected(self, small_setup, tiny_cfg):
        _, atree, vocab, splits = small_setup
        inner = atree.level_labels(4)[0]
        bad = replace(splits["valid"], docs=[Document("odd", splits["train"].docs[0].tokens, (inner,))])
        named = f"document 'odd': label '{inner}' not a tree leaf"
        with pytest.raises(ValueError, match=named):
            bad.label_matrix(atree.level_labels(atree.k_max))
        with pytest.raises(ValueError, match=named):
            Trainer(splits["train"], bad, atree, None, tiny_cfg)

    @pytest.mark.parametrize("metric", ["bogus", "skipped_labels", "p_at_3"])
    def test_unknown_early_stop_metric_rejected(self, small_setup, metric):
        _, atree, vocab, splits = small_setup
        cfg = CurriculumConfig(early_stop_metric=metric, d_e=8, d_f=8)
        with pytest.raises(ValueError, match="early-stop metric"):
            Trainer(splits["train"], splits["valid"], atree, None, cfg)

    def test_p_at_k_beyond_final_label_count_rejected(self, small_setup):
        _, atree, vocab, splits = small_setup
        n = len(atree.level_labels(atree.k_max))
        reachable = CurriculumConfig(early_stop_metric=f"p_at_{n}", p_at=(5, n), d_e=8, d_f=8)
        Trainer(splits["train"], splits["valid"], atree, None, reachable)
        too_big = replace(reachable, early_stop_metric=f"p_at_{n + 1}", p_at=(5, n + 1))
        with pytest.raises(ValueError, match=f"p_at_{n + 1}"):
            Trainer(splits["train"], splits["valid"], atree, None, too_big)

    @pytest.mark.parametrize("p_at", [(0,), (5, -1)])
    def test_p_at_below_one_rejected(self, small_setup, p_at):
        _, atree, vocab, splits = small_setup
        cfg = CurriculumConfig(p_at=p_at, d_e=8, d_f=8)
        with pytest.raises(ValueError, match="p_at entries must be >= 1"):
            Trainer(splits["train"], splits["valid"], atree, None, cfg)

    @pytest.mark.parametrize("min_count, max_len", [(1, 128), (5, 128), (3, 64)])
    def test_validation_split_on_another_vocabulary_or_max_len_rejected(
        self, small_setup, tiny_cfg, tmp_path, min_count, max_len
    ):
        corpus, atree, vocab, splits = small_setup
        other = build_vocab((tokenize(r["text"]) for r in corpus.splits["train"]), min_count=min_count)
        assert (other.tokens != vocab.tokens) == (min_count != 3)
        valid = load_dataset(corpus.splits["valid"], other, max_len)
        message = (f"the validation split was indexed with {len(other.tokens)} tokens and max_len "
                   f"{max_len}, the train split with {len(vocab.tokens)} tokens and max_len 128")
        with pytest.raises(ValueError, match=re.escape(message)):
            Trainer(splits["train"], valid, atree, None, tiny_cfg)
        Trainer(splits["train"], splits["valid"], atree, None, tiny_cfg).save(tmp_path / "t.bin")
        with pytest.raises(ValueError, match=re.escape(message)):
            Trainer.load(tmp_path / "t.bin", splits["train"], valid, atree, None)

    def test_word_embedding_initialises_the_embedding(self, small_setup, tiny_cfg, tmp_path):
        _, atree, vocab, splits = small_setup
        path = tmp_path / "vectors.txt"
        token = vocab.tokens[0]
        path.write_text(f"1 {tiny_cfg.d_e}\n{token} " + " ".join(["0.5"] * tiny_cfg.d_e) + "\n")
        word_embedding = load_embeddings(path, vocab, tiny_cfg.d_e, seed=0)
        trainer = Trainer(splits["train"], splits["valid"], atree, None, tiny_cfg,
                          word_embedding=word_embedding)
        assert np.array_equal(trainer.encoder.embedding, word_embedding)
        assert trainer.params["embedding"] is trainer.encoder.embedding
        trainer.step_epoch()
        assert not np.array_equal(trainer.encoder.embedding, word_embedding)
        # the caller's matrix is copied, not trained in place
        assert np.array_equal(word_embedding, load_embeddings(path, vocab, tiny_cfg.d_e, seed=0))

    @pytest.mark.parametrize("rows", [-1, 1])
    def test_word_embedding_for_another_vocabulary_rejected(self, small_setup, tiny_cfg, rows):
        _, atree, vocab, splits = small_setup
        word_embedding = np.zeros((vocab.size + rows, tiny_cfg.d_e))
        with pytest.raises(ValueError, match=r"embedding has shape \(\d+, \d+\), expected"):
            Trainer(splits["train"], splits["valid"], atree, None, tiny_cfg,
                    word_embedding=word_embedding)

    def test_undefined_auc_still_reports_p_at_k(self):
        rng = np.random.default_rng(0)
        scores = rng.random((20, 6))
        targets = np.tile([1.0, 0.0, 1.0, 0.0, 0.0, 1.0], (20, 1))  # no label has both classes
        got, _ = evaluate(scores, targets, ks=(1, 3, 10**6))
        assert got["macro_auc"] is None and got["micro_auc"] is None
        assert got["skipped_labels"] == 6
        assert {k for k in got if k.startswith("p_at_")} == {"p_at_1", "p_at_3"}
        for k in (1, 3):
            assert got[f"p_at_{k}"] == precision_at_k(scores, targets, k)
        assert (got["macro_f1"], got["micro_f1"]) == macro_micro_f1(scores, targets)

    def test_correction_requires_embeddings(self, small_setup):
        _, atree, vocab, splits = small_setup
        cfg = CurriculumConfig(correction="add", d_e=8, d_f=8)
        with pytest.raises(ValueError):
            Trainer(splits["train"], splits["valid"], atree, None, cfg)

    def test_early_stopping_uses_patience(self, small_setup):
        _, atree, vocab, splits = small_setup
        cfg = CurriculumConfig(epochs_per_level=(0, 0, 0, 0, 40), patience=0,
                               d_e=8, d_f=8, lr=1e-5, seed=0)
        trainer = Trainer(splits["train"], splits["valid"], atree, None, cfg)
        trainer.run()
        # with lr this small the metric plateaus immediately and patience=0 stops it
        assert len(trainer.records) < 40


class TestBatchStep:
    """One training step against a per-sub-batch oracle, bit for bit."""

    @staticmethod
    def _trainer(splits, atree, vocab, lengths, epochs):
        docs = [Document(d.id, d.tokens[:n], d.labels)
                for d, n in zip(splits["train"].docs, lengths)]
        cfg = CurriculumConfig(epochs_per_level=epochs, d_e=8, d_f=8, seed=0)
        return Trainer(replace(splits["train"], docs=docs), splits["valid"], atree, None, cfg)

    @staticmethod
    def _oracle_step(trainer, sub_batches):
        """forward per sub-batch; one bce call on the concatenated logits;
        backward(dlogits / n) per sub-batch, gradients summed in order; one
        Adam step."""
        idxs = np.concatenate(sub_batches)
        n = len(idxs)
        traces = [forward(np.stack([trainer.train.docs[i].tokens for i in sub]),
                          trainer.encoder, trainer.decoder)[1] for sub in sub_batches]
        loss, dlogits = bce(np.concatenate([t.logits for t in traces]), trainer.y_train[idxs])
        grads, lo = None, 0
        for sub, trace in zip(sub_batches, traces):
            g = backward(trace, trainer.encoder, trainer.decoder, dlogits[lo:lo + len(sub)] / n)
            lo += len(sub)
            grads = g if grads is None else {k: grads[k] + g[k] for k in grads}
        adam_step(trainer.params, grads, trainer.adam)
        return loss / n

    def _check(self, small_setup, lengths, sub_batches, epochs=(1, 1, 1, 1, 1)):
        _, atree, vocab, splits = small_setup
        step = self._trainer(splits, atree, vocab, lengths, epochs)
        oracle = self._trainer(splits, atree, vocab, lengths, epochs)
        idxs = np.concatenate(sub_batches)
        loss = step._batch_step(idxs)
        assert loss == self._oracle_step(oracle, sub_batches)
        for name, want in oracle.params.items():
            assert np.array_equal(step.params[name], want), name
        assert not np.array_equal(step.params["Q"], self._trainer(
            splits, atree, vocab, lengths, epochs).params["Q"])
        return step

    def test_mixed_lengths_step_one_document_at_a_time(self, small_setup):
        n_docs = len(small_setup[3]["train"].docs)
        lengths = np.random.default_rng(0).integers(8, 65, size=n_docs)
        idxs = [3, 0, 7, 5, 9, 1]
        assert len({lengths[i] for i in idxs}) > 1
        self._check(small_setup, lengths, [[i] for i in idxs])

    def test_mixed_lengths_at_the_leaf_level(self, small_setup):
        _, atree, _, splits = small_setup
        n_docs = len(splits["train"].docs)
        lengths = np.random.default_rng(1).integers(8, 65, size=n_docs)
        idxs = list(range(16))
        assert len({lengths[i] for i in idxs}) > 1
        step = self._check(small_setup, lengths, [[i] for i in idxs], epochs=(0, 0, 0, 0, 1))
        assert step.y_train.shape[1] == len(atree.level_labels(atree.k_max))

    def test_equal_lengths_step_as_one_batch(self, small_setup):
        n_docs = len(small_setup[3]["train"].docs)
        self._check(small_setup, [40] * n_docs, [[3, 0, 7, 5, 9, 1]])


class TestCorrectionModes:
    @pytest.mark.parametrize("mode", ["add", "concat"])
    def test_trains_end_to_end(self, small_setup, mode):
        from hicu.poincare import EmbedConfig, train_poincare

        corpus, atree, vocab, splits = small_setup
        emb = train_poincare(corpus.tree, EmbedConfig(d_h=8, epochs=15, burn_in_epochs=2, seed=0))
        cfg = CurriculumConfig(epochs_per_level=(1, 0, 0, 0, 1), correction=mode,
                               d_e=8, d_f=8, seed=0)
        trainer = Trainer(splits["train"], splits["valid"], atree, emb, cfg)
        trainer.run()
        state = trainer.best_state()
        assert state.decoder.fc_w is not None
        assert np.all(np.isfinite(state.decoder.fc_w))
        assert len(trainer.records) == 2

    def test_checkpoint_rows_and_model_match_the_trainer(self, small_setup, tmp_path):
        from hicu.poincare import EmbedConfig, embedding_for_level, train_poincare

        corpus, atree, vocab, splits = small_setup
        emb = train_poincare(corpus.tree, EmbedConfig(d_h=8, epochs=15, burn_in_epochs=2, seed=0))
        cfg = CurriculumConfig(epochs_per_level=(1, 0, 0, 0, 1), correction="add",
                               d_e=8, d_f=8, seed=0)
        trainer = Trainer(splits["train"], splits["valid"], atree, emb, cfg)
        path = tmp_path / "corrected.bin"
        while True:  # saved at level 1, at level 5 and once finished
            trainer.save(path)
            _, arrays = read_container(path)
            assert np.array_equal(arrays["aux/E_h"], embedding_for_level(emb, atree, trainer.level))
            if trainer.finished:
                break
            trainer.step_epoch()
        state, _ = load_model(path)
        best = trainer.best_state()
        docs = splits["valid"].docs
        assert np.array_equal(state.decoder.E_h, trainer.decoder.E_h)
        assert np.array_equal(score_dataset(state.encoder, state.decoder, docs),
                              score_dataset(best.encoder, best.decoder, docs))


class TestWorkerLanes:
    def test_checkpoint_and_report_do_not_depend_on_the_lane_count(
        self, small_setup, tiny_cfg, tmp_path, monkeypatch
    ):
        _, atree, vocab, splits = small_setup
        assert len({len(d.tokens) for d in splits["train"].docs}) == 1  # whole batches reach the lanes
        monkeypatch.setattr(network, "LANE_WORK_FLOOR", 0)
        monkeypatch.setattr(network, "SLAB_BYTES", 0)  # one document per block, so every lane has some
        outputs = []
        for n in (1, 2, 3):
            monkeypatch.setattr(network, "_cores", lambda n=n: n)
            trainer = Trainer(splits["train"], splits["valid"], atree, None, tiny_cfg)
            trainer.run()
            trainer.save(tmp_path / f"{n}.bin")
            trainer.write_report(tmp_path / f"{n}.jsonl")
            outputs.append([(tmp_path / f"{n}.{ext}").read_bytes() for ext in ("bin", "jsonl")])
        assert outputs[1] == outputs[0]
        assert outputs[2] == outputs[0]

    def test_checkpoint_and_report_do_not_depend_on_the_block_size(
        self, small_setup, tiny_cfg, tmp_path, monkeypatch
    ):
        _, atree, vocab, splits = small_setup
        N = len(splits["train"].docs[0].tokens)
        leaf = len(atree.level_labels(atree.k_max))
        outputs = []
        # one document per block; 3 leaf documents per block (a partial last
        # block at the leaf, whole batches at the coarse levels); the default
        for budget in (0, 3 * 8 * N * leaf, network.SLAB_BYTES):
            monkeypatch.setattr(network, "SLAB_BYTES", budget)
            trainer = Trainer(splits["train"], splits["valid"], atree, None, tiny_cfg)
            trainer.run()
            trainer.save(tmp_path / f"{budget}.bin")
            trainer.write_report(tmp_path / f"{budget}.jsonl")
            outputs.append([(tmp_path / f"{budget}.{ext}").read_bytes() for ext in ("bin", "jsonl")])
        assert outputs[1] == outputs[0]
        assert outputs[2] == outputs[0]


class TestTargetStorage:
    """Targets are held as uint8 and widened only per batch by the losses."""

    @pytest.mark.parametrize("loss", ["bce", "asl"])
    def test_uint8_and_float64_targets_write_identical_outputs(
        self, small_setup, tiny_cfg, tmp_path, monkeypatch, loss
    ):
        _, atree, vocab, splits = small_setup
        cfg = replace(tiny_cfg, loss=loss)
        uint8_matrix = Dataset.label_matrix
        outputs = []
        for name, label_matrix in [
            ("uint8", uint8_matrix),
            ("float64", lambda ds, codes: uint8_matrix(ds, codes).astype(np.float64)),
        ]:
            monkeypatch.setattr(Dataset, "label_matrix", label_matrix)
            trainer = Trainer(splits["train"], splits["valid"], atree, None, cfg)
            assert trainer.y_leaf_train.dtype == np.dtype(name)
            trainer.run()
            trainer.save(tmp_path / f"{name}.bin")
            trainer.write_report(tmp_path / f"{name}.jsonl")
            outputs.append([(tmp_path / f"{name}.{ext}").read_bytes() for ext in ("bin", "jsonl")])
        assert outputs[1] == outputs[0]

    def test_setup_holds_one_byte_per_target_entry(self):
        tree = synth_generate(SynthConfig(docs_per_split=(1, 1, 1))).tree
        codes = tree.level_labels(tree.k_max)
        assert len(codes) == 243
        rng = np.random.default_rng(0)

        def split(n):
            return Dataset(docs=[
                Document(str(i), np.array([2], dtype=np.int32),
                         tuple(sorted(rng.choice(codes, size=3, replace=False))))
                for i in range(n)], vocab=Vocab(["w"], min_count=1), max_len=1)

        train, valid = split(2000), split(300)
        trainer = Trainer.__new__(Trainer)
        entries = (len(train.docs) + len(valid.docs)) * len(codes)
        was_tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            trainer._setup(train, valid, tree, None, CurriculumConfig())
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            if not was_tracing:
                tracemalloc.stop()
        assert trainer.y_leaf_train.shape == (2000, 243)
        assert held <= 1.1 * entries, held / entries


class TestResume:
    def test_save_load_save_is_byte_identical(self, small_setup, tiny_cfg, tmp_path):
        _, atree, vocab, splits = small_setup
        trainer = Trainer(splits["train"], splits["valid"], atree, None, tiny_cfg)
        for _ in range(3):
            trainer.step_epoch()
        p1 = tmp_path / "a.bin"
        trainer.save(p1)
        loaded = Trainer.load(p1, splits["train"], splits["valid"], atree, None)
        p2 = tmp_path / "b.bin"
        loaded.save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_resume_is_bitwise_identical(self, small_setup, tiny_cfg, tmp_path):
        _, atree, vocab, splits = small_setup
        straight = Trainer(splits["train"], splits["valid"], atree, None, tiny_cfg)
        for _ in range(4):
            straight.step_epoch()

        broken = Trainer(splits["train"], splits["valid"], atree, None, tiny_cfg)
        for _ in range(3):
            broken.step_epoch()
        path = tmp_path / "mid.bin"
        broken.save(path)
        resumed = Trainer.load(path, splits["train"], splits["valid"], atree, None)
        resumed.step_epoch()
        self._assert_same_state(resumed, straight)

    def test_resume_across_a_skipped_level_is_bitwise_identical(self, small_setup, tmp_path):
        _, atree, vocab, splits = small_setup
        cfg = CurriculumConfig(epochs_per_level=(1, 0, 1, 0, 2), d_e=8, d_f=8, seed=0)
        straight = Trainer(splits["train"], splits["valid"], atree, None, cfg)
        straight.run()
        broken = Trainer(splits["train"], splits["valid"], atree, None, cfg)
        broken.step_epoch()
        assert broken.level == 3
        path = tmp_path / "skip.bin"
        broken.save(path)
        resumed = Trainer.load(path, splits["train"], splits["valid"], atree, None)
        resumed.run()
        self._assert_same_state(resumed, straight)

    def test_load_makes_no_draws_and_enters_the_level_once(
        self, small_setup, tiny_cfg, tmp_path, monkeypatch
    ):
        _, atree, vocab, splits = small_setup
        straight = Trainer(splits["train"], splits["valid"], atree, None, tiny_cfg)
        for _ in range(4):
            straight.step_epoch()
        broken = Trainer(splits["train"], splits["valid"], atree, None, tiny_cfg)
        for _ in range(3):
            broken.step_epoch()
        path = tmp_path / "mid.bin"
        broken.save(path)

        def draw(*args, **kwargs):
            raise AssertionError("Trainer.load made a fresh draw")

        entered = []
        original_enter_level = Trainer._enter_level

        def enter_level(self):
            entered.append(self.level)
            original_enter_level(self)

        with monkeypatch.context() as patch:
            patch.setattr(curriculum, "init_encoder", draw)
            patch.setattr(curriculum, "init_level_decoder", draw)
            patch.setattr(Trainer, "_enter_level", enter_level)
            resumed = Trainer.load(path, splits["train"], splits["valid"], atree, None)
        assert entered == [4]
        # the next epoch finishes level 4 and draws the level-5 decoder
        resumed.step_epoch()
        assert resumed.level == 5
        self._assert_same_state(resumed, straight)

    @pytest.fixture(scope="class")
    def concat(self, small_setup):
        """Poincare embeddings of the tree and a concat-corrected schedule."""
        from hicu.poincare import EmbedConfig, train_poincare

        emb = train_poincare(small_setup[0].tree, EmbedConfig(d_h=8, epochs=15, burn_in_epochs=2, seed=0))
        cfg = CurriculumConfig(epochs_per_level=(1, 1, 1, 1, 2), correction="concat",
                               d_e=12, d_f=12, lr=2e-3, seed=0)
        return emb, cfg

    def test_concat_round_trip_and_resume_are_bitwise(self, small_setup, concat, tmp_path):
        _, atree, vocab, splits = small_setup
        emb, cfg = concat
        trainer = Trainer(splits["train"], splits["valid"], atree, emb, cfg)
        for _ in range(3):
            trainer.step_epoch()
        p1 = tmp_path / "a.bin"
        trainer.save(p1)
        loaded = Trainer.load(p1, splits["train"], splits["valid"], atree, emb)
        p2 = tmp_path / "b.bin"
        loaded.save(p2)
        assert p1.read_bytes() == p2.read_bytes()

        straight = Trainer(splits["train"], splits["valid"], atree, emb, cfg)
        for _ in range(4):
            straight.step_epoch()
        resumed = Trainer.load(p1, splits["train"], splits["valid"], atree, emb)
        resumed.step_epoch()  # finishes level 4 and builds the level-5 decoder from emb
        assert resumed.level == 5
        self._assert_same_state(resumed, straight)
        assert np.array_equal(resumed.decoder.E_h, straight.decoder.E_h)

    def test_resume_on_other_embeddings_rejected(self, small_setup, concat, tmp_path):
        from hicu.poincare import PoincareEmbedding

        _, atree, vocab, splits = small_setup
        emb, cfg = concat
        trainer = Trainer(splits["train"], splits["valid"], atree, emb, cfg)
        trainer.step_epoch()
        path = tmp_path / "concat.bin"
        trainer.save(path)
        other = PoincareEmbedding(nodes=emb.nodes, vectors=emb.vectors / 2)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: the given embeddings' level-2 "
                                             "rows differ from the checkpoint's aux/E_h$"):
            Trainer.load(path, splits["train"], splits["valid"], atree, other)

    @staticmethod
    def _assert_same_state(got, want):
        assert got.records == want.records
        for name in want.params:
            assert np.array_equal(got.params[name], want.params[name]), name
        for name in want.adam.m:
            assert np.array_equal(got.adam.m[name], want.adam.m[name]), name
            assert np.array_equal(got.adam.v[name], want.adam.v[name]), name

    def test_resume_on_a_different_tree_rejected(self, small_setup, tiny_cfg, tmp_path):
        corpus, atree, vocab, splits = small_setup
        leaves = atree.level_labels(atree.k_max)
        pruned = build_label_tree([parse_code_auto(c) for c in leaves[1:]], corpus.ranges)
        trainer = Trainer(splits["train"], splits["valid"], atree, None, tiny_cfg)
        trainer.step_epoch()
        path = tmp_path / "tree.bin"
        trainer.save(path)
        with pytest.raises(ValueError) as info:
            Trainer.load(path, splits["train"], splits["valid"], pruned, None)
        assert (f"checkpoint has {len(leaves)} leaves, the tree has {len(leaves) - 1}; "
                f"first different code {leaves[0]!r} vs {leaves[1]!r}") in str(info.value)
        assert cli._ERROR_CODES[type(info.value)] == "invalid_input"

    @pytest.mark.parametrize("min_count, max_len", [(2, 128), (3, 64)])
    def test_resume_on_another_vocabulary_or_max_len_rejected(self, small_setup, tiny_cfg, tmp_path,
                                                               min_count, max_len):
        corpus, atree, vocab, splits = small_setup
        trainer = Trainer(splits["train"], splits["valid"], atree, None, tiny_cfg)
        trainer.step_epoch()
        path = tmp_path / "vocab.bin"
        trainer.save(path)
        records = corpus.splits["train"]
        other = load_dataset(records, build_vocab((tokenize(r["text"]) for r in records),
                                                  min_count=min_count), max_len)
        assert (other.vocab.tokens != vocab.tokens) == (min_count != 3)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: the train split was indexed "
                                             "with another vocabulary or max_len"):
            Trainer.load(path, other, splits["valid"], atree, None)

    def test_checkpoint_carries_the_train_splits_vocabulary(self, small_setup, tiny_cfg, tmp_path):
        _, atree, vocab, splits = small_setup
        trainer = Trainer(splits["train"], splits["valid"], atree, None, tiny_cfg)
        trainer.step_epoch()
        trainer.save(tmp_path / "t.bin")
        state, meta = load_model(tmp_path / "t.bin")
        assert (meta["vocab_tokens"], meta["min_count"], meta["max_len"]) == (vocab.tokens, 3, 128)
        for got in (state, trainer.best_state()):
            assert (got.vocab, got.max_len) == (vocab, 128)
            assert got.vocab.token_to_idx == vocab.token_to_idx

    @pytest.mark.parametrize("edit, named", [
        (lambda cfg: cfg["asl"].update(clamp_eps=1e-12), "unknown keys ['clamp_eps']"),
        (lambda cfg: cfg.pop("patience"), "missing keys ['patience']"),
        (lambda cfg: cfg["asl"].pop("margin"), "missing keys ['margin']"),
    ])
    def test_stale_config_keys_rejected(self, small_setup, tiny_cfg, tmp_path, edit, named):
        _, atree, vocab, splits = small_setup
        trainer = Trainer(splits["train"], splits["valid"], atree, None, tiny_cfg)
        trainer.step_epoch()
        path = tmp_path / "stale.bin"
        trainer.save(path)
        meta, arrays = read_container(path)
        edit(meta["config"])
        write_container(path, meta, arrays)
        for load in (lambda: Trainer.load(path, splits["train"], splits["valid"], atree, None),
                     lambda: load_model(path)):
            with pytest.raises(ValueError) as info:
                load()
            assert named in str(info.value)


class TestLearnability:
    def test_bow_logistic_solves_noise_free_corpus(self):
        """Sanity gate on the synthetic corpus: an independent bag-of-words
        logistic model trained with the package's own optimizer separates the
        planted signatures almost perfectly when noise is off."""
        cfg = SynthConfig(branching=(2, 2, 2, 2, 2), docs_per_split=(300, 80, 80),
                          doc_length=64, noise_rate=0.0, seed=1)
        corpus = synth_generate(cfg)
        atree = corpus.tree
        vocab = build_vocab((tokenize(r["text"]) for r in corpus.splits["train"]),
                            min_count=1)
        codes = atree.level_labels(atree.k_max)
        cindex = {c: i for i, c in enumerate(codes)}

        def featurize(records):
            X = np.zeros((len(records), vocab.size))
            Y = np.zeros((len(records), len(codes)))
            for i, rec in enumerate(records):
                for tok in tokenize(rec["text"]):
                    X[i, vocab.indices([tok])[0]] += 1.0
                for lab in rec["labels"]:
                    Y[i, cindex[lab]] = 1.0
            return (X > 0).astype(np.float64), Y

        Xtr, Ytr = featurize(corpus.splits["train"])
        Xva, Yva = featurize(corpus.splits["valid"])
        params = {"W": np.zeros((vocab.size, len(codes))), "b": np.zeros(len(codes))}
        adam = AdamState(lr=0.05)
        rng = np.random.default_rng(0)
        for _ in range(150):
            perm = rng.permutation(len(Xtr))
            for lo in range(0, len(perm), 32):
                idx = perm[lo : lo + 32]
                logits = Xtr[idx] @ params["W"] + params["b"]
                _, dl = bce(logits, Ytr[idx])
                dl /= len(idx)
                adam_step(params, {"W": Xtr[idx].T @ dl, "b": dl.sum(axis=0)}, adam)
        from hicu.metrics import macro_micro_f1

        scores = sigmoid(Xva @ params["W"] + params["b"])
        _, micro = macro_micro_f1(scores, Yva)
        assert micro >= 0.9, micro


class TestInspection:
    def test_top_tokens_are_signature_tokens(self, small_setup, tiny_cfg):
        from dataclasses import replace

        corpus, atree, vocab, splits = small_setup
        cfg = replace(tiny_cfg, epochs_per_level=(0, 0, 0, 0, 8))
        trainer = Trainer(splits["train"], splits["valid"], atree, None, cfg.flat())
        trainer.run()
        state = trainer.best_state()
        doc = splits["train"].docs[0]
        rec = next(r for r in corpus.splits["train"] if r["id"] == doc.id)
        label = doc.labels[0]
        top = inspect_attention(state, rec, label, top_n=5)
        assert len(top) == 5
        weights = [w for _, w in top]
        assert weights == sorted(weights, reverse=True)
        assert all(0.0 <= w <= 1.0 for w in weights)

    def test_unknown_label_rejected(self, small_setup, tiny_cfg):
        from dataclasses import replace

        corpus, atree, vocab, splits = small_setup
        cfg = replace(tiny_cfg, epochs_per_level=(0, 0, 0, 0, 1))
        trainer = Trainer(splits["train"], splits["valid"], atree, None, cfg.flat())
        trainer.run()
        state = trainer.best_state()
        with pytest.raises(ValueError, match="unknown label 'nope'"):
            inspect_attention(state, corpus.splits["train"][0], "nope")


class TestScoreDataset:
    def test_matches_per_doc_forward(self, small_setup, tiny_cfg):
        from dataclasses import replace

        from hicu.network import forward

        _, atree, vocab, splits = small_setup
        cfg = replace(tiny_cfg, epochs_per_level=(0, 0, 0, 0, 1))
        trainer = Trainer(splits["train"], splits["valid"], atree, None, cfg.flat())
        trainer.run()
        state = trainer.best_state()
        docs = splits["valid"].docs[:10]
        scores = score_dataset(state.encoder, state.decoder, docs)
        for i, doc in enumerate(docs):
            yhat, _ = forward(doc.tokens[None], state.encoder, state.decoder)
            assert np.array_equal(scores[i], yhat[0]), i

    @staticmethod
    def _random_model(rng, n_labels, vocab=20, d=4):
        enc = init_encoder(rng, vocab, d, d, 3)
        dec = DecoderParams(Q=rng.normal(size=(d, n_labels)), W=rng.normal(size=(d, n_labels)),
                            b=rng.normal(size=n_labels))
        return enc, dec

    def test_mixed_lengths_equal_each_documents_own_forward(self):
        rng = np.random.default_rng(3)
        enc, dec = self._random_model(rng, n_labels=9)
        # length 11 fills more than one scoring batch; the others share smaller ones
        lengths = [11] * (SCORE_BATCH_SIZE + 5) + [4, 7, 4, 1, 7, 7, 4]
        lengths = [lengths[i] for i in rng.permutation(len(lengths))]
        docs = [Document(str(i), rng.integers(1, 20, size=n), ()) for i, n in enumerate(lengths)]
        scores = score_dataset(enc, dec, docs)
        for i, doc in enumerate(docs):
            yhat, _ = forward(doc.tokens[None], enc, dec)
            assert np.array_equal(scores[i], yhat[0]), i

    def test_scoring_frees_each_trace_before_the_next_forward(self):
        B, N, n_labels = SCORE_BATCH_SIZE, 64, 256
        rng = np.random.default_rng(0)
        enc, dec = self._random_model(rng, n_labels)
        docs = [Document(str(i), rng.integers(1, 20, size=N), ()) for i in range(2 * B)]
        one_batch_attention = 8 * B * N * n_labels  # bytes of one (B, N, L) float64 array
        was_tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            score_dataset(enc, dec, docs)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not was_tracing:
                tracemalloc.stop()
        assert peak < 1.5 * one_batch_attention, peak / one_batch_attention
