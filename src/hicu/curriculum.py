"""Level-by-level curriculum training with knowledge transfer.

The driver trains the encoder/decoder pair one tree level at a time:
targets at level k are the ancestors of the positive leaves, the encoder
persists across levels, and each new level's query matrix is initialized
from its parents' trained columns.  Hyperbolic query correction and the
asymmetric loss plug into the same loop.
"""
from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field, fields, replace
from itertools import zip_longest

import numpy as np

from .checkpoint import read_container, write_container
from .data import Dataset, Document, write_jsonl
from .icd import LabelTree
from .losses import AslConfig, asl, bce
from .metrics import evaluate, macro_micro_f1
from .network import (
    AdamState,
    DecoderParams,
    EncoderParams,
    _attention_slab,
    adam_step,
    backward,
    decoder_param_dict,
    encoder_param_dict,
    forward,
    init_encoder,
    init_fc,
    xavier_uniform,
)
from .poincare import PoincareEmbedding, embedding_for_level

SCORE_BATCH_SIZE = 64  # documents per forward call when scoring


@dataclass
class CurriculumConfig:
    epochs_per_level: tuple[int, ...] = (2, 3, 5, 10, 50)
    batch_size: int = 16
    lr: float = 1e-3
    correction: str = "none"  # none | add | concat
    loss: str = "bce"  # bce | asl
    asl: AslConfig = field(default_factory=AslConfig)
    early_stop_metric: str = "micro_f1"
    patience: int = 10
    seed: int = 0
    d_e: int = 32
    d_f: int = 32
    kernel_size: int = 3
    p_at: tuple[int, ...] = (5, 8, 15)

    def validate(self, k_max: int, n_labels: int) -> None:
        """Check the settings against a tree of depth k_max whose final level
        has n_labels labels."""
        if len(self.epochs_per_level) != k_max:
            raise ValueError(f"epochs_per_level must have {k_max} entries")
        if any(e < 0 for e in self.epochs_per_level) or self.epochs_per_level[-1] < 1:
            raise ValueError("per-level epochs must be nonnegative, final level >= 1")
        if self.batch_size < 1 or self.patience < 0:
            raise ValueError("batch_size must be >= 1 and patience >= 0")
        if self.lr <= 0:
            raise ValueError("learning rate must be positive")
        if self.correction not in ("none", "add", "concat"):
            raise ValueError(f"unknown correction mode {self.correction!r}")
        if self.loss not in ("bce", "asl"):
            raise ValueError(f"unknown loss {self.loss!r}")
        if self.kernel_size % 2 == 0:
            raise ValueError("kernel_size must be odd")
        if any(k < 1 for k in self.p_at):
            raise ValueError(f"p_at entries must be >= 1, got {list(self.p_at)}")
        metrics = ["macro_f1", "micro_f1", "macro_auc", "micro_auc"]
        metrics += [f"p_at_{k}" for k in self.p_at]
        if self.early_stop_metric not in metrics:
            raise ValueError(f"unknown early-stop metric {self.early_stop_metric!r}")
        if self.early_stop_metric in {f"p_at_{k}" for k in self.p_at if k > n_labels}:
            raise ValueError(f"early-stop metric {self.early_stop_metric!r} needs > {n_labels} labels")
        self.asl.validate()

    def to_dict(self) -> dict:
        return asdict(self)

    def flat(self) -> "CurriculumConfig":
        """The single-round baseline: only the final level trains, from a fresh decoder."""
        zeros = (0,) * (len(self.epochs_per_level) - 1) + (self.epochs_per_level[-1],)
        return replace(self, epochs_per_level=zeros)


@dataclass
class TrainReport:
    records: list[dict]
    summary: dict
    config: dict
    seed: int
    wall_clock_s: float = 0.0  # printed, never serialized (reports stay byte-stable)

    def write_jsonl(self, path) -> None:
        final = {"event": "summary", "config": self.config, "seed": self.seed, **self.summary}
        write_jsonl(path, [*self.records, final])


@dataclass
class ModelState:
    encoder: EncoderParams
    decoder: DecoderParams
    level: int
    codes: list[str]


def knowledge_transfer(q_parent: np.ndarray, parent_map: np.ndarray) -> np.ndarray:
    """Child query columns initialized from their parents' columns."""
    parent_map = np.asarray(parent_map)
    if parent_map.size and (parent_map.min() < 0 or parent_map.max() >= q_parent.shape[1]):
        raise ValueError("parent map index out of range")
    return q_parent[:, parent_map].copy()


def init_level_decoder(
    prev: DecoderParams | None,
    prev_level: int | None,
    tree: LabelTree,
    k: int,
    cfg: CurriculumConfig,
    rng: np.random.Generator,
    d_h: int = 0,
) -> DecoderParams:
    """Decoder for level k: queries random at the first trained level, else
    transferred from their ancestors' columns in ``prev``, the decoder trained
    at ``prev_level``; the output layer starts fresh at every level."""
    n_labels = len(tree.level_labels(k))
    d_f = cfg.d_f
    if prev is None:
        q = xavier_uniform(rng, (d_f, n_labels), fan_in=d_f, fan_out=n_labels)
    else:
        ancestor = np.arange(n_labels)
        for j in range(k - 1, prev_level - 1, -1):
            ancestor = tree.parent_index_map(j)[ancestor]
        q = knowledge_transfer(prev.Q, ancestor)
    w = xavier_uniform(rng, (d_f, n_labels), fan_in=d_f, fan_out=n_labels)
    b = np.zeros(n_labels)
    fc_w = fc_b = None
    if cfg.correction != "none":
        if prev is not None:
            fc_w, fc_b = prev.fc_w, prev.fc_b  # shared transform, trained continuously
        else:
            fc_w, fc_b = init_fc(rng, d_f, d_h, cfg.correction)
    return DecoderParams(Q=q, W=w, b=b, mode=cfg.correction, fc_w=fc_w, fc_b=fc_b)


def score_dataset(
    enc: EncoderParams,
    dec: DecoderParams,
    E_h: np.ndarray | None,
    docs: list[Document],
) -> np.ndarray:
    """Sigmoid scores for every document, batched over equal lengths."""
    scores = np.empty((len(docs), dec.n_labels))
    groups: dict[int, list[int]] = {}
    for i, doc in enumerate(docs):
        groups.setdefault(len(doc.tokens), []).append(i)
    for _, idxs in sorted(groups.items()):
        for lo in range(0, len(idxs), SCORE_BATCH_SIZE):
            chunk = idxs[lo : lo + SCORE_BATCH_SIZE]
            x = np.stack([docs[i].tokens for i in chunk])
            scores[chunk] = forward(x, enc, dec, E_h)[0]
    return scores


def _with_prefix(arrays: dict[str, np.ndarray], prefix: str) -> dict[str, np.ndarray]:
    """The arrays whose names start with ``prefix``, keyed by the rest of the name."""
    return {n[len(prefix):]: a for n, a in arrays.items() if n.startswith(prefix)}


def _model_from_params(
    params: dict[str, np.ndarray], mode: str
) -> tuple[EncoderParams, DecoderParams]:
    """Encoder and decoder holding copies of a name -> array parameter dict."""
    enc = EncoderParams(
        embedding=np.array(params["embedding"]),
        kernel=np.array(params["kernel"]),
        bias=np.array(params["bias"]),
    )
    dec = DecoderParams(
        Q=np.array(params["Q"]),
        W=np.array(params["W"]),
        b=np.array(params["b"]),
        mode=mode,
        fc_w=np.array(params["fc_w"]) if "fc_w" in params else None,
        fc_b=np.array(params["fc_b"]) if "fc_b" in params else None,
    )
    return enc, dec


class Trainer:
    """Resumable curriculum trainer over a label tree."""

    def __init__(
        self,
        train: Dataset,
        valid: Dataset,
        tree: LabelTree,
        emb: PoincareEmbedding | None,
        cfg: CurriculumConfig,
        word_embedding: np.ndarray | None = None,
        vocab_size: int | None = None,
    ):
        self.codes = tree.level_labels(tree.k_max)
        cfg.validate(tree.k_max, len(self.codes))
        if cfg.correction != "none" and emb is None:
            raise ValueError("hyperbolic correction requires trained embeddings")
        if word_embedding is None and vocab_size is None:
            raise ValueError("either a word embedding matrix or vocab_size is required")
        self.cfg = cfg
        self.tree = tree
        self.emb = emb
        self.train = train
        self.valid = valid
        self.y_leaf_train = train.label_matrix(self.codes)
        self.y_leaf_valid = valid.label_matrix(self.codes)
        self.d_h = emb.d_h if emb is not None else 0
        # a zero-epoch level is never visited; validate() keeps the final level
        self.levels = [k for k, e in enumerate(cfg.epochs_per_level, start=1) if e > 0]
        self.records: list[dict] = []
        self.rng = np.random.default_rng(cfg.seed)
        self.encoder = init_encoder(
            self.rng,
            vocab_size=vocab_size if word_embedding is None else word_embedding.shape[0],
            d_e=cfg.d_e,
            d_f=cfg.d_f,
            kernel_size=cfg.kernel_size,
            embedding=word_embedding,
        )
        self.level_pos = 0
        self.epoch_in_level = 0
        self.finished = False
        self.best_metric: float | None = None
        self.best_params: dict[str, np.ndarray] | None = None
        self.bad_epochs = 0
        self.decoder = init_level_decoder(None, None, tree, self.levels[0], cfg, self.rng, self.d_h)
        self._enter_level()

    # -- setup helpers -------------------------------------------------

    @property
    def level(self) -> int:
        return self.levels[self.level_pos]

    @property
    def at_final_level(self) -> bool:
        return self.level_pos == len(self.levels) - 1

    def _enter_level(self) -> None:
        k = self.level
        self.E_h = (
            embedding_for_level(self.emb, self.tree, k)
            if self.cfg.correction != "none"
            else None
        )
        self.y_train = self.tree.ancestor_targets(self.y_leaf_train, k)
        self.y_valid = self.tree.ancestor_targets(self.y_leaf_valid, k)
        self.params = {**encoder_param_dict(self.encoder), **decoder_param_dict(self.decoder)}
        self.adam = AdamState(lr=self.cfg.lr)

    def _advance_level(self) -> None:
        trained = self.level
        self.level_pos += 1
        self.epoch_in_level = 0
        self.decoder = init_level_decoder(
            self.decoder, trained, self.tree, self.level, self.cfg, self.rng, self.d_h
        )
        self._enter_level()

    # -- training ------------------------------------------------------

    def _loss(self, logits: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
        if self.cfg.loss == "asl":
            return asl(logits, targets, self.cfg.asl)
        return bce(logits, targets)

    def _batch_step(self, idxs: np.ndarray) -> float:
        """One Adam step on the batch's mean loss: one (B, N) sub-batch when all
        lengths agree, else one (1, N) sub-batch per document.  Every
        sub-batch's forward runs first; one loss call covers the whole batch,
        and backward's gradients are summed in batch order."""
        docs = [self.train.docs[i] for i in idxs]
        n = len(docs)
        if len({len(d.tokens) for d in docs}) == 1:
            spans = [slice(0, n)]
        else:
            spans = [slice(i, i + 1) for i in range(n)]
        traces = [forward(np.stack([d.tokens for d in docs[span]]),
                          self.encoder, self.decoder, self.E_h)[1] for span in spans]
        loss, dlogits = self._loss(np.concatenate([t.logits for t in traces]), self.y_train[idxs])
        dlogits /= n
        grads = None
        for span, trace in zip(spans, traces):
            g = backward(trace, self.encoder, self.decoder, dlogits[span])
            if grads is None:
                grads = g  # backward returns fresh arrays, so summing in place aliases nothing
            else:
                for k in grads:
                    grads[k] += g[k]
        adam_step(self.params, grads, self.adam)
        return loss / n

    def step_epoch(self) -> dict:
        """Train one epoch at the current level, validate, maybe advance."""
        if self.finished:
            raise RuntimeError("training already finished")
        k = self.level
        perm = self.rng.permutation(len(self.train.docs))
        bs = self.cfg.batch_size
        batch_losses = []
        for lo in range(0, len(perm), bs):
            batch_losses.append(self._batch_step(perm[lo : lo + bs]))
        train_loss = float(np.mean(batch_losses))
        self.epoch_in_level += 1
        level_done = self.epoch_in_level >= self.cfg.epochs_per_level[k - 1]

        record = {
            "event": "epoch",
            "level": k,
            "epoch": self.epoch_in_level,
            "train_loss": train_loss,
        }
        scores = score_dataset(self.encoder, self.decoder, self.E_h, self.valid.docs)
        if self.at_final_level:
            result = evaluate(scores, self.y_valid, ks=self.cfg.p_at)
            record.update({f"valid_{key}": v for key, v in result.items()})
            metric = result.get(self.cfg.early_stop_metric)
            if metric is None:
                raise ValueError(
                    f"early-stop metric {self.cfg.early_stop_metric!r} unavailable"
                )
            if self.best_metric is None or metric > self.best_metric:
                self.best_metric = metric
                self.best_params = {n: a.copy() for n, a in self.params.items()}
                self.bad_epochs = 0
            else:
                self.bad_epochs += 1
            if level_done or self.bad_epochs > self.cfg.patience:
                self.finished = True
        else:
            macro_f1, micro_f1 = macro_micro_f1(scores, self.y_valid)
            record["valid_macro_f1"] = macro_f1
            record["valid_micro_f1"] = micro_f1
            if level_done:
                self._advance_level()
        self.records.append(record)
        return record

    def run(self) -> tuple[ModelState, TrainReport]:
        t0 = time.perf_counter()
        while not self.finished:
            self.step_epoch()
        wall = time.perf_counter() - t0
        state = self.best_state()
        summary = {
            "best_metric": self.best_metric,
            "early_stop_metric": self.cfg.early_stop_metric,
            "epochs_run": len(self.records),
            "final_level": self.level,
        }
        report = TrainReport(
            records=list(self.records),
            summary=summary,
            config=self.cfg.to_dict(),
            seed=self.cfg.seed,
            wall_clock_s=wall,
        )
        return state, report

    def best_state(self) -> ModelState:
        params = self.best_params if self.best_params is not None else self.params
        enc, dec = _model_from_params(params, self.decoder.mode)
        return ModelState(encoder=enc, decoder=dec, level=self.level, codes=list(self.codes))

    # -- checkpointing -------------------------------------------------

    def state(self) -> tuple[dict, dict[str, np.ndarray]]:
        """Checkpoint metadata and arrays: everything a bitwise resume needs and,
        for a corrected model, the current level's hyperbolic rows as ``aux/E_h``."""
        meta = {
            "kind": "trainer",
            "config": self.cfg.to_dict(),
            "level_pos": self.level_pos,
            "level": self.level,
            "epoch_in_level": self.epoch_in_level,
            "finished": self.finished,
            "best_metric": self.best_metric,
            "bad_epochs": self.bad_epochs,
            "adam_t": self.adam.t,
            "rng_state": self.rng.bit_generator.state,
            "records": self.records,
            "codes": self.codes,
        }
        groups = {"param/": self.params, "adam_m/": self.adam.m, "adam_v/": self.adam.v,
                  "best/": self.best_params or {}}
        arrays = {prefix + n: a for prefix, group in groups.items() for n, a in group.items()}
        if self.E_h is not None:
            arrays["aux/E_h"] = self.E_h
        return meta, arrays

    def save(self, path) -> None:
        write_container(path, *self.state())

    @classmethod
    def load(
        cls,
        path,
        train: Dataset,
        valid: Dataset,
        tree: LabelTree,
        emb: PoincareEmbedding | None,
    ) -> "Trainer":
        meta, arrays = read_container(path)
        if meta.get("kind") != "trainer":
            raise ValueError(f"{path}: not a trainer checkpoint")
        cfg_dict = dict(meta["config"])
        _check_keys(path, "config", cfg_dict, CurriculumConfig)
        _check_keys(path, "config.asl", cfg_dict["asl"], AslConfig)
        cfg_dict["epochs_per_level"] = tuple(cfg_dict["epochs_per_level"])
        cfg_dict["p_at"] = tuple(cfg_dict["p_at"])
        cfg_dict["asl"] = AslConfig(**cfg_dict["asl"])
        cfg = CurriculumConfig(**cfg_dict)
        codes = tree.level_labels(tree.k_max)
        if meta["codes"] != codes:
            stored, given = next(p for p in zip_longest(meta["codes"], codes) if p[0] != p[1])
            raise ValueError(f"{path}: checkpoint has {len(meta['codes'])} leaves, the tree has "
                             f"{len(codes)}; first different code {stored!r} vs {given!r}")
        # __init__'s random draws and rng state are all overwritten below
        self = cls(train, valid, tree, emb, cfg, vocab_size=arrays["param/embedding"].shape[0])
        self.rng.bit_generator.state = meta["rng_state"]
        params = _with_prefix(arrays, "param/")
        self.encoder, self.decoder = _model_from_params(params, cfg.correction)
        self.level_pos = meta["level_pos"]
        self.epoch_in_level = meta["epoch_in_level"]
        self.finished = meta["finished"]
        self.best_metric = meta["best_metric"]
        self.bad_epochs = meta["bad_epochs"]
        self.records = list(meta["records"])
        self.best_params = _with_prefix(arrays, "best/") or None
        self._enter_level()
        self.adam = AdamState(
            lr=cfg.lr,
            t=meta["adam_t"],
            m=_with_prefix(arrays, "adam_m/"),
            v=_with_prefix(arrays, "adam_v/"),
        )
        return self


def _check_keys(path, what: str, stored: dict, cls) -> None:
    """Reject a stored config whose keys differ from the fields of cls."""
    expected = {f.name for f in fields(cls)}
    unknown = sorted(set(stored) - expected)
    missing = sorted(expected - set(stored))
    if unknown or missing:
        raise ValueError(f"{path}: checkpoint {what} does not match this version "
                         f"(unknown keys {unknown}, missing keys {missing})")


def load_model(path) -> tuple[ModelState, np.ndarray | None, dict]:
    """Best model of a trainer checkpoint, its ``aux/E_h`` rows and its metadata.

    Falls back to the current parameters when no best ones were recorded.
    """
    meta, arrays = read_container(path)
    params = _with_prefix(arrays, "best/") or _with_prefix(arrays, "param/")
    enc, dec = _model_from_params(params, meta["config"]["correction"])
    state = ModelState(encoder=enc, decoder=dec, level=meta["level"], codes=list(meta["codes"]))
    return state, arrays.get("aux/E_h"), meta


def inspect_attention(
    state: ModelState,
    E_h: np.ndarray | None,
    doc: Document,
    token_strings: list[str],
    label: str,
    top_n: int = 16,
) -> list[tuple[str, float]]:
    """Top-weighted input tokens for one label's attention column.

    ``E_h`` holds the final-level hyperbolic rows of a corrected model.
    Ties are broken by token position.
    """
    if label not in state.codes:
        raise ValueError(f"unknown label {label!r}")
    if len(token_strings) != len(doc.tokens):
        raise ValueError("token strings must align with the token index sequence")
    if len(doc.tokens) == 0:
        raise ValueError(f"document {doc.id!r} has no tokens")
    _, trace = forward(doc.tokens[None], state.encoder, state.decoder, E_h)
    col = _attention_slab(trace, 0)[:, state.codes.index(label)]
    order = np.lexsort((np.arange(len(col)), -col))
    return [(token_strings[i], float(col[i])) for i in order[:top_n]]
