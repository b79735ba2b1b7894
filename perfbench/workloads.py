"""The benchmark's workloads: which corpus each one generates and which ``hicu``
commands it runs, plus the output checks that depend on the workload.

Each workload is chosen so that a different layer dominates; README.md in
this directory gives the measured shares.  Sizes are cut from the paper-like
shapes so that one repetition takes a few seconds on one core and a run can
repeat it and report medians.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

BATCH_SIZE = 16  # the ``hicu train`` default, which every workload keeps


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    branching: str
    docs: tuple[int, int, int]  # train, valid, test
    doc_length: int
    zipf: float
    modes: tuple[str, ...]  # train modes run, in order
    epochs: str  # --epochs-per-level, shared by every mode
    d: int  # --d-e and --d-f
    train_flags: tuple[str, ...] = ()
    ragged: bool = False  # cut each document to a seeded length in [32, doc_length]
    embed_epochs: int = 0  # > 0: build-tree, embed and a corrected hicu model
    floors: dict = field(default_factory=dict)  # quality metric -> lowest accepted value

    def train_epochs(self, mode: str) -> int:
        per_level = [int(e) for e in self.epochs.split(",")]
        return per_level[-1] if mode == "flat" else sum(per_level)

    def expected_train_forwards(self) -> int:
        """``network.forward`` calls made by training steps.

        Equal-length batches take one batched call; a batch of mixed lengths
        takes one call per document.
        """
        n = self.docs[0]
        per_epoch = n if self.ragged else math.ceil(n / BATCH_SIZE)
        return per_epoch * sum(self.train_epochs(m) for m in self.modes)


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="reference",
            why="The README run at reduced epochs: flat and hicu train, eval with --baseline. "
                "B=16, N=64, L<=243, so per-call overhead, Adam and validation AUC weigh.",
            branching="3,3,3,3,3", docs=(2000, 300, 300), doc_length=64, zipf=1.5,
            modes=("flat", "hicu"), epochs="1,1,1,1,2", d=16,
            train_flags=("--patience", "8", "--lr", "0.002"),
            floors={"hicu_test_micro_f1": 0.3, "flat_test_micro_f1": 0.05},
        ),
        Workload(
            name="paper-wide",
            why="Wide tree, flat Zipf, 256-token notes: hundreds of leaf labels, so decode "
                "and backward dominate training and the (B, N, L) attention sets peak RSS.",
            branching="5,5,5,5,5", docs=(300, 100, 300), doc_length=256, zipf=0.8,
            modes=("hicu",), epochs="1,1,1,1,1", d=32,
            train_flags=("--lr", "0.002"),
            # Leaves are seen one to three times in training, so one epoch per
            # level stays near chance (micro-AUC 0.50-0.55 on seeds 1-10); the
            # floor only catches inverted scores.
            floors={"hicu_test_micro_auc": 0.4},
        ),
        Workload(
            name="ragged-hyperbolic",
            why="Notes of seeded lengths 32-256 send every batch down the per-document path; "
                "the only workload with Poincare embeddings, concat correction and ASL.",
            branching="3,3,3,3,3", docs=(600, 150, 150), doc_length=256, zipf=1.5,
            modes=("hicu",), epochs="1,1,1,1,2", d=16,
            train_flags=("--correction", "concat", "--loss", "asl"),
            ragged=True, embed_epochs=15,
            floors={"hicu_test_micro_auc": 0.45},
        ),
    )
}


def toy(w: Workload) -> Workload:
    """The same commands on a corpus small enough for a smoke test."""
    return replace(w, docs=(48, 16, 16), epochs="1,1,1,1,1",
                   embed_epochs=min(w.embed_epochs, 3), floors={})


def steps(w: Workload, data: str, out: str, seed: int) -> list[tuple[str, list[str]]]:
    """(label, argv) of each ``hicu`` command of one repetition, in order."""
    s = str(seed)
    cmds: list[tuple[str, list[str]]] = []
    train = ["--ranges", f"{data}/ranges.tsv", "--train", f"{data}/train.jsonl",
             "--valid", f"{data}/valid.jsonl", "--epochs-per-level", w.epochs,
             "--d-e", str(w.d), "--d-f", str(w.d), "--seed", s, *w.train_flags]
    if w.embed_epochs:
        cmds.append(("build-tree", ["build-tree", "--train", f"{data}/train.jsonl",
                                    "--ranges", f"{data}/ranges.tsv", "--out", f"{out}/tree.json"]))
        cmds.append(("embed", ["embed", "--tree", f"{out}/tree.json", "--out", f"{out}/emb.txt",
                               "--hyp-dim", "16", "--hyp-epochs", str(w.embed_epochs),
                               "--hyp-burn-in", "3", "--seed", s]))
        train += ["--tree", f"{out}/tree.json", "--hyp-emb", f"{out}/emb.txt"]
    for mode in w.modes:
        cmds.append((f"train-{mode}", ["train", "--mode", mode, "--out", f"{out}/{mode}", *train]))
    for mode in w.modes:
        argv = ["eval", "--checkpoint", f"{out}/{mode}/checkpoint.bin",
                "--test", f"{data}/test.jsonl", "--out", f"{out}/{mode}-eval"]
        if mode == "hicu" and "flat" in w.modes:
            argv += ["--train", f"{data}/train.jsonl", "--baseline", f"{out}/flat-eval/scores.npy"]
        cmds.append((f"eval-{mode}", argv))
    return cmds
