"""Hierarchical curriculum learning for multi-label code prediction.

Public surface: label-tree construction over range tables, hyperbolic
label embeddings, a conv encoder with per-label attention, curriculum
training with knowledge transfer, and the usual multi-label metrics.
"""
from .checkpoint import read_container, write_container
from .curriculum import (
    CurriculumConfig,
    ModelState,
    Trainer,
    inspect_attention,
    load_model,
    score_dataset,
)
from .data import (
    Dataset,
    Document,
    SynthConfig,
    SynthCorpus,
    Vocab,
    build_vocab,
    filter_top_k_labels,
    iter_jsonl,
    load_dataset,
    load_embeddings,
    restrict_labels,
    synth_generate,
    tokenize,
)
from .icd import (
    K_MAX,
    CodeError,
    IcdCode,
    LabelTree,
    Node,
    RangeRow,
    RangeTable,
    build_label_tree,
    build_path,
    infer_kind,
    parse_code,
    parse_code_auto,
)
from .losses import AslConfig, asl, bce, sigmoid
from .metrics import (
    auc_binary,
    evaluate,
    macro_micro_f1,
    per_label_auc,
    precision_at_k,
)
from .network import (
    AdamState,
    DecoderParams,
    EncoderParams,
    adam_step,
    backward,
    corrected_queries,
    decode,
    forward,
    init_encoder,
    init_fc,
)
from .poincare import (
    EmbedConfig,
    PoincareEmbedding,
    embedding_for_level,
    mean_edge_distance,
    poincare_distance,
    project_to_ball,
    riemannian_scale,
    train_poincare,
)

__version__ = "0.1.0"
