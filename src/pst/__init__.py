"""Pyramid feature fusion at desk scale: pooled cross-attention with
top-k sparse refinement, a tape autodiff engine, toy networks, and the
accounting, serialization, and benchmark tooling around them."""

from .autodiff import (
    GradCheckEntry,
    GradReport,
    Tape,
    Var,
    check_gradients,
    finite_diff_grad,
    lift_tree,
    relative_error,
)
from .bench import BenchComparison, LatencyStats, bench_psa_vs_dense, benchmark
from .costs import CostReport, count_interactions, interaction_formula, mac_breakdown
from .errors import (
    AccountingError,
    ContractError,
    DimensionError,
    DivergenceError,
    FormatError,
    GatherIndexError,
    NumericError,
    StateCorruptionError,
)
from .heatmap import export_heatmap, score_map_from_run
from .io import (
    checkpoint_digest,
    load_checkpoint,
    load_tensor,
    save_checkpoint,
    save_tensor,
)
from .networks import (
    BackboneParams,
    ClsConfig,
    ClsNetParams,
    DetNeckConfig,
    DetNeckParams,
    PyramidFeatures,
    TrainState,
    backbone_forward,
    cls_forward,
    default_cls_config,
    default_det_neck_config,
    det_neck_forward,
    evaluate_accuracy,
    init_train_state,
    synth_dataset,
    train_step,
    train_toy,
)
from .params import BatchNormState, assign_arrays, learnable_arrays, named_arrays
from .psa import (
    PsaConfig,
    PsaParams,
    TopKSelection,
    attention,
    dense_cross_attention,
    fine_attention,
    psa_forward,
    psa_stack_forward,
    select_fine_indices,
    track_interactions,
)
from .pst_block import (
    ParamLedger,
    PstConfig,
    PstParams,
    closed_form_param_count,
    param_count,
    pst_forward,
    scale_config,
)
from .tensor_ops import set_debug_checks, topk_indices

__version__ = "0.1.0"
