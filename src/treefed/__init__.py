"""treefed: deterministic simulator for hierarchical federated LM training."""

from .aggregation import (
    AttentionConfig,
    ScheduleConfig,
    ServerOptState,
    aggregate_child_keys,
    attend_layer,
    average_pseudograds,
    lr_at,
    merge_with_parent,
    server_opt,
)
from .datagen import (
    MarkovSource,
    MixtureSpec,
    Shard,
    build_hierarchy_dataset,
    entropy_rate,
    load_text_shard,
    make_clustered_sources,
)
from .engine import EngineConfig, RunResult, fit, run_centralized, run_flat_fl, run_local
from .model import (
    ModelConfig,
    Partition,
    TrainerConfig,
    backward,
    evaluate_perplexity,
    forward_loss,
    init_model,
    local_train,
)
from .privacy import ClipState, DpConfig, add_noise, clip, update_bound
from .residual import KeyCache, ResidualPacket, partition_residuals, route_residuals
from .tensors import CongruenceError, ParamSet, Tensor, axpy, cosine, dot, flatten, l2_norm
from .topology import FederationTree, NodeSpec, validate

__version__ = "0.1.0"
