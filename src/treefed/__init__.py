"""treefed: deterministic simulator for hierarchical federated LM training."""

import os

# The model's matrices are far too small for a second BLAS thread to pay
# for itself. OpenBLAS reads this when numpy loads, so it takes effect only
# when treefed is imported first; a value already set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .aggregation import (
    AttentionConfig,
    ScheduleConfig,
    ServerConfig,
    aggregate_child_keys,
    attend_layer,
    average_pseudograds,
    lr_at,
    merge_with_parent,
    server_opt,
)
from .datagen import (
    MarkovSource,
    Shard,
    build_hierarchy_dataset,
    entropy_rate,
    make_clustered_sources,
)
from .engine import EngineConfig, ResidualConfig, RunResult, fit, run_centralized, run_flat_fl, run_local
from .model import (
    ModelConfig,
    Partition,
    TrainerConfig,
    TrainJob,
    backward,
    forward_loss,
    init_model,
    local_train,
)
from .privacy import DpConfig, add_noise, clip, next_bound
from .residual import ResidualPacket, partition_residuals, route_residuals
from .tensors import CongruenceError, ParamSet, ParamStack, axpy, l2_norm
from .topology import FederationTree, NodeSpec, validate

__version__ = "0.1.0"
