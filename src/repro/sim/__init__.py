"""Evaluation simulator: analytical models, vectorised Monte-Carlo samplers
and engine-level cross-validation for every technique — task-level
(Figures 8–12) and Figure 13's workflow-level strategies — through one
sampling pipeline, plus sweep / reporting utilities."""

from .adaptive import (
    AntitheticGenerator,
    CellEstimate,
    CITarget,
    CRNGenerator,
    GridEvaluation,
    UniformPool,
    adaptive_samples,
    estimate_cells,
    evaluate_grid,
)
from .analytical import (
    checkpoint_expected_time,
    expected_time,
    optimal_checkpoint_count,
    retry_expected_time,
    young_checkpoint_count,
    young_interval,
)
from .engine_mc import (
    EngineSampler,
    build_technique_workflow,
    engine_samples,
    run_engine_once,
)
from .cache import SampleCache, default_cache_dir, resolve_cache
from .parallel import (
    SEED_STRIDE,
    resolve_jobs,
    seed_for,
    shard_bounds,
)
from .pool import (
    get_pool,
    persistent_pool,
    pool_size,
    sampler_cache_info,
    shutdown_pool,
    worker_sampler,
)
from .params import (
    PAPER_BASELINE,
    PAPER_DOWNTIMES,
    PAPER_MTTF_SWEEP,
    SimulationParams,
)
from .runner import (
    TECHNIQUE_LABELS,
    Series,
    ascii_chart,
    crossover,
    format_table,
    sweep,
    sweep_mttf,
    to_csv,
)
from .samplers import (
    EXTENDED_TECHNIQUES,
    SAMPLERS_VERSION,
    TECHNIQUES,
    sample_backoff_retry,
    sample_checkpointing,
    sample_replication,
    sample_replication_checkpointing,
    sample_retry,
    sample_technique,
)
from .stats import Summary, relative_error, summarize, z_value

__all__ = [
    "AntitheticGenerator",
    "CellEstimate",
    "CITarget",
    "CRNGenerator",
    "GridEvaluation",
    "UniformPool",
    "adaptive_samples",
    "estimate_cells",
    "evaluate_grid",
    "checkpoint_expected_time",
    "expected_time",
    "optimal_checkpoint_count",
    "retry_expected_time",
    "young_checkpoint_count",
    "young_interval",
    "EngineSampler",
    "build_technique_workflow",
    "engine_samples",
    "run_engine_once",
    "SEED_STRIDE",
    "resolve_jobs",
    "seed_for",
    "shard_bounds",
    "SampleCache",
    "default_cache_dir",
    "resolve_cache",
    "get_pool",
    "persistent_pool",
    "pool_size",
    "sampler_cache_info",
    "shutdown_pool",
    "worker_sampler",
    "SAMPLERS_VERSION",
    "PAPER_BASELINE",
    "PAPER_DOWNTIMES",
    "PAPER_MTTF_SWEEP",
    "SimulationParams",
    "TECHNIQUE_LABELS",
    "Series",
    "ascii_chart",
    "crossover",
    "format_table",
    "sweep",
    "sweep_mttf",
    "to_csv",
    "TECHNIQUES",
    "EXTENDED_TECHNIQUES",
    "sample_backoff_retry",
    "sample_checkpointing",
    "sample_replication",
    "sample_replication_checkpointing",
    "sample_retry",
    "sample_technique",
    "Summary",
    "relative_error",
    "summarize",
    "z_value",
]
