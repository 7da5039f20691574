"""Noisy broadcast sensor networks: random planar sampling, epsilon-noise
protocol execution, reduction to noisy decision trees, tree rearrangement,
and exact/Monte-Carlo advantage measurement."""

from .advantage import (
    AdvantageEstimate,
    advantage_exact,
    advantage_mc,
    alpha_bound,
    gks_depth_bound,
    min_transmission_ratio,
    parity_sign,
    uniform_distribution,
)
from .engine import (
    Channel,
    ErrorEstimate,
    error_probability,
    exact_channel,
    execute,
    parity_of_inputs,
    sampled_channel,
)
from .errors import (
    CapExceeded,
    EmptyS2,
    NoisyNetError,
    TreeCapExceeded,
    UndersizedCell,
)
from .experiments import ExperimentConfig, ResultRow, run_experiment
from .noise import RegenTable, iid_noisy_law, regen_output_law, regen_table
from .planar import (
    Decomposition,
    PlanarNetwork,
    chernoff_bound,
    decompose,
    decompose_for_uniform_counts,
    is_connected,
    sample_network,
    verify_decomposition,
)
from .protocol import (
    AuxRole,
    InputRole,
    Protocol,
    Transmission,
    cluster_sum,
    protocol_from_text,
    protocol_to_text,
    repetition_majority_parity,
    star_xor,
)
from .reductions import (
    XndTreeArtifact,
    check_leaf_law,
    check_simulation_fidelity,
    fix_randomness,
    protocol_to_read_once,
    to_noisy_copy,
    to_semi_noisy,
    to_xnd_tree,
)
from .rng import RNG_VERSION, RngStream
from .trees import (
    BlockSpace,
    Tree,
    collapse_to_read_once,
    merge_superqueries,
    readonce_advantage,
    reorder,
    tree_advantage,
    tree_from_json,
    tree_to_json,
)

__version__ = "0.1.0"
