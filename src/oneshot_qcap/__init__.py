"""One-shot classical-communication bounds and exact protocol simulation for
small-dimensional quantum channels."""

from .linalg import (
    DensityOp,
    DimensionCapError,
    HermOp,
    Ket,
    LayoutError,
    NumericalError,
    SystemLayout,
    bell_ket,
    basis_ket,
    embed,
    fidelity,
    herm_eig,
    max_entangled_ket,
    maximally_mixed,
    partial_trace,
    purified_distance,
    sample,
    tensor,
)
from .channels import (
    KrausChannel,
    NeumarkDilation,
    ParameterError,
    apply_channel,
    apply_on,
    builtin,
    choi,
    cq_channel,
    depolarizing,
    dephasing,
    identity_channel,
    neumark_dilate,
)
from .divergences import (
    DivergenceResult,
    HypothesisTest,
    SupportError,
    dh_eps,
    dh_rank1_oracle,
    dmax,
    relative_entropy,
)
from .coding import (
    DerandomizedCode,
    PositionCode,
    ProtocolReport,
    build_position_povm,
    derandomize,
    converse_floor,
    report_floors,
    hn_check,
    seq_check,
    simulate_broadcast_ea,
    simulate_gp_ea,
    simulate_mac_ea,
    simulate_p2p_ea,
    simulate_unassisted,
)
from .bounds import (
    RateBound,
    achievable_rate,
    converse_value,
    corollary_relaxations,
    identity_channel_corollary,
)

__version__ = "0.1.0"
