"""Self-organized criticality in a planar Ising model whose temperature
is fed back from the magnetization, with the random-cluster machinery
(coupling, duality, surgery, finite-size scaling events) and an
experiment harness."""

__version__ = "0.1.0"

from .lattice import (
    BoxGeometry,
    DualGeometry,
    box_range,
    build_box,
    diameter,
    dual_geometry,
    exterior_boundary_edges,
)
from .ising import (
    IsingDistribution,
    IsingParams,
    SpinConfig,
    T_CRITICAL,
    conditional_plus_probability,
    exact_ising_distribution,
    hamiltonian,
    heat_bath_sweep,
    zero_temperature_config,
)
from .fk import (
    BondConfig,
    ClusterDecomposition,
    FKDistribution,
    FKParams,
    TailFit,
    bernoulli_bonds,
    close_edges,
    cluster_labels,
    decompose,
    event_D_n,
    event_Q_N,
    exact_fk_distribution,
    external_cluster_boundary,
    fk_weight,
    p_critical,
    sample_chain,
    single_bond_conditional,
    single_bond_heat_bath_sweep,
    swendsen_wang_step,
    tail_statistics,
    visit_counts,
)
from .coupling import (
    dual_config,
    dual_parameter,
    duality_check,
    es_bond_pushforward,
    es_fk_to_ising,
    es_ising_to_fk,
    es_pushforward_check,
    es_spin_pushforward,
    p_to_t,
    t_to_p,
)
from .soc import (
    DeviationReport,
    EPS_T,
    ExactMuN,
    FeedbackParams,
    FixedPoint,
    SocTrajectory,
    deviation_bound_check,
    edge_closing_price,
    exact_mu_n,
    exact_mu_prime,
    feedback_temperature,
    fixed_point,
    naive_mu_prime_dynamics,
    phi_n,
    theta_asymptotic,
    two_timescale_dynamics,
)
from .surgery import (
    EventParams,
    SurgeryResult,
    WalkBoundReport,
    annulus_cut_H0,
    compensation_walk_bound_check,
    event_G_n,
    event_R_n,
    event_S_n,
    exact_cut_H2,
    forced_sign,
    fss_conditions,
    maximal_subset_H1,
    sign_compensation_probability,
    stirling_constant,
    surgery,
)
from .experiments import (
    COMMANDS,
    ExperimentConfig,
    build_config,
    chain_rng,
    fss_frequency,
    parse_config_file,
    run,
    wilson_interval,
)
