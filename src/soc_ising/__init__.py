"""Self-organized criticality in a planar Ising model whose temperature
is fed back from the magnetization, with the random-cluster machinery
(coupling, duality, surgery, finite-size scaling events) and an
experiment harness.

The namespace is lazy (PEP 562): `import soc_ising` loads no submodule
and no numpy, and reading a public name imports its home module (with
what that module imports) on first use.  Nothing is cached here, so every
name is looked up in its home module each time.

The function `surgery` shares its name with the submodule, and importing
`soc_ising.surgery` by any path binds the submodule on the package.  The
package's module type therefore serves `surgery` through a property that
returns the function and drops that binding.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

# home module of each public name
_EXPORTS = {
    "lattice": (
        "BoxGeometry", "DualGeometry", "box_range", "build_box", "diameter",
        "dual_geometry", "exterior_boundary_edges",
    ),
    "ising": (
        "IsingDistribution", "IsingParams", "SpinConfig", "T_CRITICAL",
        "conditional_plus_probability", "exact_ising_distribution",
        "hamiltonian", "heat_bath_sweep", "zero_temperature_config",
    ),
    "fk": (
        "BondConfig", "ClusterDecomposition", "FKDistribution", "FKParams",
        "TailFit", "bernoulli_bonds", "close_edges", "cluster_labels",
        "decompose", "event_D_n", "event_Q_N", "exact_fk_distribution",
        "external_cluster_boundary", "fk_weight", "p_critical",
        "sample_chain", "single_bond_conditional",
        "single_bond_heat_bath_sweep", "swendsen_wang_step",
        "tail_statistics", "visit_counts",
    ),
    "coupling": (
        "dual_config", "dual_parameter", "duality_check",
        "es_bond_pushforward", "es_fk_to_ising", "es_ising_to_fk",
        "es_pushforward_check", "es_spin_pushforward", "p_to_t", "t_to_p",
    ),
    "soc": (
        "DeviationReport", "EPS_T", "ExactMuN", "FeedbackParams",
        "FixedPoint", "SocTrajectory", "deviation_bound_check",
        "edge_closing_price", "exact_mu_n", "exact_mu_prime",
        "feedback_temperature", "fixed_point", "naive_mu_prime_dynamics",
        "phi_n", "theta_asymptotic", "two_timescale_dynamics",
    ),
    "surgery": (
        "EventParams", "SurgeryResult", "WalkBoundReport", "annulus_cut_H0",
        "compensation_walk_bound_check", "event_G_n", "event_R_n",
        "event_S_n", "exact_cut_H2", "forced_sign", "fss_conditions",
        "maximal_subset_H1", "sign_compensation_probability",
        "stirling_constant", "surgery",
    ),
    "experiments": (
        "COMMANDS", "ExperimentConfig", "build_config", "chain_rng",
        "fss_frequency", "parse_config_file", "run", "wilson_interval",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted({*globals(), *_HOME})


class _Package(types.ModuleType):
    @property
    def surgery(self):
        return __getattr__("surgery")

    @surgery.setter
    def surgery(self, value):
        # the import system binds a loaded submodule on its package; raising
        # here would turn that into an ImportWarning
        if value is not sys.modules.get(f"{__name__}.surgery"):
            raise AttributeError("soc_ising.surgery is the surgery function")


sys.modules[__name__].__class__ = _Package
