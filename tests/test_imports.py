"""What an import loads, and the lazy package namespace.

Each import check runs in a fresh interpreter that writes no bytecode, so
modules this test process has already loaded cannot hide a load.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import soc_ising

SRC = str(Path(soc_ising.__file__).resolve().parents[1])

# every public name of the eager package namespace, by home module
EAGER = {
    "lattice": "BoxGeometry DualGeometry box_range build_box diameter "
               "dual_geometry exterior_boundary_edges",
    "ising": "IsingDistribution IsingParams SpinConfig T_CRITICAL "
             "conditional_plus_probability exact_ising_distribution "
             "hamiltonian heat_bath_sweep zero_temperature_config",
    "fk": "BondConfig ClusterDecomposition FKDistribution FKParams TailFit "
          "bernoulli_bonds close_edges cluster_labels decompose event_D_n "
          "event_Q_N exact_fk_distribution external_cluster_boundary "
          "fk_weight p_critical sample_chain single_bond_conditional "
          "single_bond_heat_bath_sweep swendsen_wang_step tail_statistics "
          "visit_counts",
    "coupling": "dual_config dual_parameter duality_check es_bond_pushforward "
                "es_fk_to_ising es_ising_to_fk es_pushforward_check "
                "es_spin_pushforward p_to_t t_to_p",
    "soc": "DeviationReport EPS_T ExactMuN FeedbackParams FixedPoint "
           "SocTrajectory deviation_bound_check edge_closing_price "
           "exact_mu_n exact_mu_prime feedback_temperature fixed_point "
           "naive_mu_prime_dynamics phi_n theta_asymptotic "
           "two_timescale_dynamics",
    "surgery": "EventParams SurgeryResult WalkBoundReport annulus_cut_H0 "
               "compensation_walk_bound_check event_G_n event_R_n event_S_n "
               "exact_cut_H2 forced_sign fss_conditions maximal_subset_H1 "
               "sign_compensation_probability stirling_constant surgery",
    "experiments": "COMMANDS ExperimentConfig build_config chain_rng "
                   "fss_frequency parse_config_file run wilson_interval",
}

# the modules a fresh interpreter has loaded, printed as its last line
LOADED = ("import json; print(json.dumps(sorted(m for m in sys.modules "
          "if m.split('.')[0] in ('soc_ising', 'numpy'))))")


def _fresh(code: str):
    """Run `code` in a fresh interpreter that imports the package from this
    source tree and writes no bytecode; return its last stdout line, read
    as JSON."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    out = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {SRC!r})\n{code}"],
        env=env, check=True, capture_output=True, text=True, timeout=120,
    ).stdout
    return json.loads(out.splitlines()[-1])


def test_package_import_loads_no_submodule_and_no_numpy():
    assert _fresh(f"import soc_ising\n{LOADED}") == ["soc_ising"]


def test_reading_build_box_loads_only_lattice():
    loaded = _fresh(f"import soc_ising\nsoc_ising.build_box\n{LOADED}")
    assert [m for m in loaded if m.startswith("soc_ising")] == [
        "soc_ising", "soc_ising.lattice"]
    assert "numpy.random" not in loaded


@pytest.mark.parametrize("argv, draws", [
    (["enumerate"], False),
    (["coupling-verify", "--n", "2"], False),
    (["duality-verify", "--n", "2"], False),
    (["fk-sample", "--n", "4", "--samples", "1"], True),
])
def test_cli_loads_numpy_random_only_to_draw_and_never_surgery(
        tmp_path, argv, draws):
    argv = [*argv, "--out", str(tmp_path / "out")]
    loaded = _fresh(f"from soc_ising.cli import main\n"
                    f"assert main({argv!r}) == 0\n{LOADED}")
    assert ("numpy.random" in loaded) == draws
    assert "soc_ising.surgery" not in loaded
    assert "soc_ising.experiments" in loaded


def test_every_eager_name_resolves_to_its_home_object():
    listed = dir(soc_ising)
    assert "__version__" in listed and soc_ising.__version__ == "0.1.0"
    names = []
    for module, text in EAGER.items():
        home = importlib.import_module(f"soc_ising.{module}")
        for name in text.split():
            assert getattr(soc_ising, name) is getattr(home, name), name
            assert name in listed, name
            names.append(name)
    assert len(names) == 86
    assert sorted(soc_ising.__all__) == sorted(names)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        soc_ising.no_such_name
    assert not hasattr(soc_ising, "_run_enumerate")


@pytest.mark.parametrize("load", [
    "import soc_ising.surgery",
    "import importlib; importlib.import_module('soc_ising.surgery')",
    "from soc_ising.surgery import surgery",
])
def test_surgery_stays_the_function_however_the_submodule_loads(load):
    # the import system binds each loaded submodule on its package
    assert _fresh(
        f"{load}\nimport soc_ising, json, types\n"
        "module = sys.modules['soc_ising.surgery']\n"
        "print(json.dumps([soc_ising.surgery is module.surgery,\n"
        "                  isinstance(soc_ising.surgery, types.FunctionType)]))"
    ) == [True, True]


def test_surgery_cannot_be_rebound_on_the_package():
    with pytest.raises(AttributeError):
        soc_ising.surgery = len
    assert soc_ising.surgery is importlib.import_module("soc_ising.surgery").surgery
