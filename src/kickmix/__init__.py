"""Measurement-assisted reversible circuits, end to end: finite-field curve
arithmetic, a text circuit format, a phase-tracking simulator, circuit
builders with predicted resource counts, a hash-seeded verification
harness, and attack-cost calculators.
"""

import importlib

__version__ = "0.1.0"

# Each public name and the module that defines it.  Names resolve on first
# use (PEP 562), so importing the package, or running `python -m kickmix
# verify`, loads only the modules that are used.
_EXPORTS = {
    "circuit": (
        "Circuit", "CircuitError", "Gate", "ParseError", "Register", "StaticResources",
        "parse", "serialize", "static_resources",
    ),
    "curve": (
        "CurveParams", "CurvePoint", "INFINITY", "decode_point", "encode_point",
        "enumerate_points", "is_on_curve", "named_curve", "point_add", "point_neg",
        "registry_names", "scalar_mul",
    ),
    "sim": (
        "BranchInvariant", "LaneResult", "RngExhausted", "RunResult",
        "check_phase_all_branches", "run", "run_all_measurement_branches", "run_lanes",
    ),
    "builders": (
        "BuildReport", "build_adder", "build_lookup", "build_mod_add_const",
        "build_pointadd_permutation", "build_temp_and", "build_windowed_pointadd", "mutate",
    ),
    "harness": (
        "HarnessError", "Transcript", "VerificationReport", "VerificationSpec",
        "achieved_security_bits", "commit", "derive_tests", "required_test_count",
        "spec_for_circuit", "verify", "verify_exhaustive",
    ),
    "costmodel": (
        "AttackScenario", "MachineProfile", "PointAddCost", "WalletRecord",
        "ecdlp_qubits", "ecdlp_toffoli", "magic_limited_key_time",
        "multi_machine_speedup", "onspend_success", "optimal_window",
        "primed_attack_time", "runtime", "salvage_timeline", "t_factory_qubits",
        "t_production_rate", "windowed_addition_count",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is not None:
        value = getattr(importlib.import_module(f".{module}", __name__), name)
    elif name in _EXPORTS:  # a submodule, as `import kickmix` used to load them all
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME, *_EXPORTS})
