"""Run analysis for two-way word transducers: crossing sequences, effect
semigroups, factorization forests, loops and pumping, inversions, run
decompositions, and bounded definability deciders with replayable
certificates.

Names resolve lazily (PEP 562): `from untwist import X` imports only the
submodule that defines X, so a process loads no module it does not use."""

_EXPORTS = {
    "bounds": ("BoundFactored", "PeriodBound", "bound_admits"),
    "transducer": ("Transducer", "Transition", "ValidationReport",
                   "constants", "check_functional_bounded",
                   "parse_transducer", "serialize_transducer", "validate"),
    "runs": ("CapExceeded", "Run", "dump_run", "enumerate_runs",
             "validate_run"),
    "effects": ("BOTTOM", "Effect", "Flow", "effect_of_interval",
                "effect_product", "flow_of_interval", "flow_product",
                "is_idempotent"),
    "loops": ("Loop", "components_of", "enumerate_loops", "pump", "trace_of"),
    "forest": ("FactorizationForest", "RamseyWitness", "build_forest",
               "ramsey_extract", "verify_forest"),
    "inversions": ("Inversion", "enumerate_inversions",
                   "enumerate_k_inversions", "fine_wilf_check",
                   "inversion_safe", "inversion_word", "inversions_of",
                   "k_inversion_safe", "smallest_period"),
    "decomposition": ("Decomposition", "build_decomposition",
                      "block_interval", "coverage_classes", "is_block",
                      "is_diagonal"),
    "oneway": ("RefutationCertificate", "Verdict", "decide_oneway_bounded",
               "decide_sweeping_bounded", "simulate_oneway",
               "verify_certificate"),
}
# Public name -> the submodule that defines it; a submodule names itself.
_SOURCE = {name: module for module, names in _EXPORTS.items()
           for name in (module, *names)}

__all__ = sorted(_SOURCE)


def __getattr__(name: str):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = import_module(f".{module}", __name__)
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
