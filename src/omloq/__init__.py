"""Finite orthomodular lattices, their linear-map quantales, generated
projection monoids, powerset dynamic algebras, and the verification suites
tying the constructions together.

Each export is imported from its module on first access (PEP 562), so a
command loads only the layers it runs.
"""

from importlib import import_module

_EXPORTS = {
    "errors": "LatticeParseError OmloqError SizeExceeded SuiteFailure",
    "oml": "Oml OrthoIso catalog check_ortho_iso enumerate_automorphisms format_lattice identity_iso "
    "load_lattice parse_lattice parse_lattice_json sasaki_hook sasaki_projection validate_oml",
    "linmap": "EndoMap LinMap NotLinear bruteforce_lin compose enumerate_lin foulis_perp order_adjoint "
    "orth_adjoint pointwise_join sasaki_projection_lattice verify_foulis verify_left_module_on_M",
    "testmonoid": "InvMonoid MonoidElem generate_T",
    "dynalg": "DynAlgebra DynElem SamplePolicy verify_ida verify_module verify_toda",
    "equivalence": "DynMorphism TodaHandle check_naturality_lambda check_naturality_mu gamma_morphism "
    "gamma_object lambda_component psi_morphism psi_object round_trip_report "
    "verify_h_map",
    "hilbert3": "RatSubspace meet join orth sasaki3 span witness_report",
    "report": "Check ValidationReport",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{module}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
