"""Finitely presented modules over Z and Z/n, the regular closure operators
induced by subcategories of injective modules, and the torsion theories those
operators generate.

Everything is exact: arbitrary-precision integer arithmetic through Smith
and Hermite normal forms, with brute-force enumeration oracles alongside the
structural algorithms.

The public names are loaded lazily (PEP 562): ``from modclose import X``
imports only the submodule that defines X, so a command-line run loads only
the code its command uses.
"""

import importlib

# public name -> defining submodule, space-separated per submodule
_EXPORTS = {
    "closure": "ClosureResult ClosureWitness DivisibleModule Subcategory "
    "is_injective_by_structure regular_closure",
    "commands.bounded": "is_bounded",
    "commands.free_rank": "free_summand_rank",
    "commands.snf": "SNFResult smith_normal_form",
    "elements": "Classification ModuleElement all_submodules classify direct_sum "
    "is_closed is_dense is_injective_module kernel_of_hom present_module "
    "sub_as_module sub_image sub_join sub_meet sub_preimage",
    "errors": "OracleInfeasibleError",
    "homs": "HomGroup Homomorphism hom_group",
    "intmatrix": "IntMatrix kernel_basis solve_linear",
    "modules": "FPModule Submodule quotient_module",
    "oracles": "AxiomReport ClosednessScan ScanEntry axiom_suite "
    "closedness_witness_scan enumerate_homs is_hom_vanishing",
    "rings": "Ring ZZ Zmod",
    "torsion": "CheckResult ModuleUniverse TorsionTheoryReport "
    "enumerate_universe torsion_radical verify_torsion_theory",
}

_SUBMODULE = {name: mod for mod, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_SUBMODULE)


def __getattr__(name: str):
    mod = _SUBMODULE.get(name)
    if mod is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{mod}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(__all__) | set(globals()))
