"""gkbench: an exact-arithmetic workbench for multiquadratic field towers
with sign twists, twisted group rings, quantum affine spaces at roots of
unity, and the growth-degree statistics of the algebras they generate."""

import sys

# Each submodule and the public names it defines.  A submodule is imported
# on first access to one of its names (PEP 562), so `import gkbench` loads
# only what the caller uses.  Names are looked up in the submodule on every
# access, not copied here, so a name rebound there is seen here too; the
# submodule itself comes from sys.modules, imported only on a miss.
_EXPORTS = {
    "budget": ("WorkBudgetExceeded",),
    "campaigns": ("campaign_names", "run_campaign"),
    "cyclo": ("CycElem", "CycField", "tower_check"),
    "gammalab": (
        "IndependenceWitness",
        "gamma_coeff",
        "gamma_coeff_oracle",
        "independence_witness",
        "rn_basis_size",
        "rn_dim",
        "rn_dim_series",
    ),
    "growth": ("DegreeEstimate", "GrowthSeries", "certified_line", "degree_estimate"),
    "mqfield": ("MQElem", "PrimeBasis", "first_primes"),
    "ordgroup": ("EQ", "GT", "LT", "GroupElem"),
    "parser": ("ParseError", "parse", "to_field", "to_group", "to_quantum", "to_twisted"),
    "qaffine": (
        "FreeWord",
        "HomCheckReport",
        "QAlgebra",
        "QPoly",
        "central_power_check",
        "dim_Vr",
        "embed_root",
        "gk_profile",
        "hom_check",
        "normal_form",
        "normal_form_random",
        "power_is_central",
        "power_map_images",
    ),
    "reports": ("REPORT_SCHEMA", "Record", "all_passed", "emit"),
    "ringops": ("is_prime",),
    "twistring": ("TwistedElem",),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    full = f"{__name__}.{module}"
    if full not in sys.modules:
        __import__(full)  # the interpreter's import path, which `-X importtime` reports
    return getattr(sys.modules[full], name)


def __dir__():
    return sorted(set(globals()) | set(_HOME))


__version__ = "0.1.0"

__all__ = sorted(_HOME)
