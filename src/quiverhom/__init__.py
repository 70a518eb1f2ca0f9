"""Exact homological invariants of finite-dimensional bound quiver
algebras over the rationals: dominant and Gorenstein dimensions,
stratifications with their characteristic tilting modules, and relative
almost-split sequences, all with certified exact arithmetic.

Importing the package imports none of its modules.  The name of a
module imports that module alone, so `quiverhom.cli` and any single
module can be imported without the rest, `from quiverhom import cli`
included.  Any other public name read from it imports the whole API at
once."""
from importlib import import_module as _import_module
from importlib.util import find_spec as _find_spec


def __getattr__(name):
    """The package module called name, imported alone; else import the
    whole public API on the first public name asked for, bind it and
    `__all__` in the package, and return the name."""
    if name.startswith("_") and name != "__all__":
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    if _find_spec(__name__ + "." + name) is not None:
        return _import_module(__name__ + "." + name)
    from .algebra import (
        Quiver, bnlambda_family, build_algebra, combination_relation,
        klein_four_like, monomial_relation, nakayama_from_kupisch,
        symmetric_chain_family,
    )
    from .catalog import (
        endo_quiver_construction, is_construction_text, klein_endo_algebra,
        klein_module_pair, parse_construction, verify_endo_presentation,
    )
    from .dsl import AlgebraSpec, parse_algebra_dsl, pretty_print
    from .errors import ParseError, QuiverhomError, UnknownExampleId
    from .homology import (
        ar_translate, cosyzygy, ext_dim, ext_dims, mueller_domdim,
        projective_resolution, syzygy, tau_minus,
    )
    from .invariants import (
        algebra_dominant_dimension, auslander_gorenstein_parameter,
        canonical_test_set, codominant_dimension, dominant_dimension,
        gendo_gorenstein_check, global_dimension, gorenstein_dimension,
        injective_dimension, invariant_report, projective_dimension,
        verify_dom_gproj,
    )
    from .modules import (
        direct_sum, dualize, iso_test, projective_rep, regular_rep,
        simple_rep, uniserial_quotient,
    )
    from .relar import omega_approximation, relative_ar_sequence
    from .reports import emit_report
    from .stratify import (
        characteristic_cotilting, characteristic_tilting,
        classify_stratification, filtration_test, search_orders,
        tilting_conjecture_report, verify_duality_consequences,
        verify_main_equivalences, verify_tilting,
    )
    from .values import Dim
    from .verify import all_example_ids, verify_paper_example

    api = dict(locals())
    del api["name"]
    package = globals()
    package.update(api)
    # the API and the modules it loads, which the import binds here; cli,
    # which the API does not load, stays out whether or not it is imported
    package["__all__"] = sorted(n for n in package
                                if not n.startswith("_") and n != "cli")
    if name not in package:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    return package[name]


def __dir__():
    """Every name of the package, the whole API imported."""
    __getattr__("__all__")
    return sorted(globals())
