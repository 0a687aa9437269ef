"""momentkit: exact computational algebra for multisymplectic moment maps.

Lie algebra (co)homology with module coefficients, Lie kernels with the
extended adjoint action, polynomial differential forms on R^n, and
construction/verification of weak homotopy moment maps - all over exact
rational arithmetic.
"""

__version__ = "0.1.0"

from .lie_core import (LieAlgebra, StructureError, catalog_algebra, ce_betti,
                       lie_kernel_basis)
from .gmodule import (GModule, dual_module, tensor_module, lie_kernel_module,
                      module_cohomology_dim, trivial_module)
from .polyform import (Form, MultiField, Poly, contract, exterior_d,
                       lie_derivative, poincare_homotopy, vf_bracket, wedge)
from .action import (LieAction, check_multisymplectic, invariant_closed_forms,
                     preserves_omega, validate_action)
from .moment import (MomentMap, construct_brackets, construct_exactness,
                     construct_poincare, existence_diagnostic, make_equivariant,
                     verify_moment)


def __getattr__(name):
    # catalog_action lives in cli; importing cli only on first use keeps
    # `python -m momentkit.cli` from finding it already imported
    if name == "catalog_action":
        from .cli import catalog_action
        return catalog_action
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
