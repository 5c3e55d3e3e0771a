"""Exact quadratic-form algebra over rigid fields (iterated Laurent series)."""

from .sqclass import (  # noqa: F401
    Base,
    FieldDesc,
    SquareClass,
    find_basis_change,
    parse_field,
    parse_square_class,
)
from .qform import (  # noqa: F401
    DiagonalForm,
    PfisterSpec,
    canonicalize,
    is_isometric,
    is_subform,
    orth_sum,
    parse_form,
    pfister,
    scale,
    tensor,
)
from .witt import (  # noqa: F401
    anisotropic_part,
    is_hyperbolic,
    is_isotropic,
    value_set,
    witt_index,
)
from .ideals import (  # noqa: F401
    decompose_unimodular,
    extend_scalars_quadratic,
    in_In,
    lift_form,
    rigid_decompose,
)
from .pfnum import (  # noqa: F401
    PfisterCertificate,
    classify14,
    classify16,
    common_slot,
    divisible_by_pfister,
    enumerate_GPn_classes,
    find_GP2_subform,
    generic_I2_form,
    lower_bound_generic,
    pfister_number,
    random_In_form,
    three_pfister_bound,
    two_pfister_bound,
)

__version__ = "0.1.0"
