"""Index-d generalized cyclotomic permutations of finite fields.

Represents such permutations in polynomial, cyclotomic and
wreath-product form, converts among the three, computes exact cycle
types and cycle indices of the associated permutation groups,
classifies full cycles and involutions up to conjugacy, and inverts
permutations.  Everything is exact (arbitrary-precision integers and
rationals); brute-force oracles cross-check the closed formulas at
desk scale.
"""

from .arith import Rational, aord, crt_basis, crt_combine, factorize, nu_cap, rad_prime, rem1
from .cycle_index import (
    CycleIndex,
    CycleType,
    affine_counter,
    affine_counter_pp,
    ci_cp,
    ci_focp,
    ci_gcp,
    ci_hol,
    ci_hol_pp,
    ci_regular,
    ci_sym,
    polya_compose,
    signature_count,
    signature_of,
    signature_pow,
    signatures_pp,
)
from .field import CyclotomicContext, FqConfig, FqElem, dlog, make_field
from .forms import (
    CyclotomicForm,
    PermutationAnalysis,
    PolyForm,
    Rejected,
    analyze_affine_shift,
    analyze_permutation,
    cyclotomic_to_poly,
    eval_cyclotomic,
    invert_permutation,
    poly_to_cyclotomic,
)
from .wreath import (
    AffineMapZ,
    CosetPerm,
    WreathElem,
    cycle_type_affine,
    cycle_type_wreath,
    cyclotomic_to_wreath,
    fcp,
    wreath_to_cyclotomic,
)
from .conjugacy import (
    HolClassId,
    RepSystem,
    classify_wreath,
    hol_class_id,
    hol_conjugate,
    hol_involution_reps,
    knuth_is_full_cycle,
    rep_system,
    reps_as_cyclotomic,
    wreath_conjugate,
)
from .oracle import ci_brute, conjugate_brute, enumerate_group, materialize

__version__ = "0.1.0"
