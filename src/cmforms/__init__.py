"""Exact-arithmetic hermitian forms over CM fields, finite-group
embeddings into admissible forms, metacyclic-group verdicts, and degree-3
cyclic algebras with involutions of second kind.
"""

from .field import (BudgetExceeded, CMField, FieldElement, FieldError,
                    TotallyRealField, NEGATIVE, POSITIVE, Verdict, ZERO,
                    cyclotomic_field_containing, gaussian_field,
                    make_cyclotomic, rationals, validate_sign_pattern,
                    weak_approx_find, zeta)
from .hermitian import (DegenerateFormError, EQUIVALENT, FormInvariant,
                        HermitianForm, NOT_EQUIVALENT, UNKNOWN_EQUIVALENCE,
                        diagonal_form, direct_sum, equivalent, invariants,
                        is_admissible, signature_at, signature_profile,
                        twist_determinant)
from .residue import (IS_NORM, IS_NOT_NORM, NormResidueVerdict, UNKNOWN,
                      hilbert_symbol, is_norm)
from .groups import (ClosureCapExceeded, DEFAULT_CLASS, IntegralRep,
                     MatrixGroup, NotAGroupError, OTHER_CLASS,
                     UnknownClassError, average_form, check_table, closure,
                     embed_first_type, invariant_under, regular_embed,
                     regular_rep)
from .catalog import CatalogEntry, catalog, catalog_entry, verify_entry
from .dgroups import (CYCLIC_POSSIBLE, DGroupParams, EXCLUDED_BY_AMITSUR,
                      EXCLUDED_BY_REDUCIBILITY, EmbeddabilityVerdict,
                      InvalidDGroupError, amitsur_filter, enumerate_params,
                      faithful_reducible_exists, irreducible_degrees,
                      is_cyclic, second_type_verdict, validate)
from .calgebra import (AlgebraElement, AlgebraError, CubicExtElement,
                       CyclicAlgebra, CyclicCubicExtension, IN_GROUP,
                       Involution, InvolutionError, MembershipVerdict,
                       NOT_DIVISION, NOT_IN_GROUP, builtin_example,
                       is_division_candidate, make_involution,
                       splitting_signature, unitary_membership,
                       verify_involution)

__version__ = "0.1.0"
