"""Exact calculator for equivariant characteristic classes of Schubert
and matrix Schubert cells: weight functions, localization tables,
axiomatic checks, Newton-polytope certificates, structure-sheaf
expansions and interpolation solvers."""

from .combi import (Composition, IndexTuple, Permutation, bruhat_leq, closure_leq,
                    enumerate_index_tuples, inversions, length)
from .ring import (Cocharacter, InfiniteLimitError, LaurentPoly, NonDivisibleError,
                   RationalExpr, RingError, ZeroDenominatorError, exact_divide,
                   limit_at_infinity, monomial_substitute)
from .weightfn import (TorusSpecialization, VariablePanel, chern_products,
                       localization_table, psi_factor, restrict_to_fixed_point, u_term,
                       weight_function)

__all__ = [
    "Composition", "IndexTuple", "Permutation", "bruhat_leq", "closure_leq",
    "enumerate_index_tuples", "inversions", "length",
    "Cocharacter", "InfiniteLimitError", "LaurentPoly", "NonDivisibleError",
    "RationalExpr", "RingError", "ZeroDenominatorError", "exact_divide",
    "limit_at_infinity", "monomial_substitute",
    "TorusSpecialization", "VariablePanel", "chern_products",
    "localization_table", "psi_factor", "restrict_to_fixed_point", "u_term",
    "weight_function",
]

__version__ = "0.1.0"
