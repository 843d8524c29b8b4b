"""cublink: link-condition checkers for ordered simplicial complexes.

The library decides, with explicit witnesses, whether a finite simplicial
complex with (cyclically) ordered simplices is locally a lattice, together
with the machinery this rests on: finite posets, orthoscheme metrics,
injective hulls of small metric spaces, and simplices of groups.
"""

from .poset import (
    Bowtie,
    Poset,
    bowtie_lattice_consistency,
    find_balanced_bowtie,
    find_bowtie,
    flag_condition,
    grade_completion,
    poset_from_json,
    with_bounds,
)
from .complexes import (
    OrderedComplex,
    StarPoset,
    is_local_poset,
    order_complex,
    star_poset,
    validate,
)
from . import errors

__all__ = [
    "Bowtie",
    "Poset",
    "OrderedComplex",
    "StarPoset",
    "bowtie_lattice_consistency",
    "errors",
    "find_balanced_bowtie",
    "find_bowtie",
    "flag_condition",
    "grade_completion",
    "is_local_poset",
    "order_complex",
    "poset_from_json",
    "star_poset",
    "validate",
    "with_bounds",
]
