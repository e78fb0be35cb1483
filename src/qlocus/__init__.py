"""Exact Schur S/Q/P calculus and degeneracy-locus classes.

The short tour:

>>> from qlocus import LocusProblem, class_of
>>> print(class_of(LocusProblem(4, 3, 2, "sym")))
Q[2](F) + Q[1](F)*s[1](E-F)
"""

__version__ = "0.1.0"

from .alphabets import Alphabet, ModelContext, difference, make_model
from .gysin import FlagSetup, GrassmannSetup, flag_pushforward, grassmann_pushforward
from .locus import (
    ClassExpression,
    LocusProblem,
    class_of,
    class_schur_pair_expansion,
    class_via_pushforward,
    expected_codim,
    expression_to_poly,
    projective_degree,
)
from .partitions import Partition, staircase
from .polyring import Poly, Ring
from .schur import schur_p, schur_q, schur_s, schur_skew
from .verify import FlagModel, class_via_mnemonic, verify_identity
