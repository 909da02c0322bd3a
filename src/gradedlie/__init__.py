"""Exact minimal-model computations for differential graded Lie algebras.

The package provides, over the exact rationals:

* graded linear algebra with Koszul signs (:mod:`gradedlie.core`);
* differential graded Lie algebras, contraction-style splittings and
  cohomology (:mod:`gradedlie.dgla`);
* invariant pairings, symplectic-representation constructions and
  splitting normalization (:mod:`gradedlie.cyclic`);
* strong homotopy structures and homotopy transfer of minimal models
  (:mod:`gradedlie.linfty`);
* Massey triple products, non-formality certificates and constructive
  formality witnesses (:mod:`gradedlie.formality`);
* a text document format and command line front end
  (:mod:`gradedlie.documents`, :mod:`gradedlie.cli`).
"""

from .core import (
    GradedVectorSpace, LinearMap, MultilinearMap, Scalar, Vector,
    as_scalar, enumerate_shuffles, koszul_sign,
)
from .dgla import (
    DgLieAlgebra, Splitting, Violation, cohomology, compute_splitting,
    find_equivariant_splitting, validate_dgla, verify_splitting,
)
from .cyclic import (
    CyclicPairing, QuasiCyclicDgla, SymplecticRepresentation,
    from_symplectic_representation, normalize_splitting, validate_pairing,
)
from .linfty import (
    LInftyAlgebra, LInftyMorphismToDgla, TransferResult, check_linfty_axioms,
    check_morphism, homotopy_transfer,
)
from .formality import (
    FormalityVerdict, FormalityWitness, MasseyTripleProduct,
    NonFormalityCertificate, PairingFunctional, WitnessRejected,
    build_formality_witness, compute_I, detect_nonformality,
    formality_verdict, massey_triple, verify_witness,
)

__version__ = "0.1.0"
