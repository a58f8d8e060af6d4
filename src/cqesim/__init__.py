"""Classical simulator for contracted-equation eigensolvers.

The package builds sector Hamiltonians from electronic-structure integrals
(or model definitions), contracts Schroedinger residuals down to two-body
tensors, and drives products of two-body exponential transformations toward
an eigenstate.  Three interchangeable execution styles cover idealized
linear algebra, a single-ancilla dilated register with post-selection
bookkeeping, and shot-sampled residual readout.

Each module's ``__all__`` is the one list of its public names; the package
re-exports all of them.
"""

from . import evolution, fock, hamiltonian, models, oracle, residuals, solver
from .evolution import *
from .fock import *
from .hamiltonian import *
from .models import *
from .oracle import *
from .residuals import *
from .solver import *

__version__ = "0.1.0"

__all__ = [
    *fock.__all__,
    *hamiltonian.__all__,
    *oracle.__all__,
    *residuals.__all__,
    *evolution.__all__,
    *models.__all__,
    *solver.__all__,
    "__version__",
]
