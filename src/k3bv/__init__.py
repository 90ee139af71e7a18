"""Exact arithmetic for lattice-polarized K3 mirror symmetry and
Borcea-Voisin Calabi-Yau invariants.

Everything is computed over Z and Q with arbitrary precision; there is
no floating point anywhere in the library.
"""

from .bv import (BVData, HodgePair, SelfMirrorLocus, euler_characteristic,
                 hodge_numbers, mirror_swap)
from .catalog import e8_minus, hyperbolic_plane, k3_lattice
from .census import (BasePoint, FiberCensus, FiberRecord, KodairaType,
                     base_embed, census_slack, dualize_census, total_euler)
from .cnum import QC
from .domains import (PeriodVector, TubePoint, in_delta, in_period_domain,
                      in_primed, in_tube)
from .errors import (AdmissibilityError, CensusError, DimensionMismatch,
                     K3BVError, NormalizationError, NotInLattice,
                     SplittingError)
from .hyperkahler import RotationRow, RotationTable, rotation_table
from .involution import (LatticeInvolution, RealFiberType, SymplecticSpace,
                         invariant_sublattices, mirror_involution,
                         real_fiber_dual, reflection_through, transpose_defect)
from .jsonio import lattice_by_name
from .lattice import (IntegerLattice, Sublattice, coordinates_in, contains,
                      det_and_signature, direct_sum, divisibility,
                      is_primitive, is_saturated, orthogonal_complement,
                      pairing, same_sublattice, saturation)
from .leray import (Filtration, SpectralTable, TensorPeriod, bv_mirror_period,
                    bv_table, check_degeneration, elliptic_table,
                    filtration_dims, k3_table, recover_period_inputs,
                    swap_rows, y_betti)
from .mirror import AdmissiblePair, MirrorSplit, check_admissible, construct_mirror
from .mirrormap import phi, phi_inverse

__version__ = "0.1.0"
