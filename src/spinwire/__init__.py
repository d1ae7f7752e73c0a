"""Spin-resolved scattering of a 1D wire with a position-dependent Zeeman field.

The transfer matrix of the wire factorizes into a purely geometric eigenbasis
transport times a dynamical piecewise-constant product; boundary matching
then yields the transmission and reflection matrices at any energy.  An
independent tight-binding solver and several closed-form limits serve as
cross-checks.
"""

from .core import (
    ChannelData,
    ChannelMismatchError,
    EvanescentOverflowError,
    FieldDirectionError,
    Regime,
    RegimeError,
    SingularSystemError,
    ThresholdError,
    hs_distance,
    hs_norm,
    scattering_channel,
    scattering_channels,
)
from .diagnostics import Diagnostics, Recorder
from .fields import (
    MagneticWallField,
    PlanarField,
    TabulatedField,
    UniformField,
    WindingField,
    load_profile,
    magnetic_wall_field,
    scheme1_field,
    scheme2_field,
    uniform_field,
)
from .berry import (
    berry_operator_overlap,
    berry_operator_planar,
    berry_operator_segmented,
    planar_rotation,
)
from .transfer import (
    SegmentPlan,
    TransferMatrix4,
    flow_defect,
    gamma_piecewise,
    gamma_piecewise_batch,
    segment_plan,
)
from .scattering import (
    ScatterBatch,
    ScatterResult,
    landauer_current,
    solve_scattering,
    solve_scattering_batch,
    solve_scattering_sweep,
    transmission_columns,
    transmission_probabilities,
)
from .analytic import (
    WallConfig,
    delta_wall_scattering,
    high_energy_t,
    magnetic_wall_scattering,
)
from .lattice import Lattice, build_lattice, fd_scattering, lattice_wavenumbers

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
