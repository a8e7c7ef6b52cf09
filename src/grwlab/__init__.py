"""grwlab: a desk-scale laboratory for spontaneous-localization collapse dynamics.

Core pieces: periodic-grid wavefunctions and branched macroscopic
superpositions (``state``), split-step unitary propagation (``propagator``),
the stochastic hit process with Gaussian / compact-support / ideal kernels
(``collapse``), the matter-density ontology and tails diagnostics
(``ontology``), reproducible packaged experiments (``scenarios``), and a
config-driven command line (``cli``).
"""

from .collapse import (
    CollapseEvent,
    CompactSupportKernel,
    GaussianKernel,
    IdealKernel,
    RngStream,
    apply_branch_hit,
    apply_hit,
    hit_rate,
    run_grw,
    sample_center,
    sample_hit_time,
)
from .ontology import (
    FuzzyLinkVerdict,
    MatterDensityField,
    displaced_tail_center,
    energy_expectation,
    energy_gain_per_hit,
    fuzzy_link,
    isomorphism_score,
    matter_density,
    peak_position,
    region_fraction,
    tail_mass,
)
from .propagator import Potential1D, evolve, evolve_free, harmonic_potential
from .state import (
    Branch,
    BranchedState,
    Grid1D,
    PhysicsParams,
    WaveFunction1D,
    gaussian_packet,
    mod_square_density,
    momentum_representation,
    superposition,
    uniform_state,
)

__version__ = "0.1.0"
