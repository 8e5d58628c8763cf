"""Multiscale hybrid finite element solver with localized spectral decomposition.

Solves -div(A grad u) = f on 2D polygonal domains with heterogeneous,
possibly high-contrast coefficients.  The solver works on a primal hybrid
formulation: inter-element continuity is enforced by flux multipliers on
a refined skeleton, the multiplier space is split into coarse and fine
blocks, and the fine block is computed by exponentially convergent local
patch problems, optionally enriched by face eigenmodes so the decay does
not degrade with the coefficient contrast.
"""

from .coeff import CoefficientField, ContrastStats, Raster, local_bounds, make_weight
from .localize import PatchProjector, RingProfile, build_flux_energy, ring_energies
from .localop import ElementCache, apply_T, assemble_all
from .mesh import (
    CoarseMesh,
    FinePartition,
    build_structured_mesh,
    element_layers,
    load_mesh,
    refine_faces,
    save_mesh,
    saturation_depth,
    saturation_radius,
)
from .pipeline import (
    Assembly,
    SolverConfig,
    Solution,
    build_assembly,
    conforming_solve,
    exact_hybrid_solve,
    full_pipeline,
    sample_load,
    solve_lsd,
)
from .spectral import ElementSpectrum, FaceSpectrum, all_element_spectra, all_face_spectra, gensym_eig
from .traces import TraceSpace, build_trace_space

__version__ = "0.1.0"

__all__ = [
    "CoarseMesh",
    "FinePartition",
    "build_structured_mesh",
    "refine_faces",
    "element_layers",
    "saturation_depth",
    "saturation_radius",
    "load_mesh",
    "save_mesh",
    "CoefficientField",
    "ContrastStats",
    "Raster",
    "local_bounds",
    "make_weight",
    "TraceSpace",
    "build_trace_space",
    "ElementCache",
    "assemble_all",
    "apply_T",
    "gensym_eig",
    "FaceSpectrum",
    "ElementSpectrum",
    "all_face_spectra",
    "all_element_spectra",
    "PatchProjector",
    "RingProfile",
    "build_flux_energy",
    "ring_energies",
    "SolverConfig",
    "Solution",
    "Assembly",
    "build_assembly",
    "solve_lsd",
    "full_pipeline",
    "exact_hybrid_solve",
    "conforming_solve",
    "sample_load",
    "__version__",
]
