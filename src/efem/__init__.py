"""Enriched finite elements for multi-material electrostatics.

Solves div(eps * grad(phi)) = 0 on simplex meshes where the material
interface does not conform to element boundaries.  Cut elements carry one
statically condensed enrichment unknown that restores the gradient kink of
the potential across the interface.
"""

from efem.mesh import BoundaryTag, Mesh, MeshError, generate_structured, read_mesh, write_mesh
from efem.interface import (
    CircleLevelSet,
    Classification,
    NodalLevelSet,
    PlaneLevelSet,
    SphereLevelSet,
    classify_elements,
    nodal_distances,
)
from efem.efem_core import (
    MODES,
    AssembledSystem,
    MaterialPair,
    SingularSystemError,
    assemble_global,
)
from efem.solver import (
    SolveReport,
    bicgstab,
    direct_solve,
    solve,
)
from efem.postprocess import (
    LineSample,
    SolutionField,
    build_solution,
    crossings,
    elements_containing,
    eval_field,
    eval_in_element,
    export_csv,
    export_vtk,
    interface_potential_mismatch,
    l2_line_error,
    locate_points,
    observed_order,
    read_csv_sample,
    sample_l2_error,
    sample_line,
)

__version__ = "0.1.0"
