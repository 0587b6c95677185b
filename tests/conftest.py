"""Shared fixtures: solved planar fields and bundled case configs reused
across test modules."""

import logging
import os

# BiCGSTAB's iterates depend on the BLAS reduction order, so the suite runs
# single-threaded BLAS (as the benchmark does).  This must precede the first
# numpy import, and no pytest plugin imports numpy before this file.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

from efem.efem_core import assemble_global
from efem.mesh import generate_structured
from efem.oracles import box_boundary, planar_levelset, planar_materials
from efem.postprocess import build_solution
from efem.solver import solve

# Sliver-cut fallbacks on deliberately pathological meshes log warnings;
# they are part of the designed behavior, not test noise.
logging.getLogger("efem").setLevel(logging.ERROR)


def solve_planar(q, n, mode, tol=1e-8, direct=False):
    mesh = generate_structured(2, n, n)
    asm = assemble_global(mesh, planar_levelset(), planar_materials(q), mode, box_boundary(2))
    phi, report = solve(asm.matrix, asm.rhs, tol=tol, direct=direct)
    assert report.converged
    return build_solution(asm, phi)


def bundled_case(name):
    """The parsed config of a bundled case."""
    from efem import cli

    text, name, _ = cli._case_text(name)
    return cli.parse_case(text, name)


@pytest.fixture(scope="session")
def planar_solver():
    return solve_planar


@pytest.fixture(scope="session")
def planar_q3_efem():
    return solve_planar(3.0, 5, "efem")


@pytest.fixture(scope="session")
def planar_q1_nod():
    return solve_planar(1.0, 5, "efem-nod")


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(1234)
