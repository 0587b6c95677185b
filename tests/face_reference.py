"""Reference geometry of a cut simplex's exterior faces, shared by tests.

Built from the vertex coordinates and the nodal distances alone, so the
references of the element-integral tests do not take their geometry from
the code under test.
"""

import numpy as np

from efem.mesh import local_faces


def table_edges(d):
    """The crossed local edges (a, b), a < b, of a cut simplex with nodal
    distances d, in the order of the cut tables: the lone vertex's edges to
    the other vertices, ascending; for a 2-2 tetrahedron with positive nodes
    a1 < a2 and negative nodes b1 < b2, a1b1, a1b2, a2b2, a2b1."""
    pos = [i for i in range(len(d)) if d[i] > 0]
    neg = [i for i in range(len(d)) if d[i] < 0]
    if len(pos) == len(neg) == 2:
        (a1, a2), (b1, b2) = pos, neg
        pairs = [(a1, b1), (a1, b2), (a2, b2), (a2, b1)]
    else:
        lone = pos[0] if len(pos) == 1 else neg[0]
        pairs = [(lone, o) for o in range(len(d)) if o != lone]
    return [tuple(sorted(p)) for p in pairs]


def ref_virtual_nodes(coords, d):
    """{(a, b): zero of the linear interpolant of d on edge (a, b)}, over the
    crossed edges in table order."""
    return {(a, b): coords[a] + d[a] / (d[a] - d[b]) * (coords[b] - coords[a])
            for a, b in table_edges(d)}


def ref_faces(coords, d, virtual):
    """Per local face, [(vertices, sign, measure)] of its sign-homogeneous
    pieces, with virtual the {(a, b): point} of the crossed edges.

    A face the interface misses is one piece.  A crossed edge splits at its
    virtual node; a crossed triangle splits into the lone vertex's triangle
    and the quad behind it, cut along one diagonal.
    """
    dim = coords.shape[1]
    faces = []
    for face in local_faces(dim):
        signs = [1 if d[i] > 0 else -1 for i in face]
        if len(set(signs)) == 1:
            faces.append([([coords[i] for i in face], signs[0])])
        elif dim == 2:
            a, b = face
            xi = virtual[tuple(sorted((a, b)))]
            faces.append([([coords[a], xi], signs[0]), ([xi, coords[b]], signs[1])])
        else:
            m = next(k for k in range(3) if signs[k] != signs[(k + 1) % 3]
                     and signs[k] != signs[(k + 2) % 3])
            p, q = [k for k in range(3) if k != m]
            xp = virtual[tuple(sorted((face[m], face[p])))]
            xq = virtual[tuple(sorted((face[m], face[q])))]
            vm, vp, vq = coords[face[m]], coords[face[p]], coords[face[q]]
            faces.append([([vm, xp, xq], signs[m]), ([xp, vp, vq], -signs[m]),
                          ([xp, vq, xq], -signs[m])])
    out = []
    for pieces in faces:
        row = []
        for verts, sign in pieces:
            v = np.array(verts)
            measure = (float(np.linalg.norm(v[1] - v[0])) if dim == 2 else
                       0.5 * float(np.linalg.norm(np.cross(v[1] - v[0], v[2] - v[0]))))
            row.append((v, sign, measure))
        out.append(row)
    return out
