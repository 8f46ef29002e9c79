"""Benchmark-owned surfaces and scalar fields, serialized to OFF and
scalar text the way `reebound from-mesh` reads them.

Everything here is plain Python with no dependency on the package, so the
inputs do not change when the package does.
"""
from __future__ import annotations

import math
import random

R_MAJOR = 2.0
R_MINOR = 1.0


class Mesh:
    """Vertex positions, triangles and one scalar per vertex."""

    def __init__(self, name, positions, triangles, values):
        self.name = name
        self.positions = positions
        self.triangles = triangles
        self.values = values

    def off_text(self) -> str:
        lines = ["OFF", "%d %d 0" % (len(self.positions), len(self.triangles))]
        lines += ["%r %r %r" % p for p in self.positions]
        lines += ["3 %d %d %d" % t for t in self.triangles]
        return "\n".join(lines) + "\n"

    def field_text(self) -> str:
        return "\n".join(repr(v) for v in self.values) + "\n"


def torus_grid(nu: int, nv: int):
    """Upright torus of revolution on an nu x nv grid.

    Returns (positions, triangles, angles); angle theta runs around the
    axis, phi around the tube, and the height is the third coordinate.
    """
    positions, angles, triangles = [], [], []
    for i in range(nu):
        th = 2 * math.pi * i / nu
        for j in range(nv):
            ph = 2 * math.pi * j / nv
            rad = R_MAJOR + R_MINOR * math.cos(ph)
            positions.append((rad * math.cos(th), R_MINOR * math.sin(ph),
                              rad * math.sin(th)))
            angles.append((th, ph))

    def vid(i, j):
        return (i % nu) * nv + (j % nv)

    for i in range(nu):
        for j in range(nv):
            a, b, c, d = vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)
            triangles.append((a, b, c))
            triangles.append((a, c, d))
    return positions, triangles, angles


def height_torus(nu: int, nv: int) -> Mesh:
    """Torus whose field is its height: one minimum, two saddles, one
    maximum, whatever the grid size."""
    positions, triangles, _ = torus_grid(nu, nv)
    return Mesh("height-torus-%dx%d" % (nu, nv), positions, triangles,
                [p[2] for p in positions])


def smooth_torus(nu: int, nv: int, waves: int, rng: random.Random) -> Mesh:
    """Torus carrying a sum of low-frequency sine waves with seeded phases.

    The dominant wave has ``waves`` periods around the axis and sets the
    critical-point count; the weaker waves break its symmetry so that no
    two critical points share a value.  Per-vertex noise is avoided on
    purpose: it creates monkey saddles, which the pipeline rejects.
    """
    positions, triangles, angles = torus_grid(nu, nv)
    phases = [rng.uniform(0.0, 2 * math.pi) for _ in range(4)]
    values = [math.sin(waves * th + phases[0])
              + 0.6 * math.sin(ph + phases[1])
              + 0.35 * math.sin(th + phases[2])
              + 0.15 * math.sin(th + ph + phases[3])
              for th, ph in angles]
    return Mesh("smooth-torus-%dx%d-w%d" % (nu, nv, waves), positions,
                triangles, values)


def chained_tori(n: int) -> Mesh:
    """Genus-n surface: n upright 24 x 12 tori stacked and joined by
    connected sums, with the height as the field.

    Each joint removes a triangle near the top of one torus and one near
    the bottom of the next, identifies their corners, and gives the three
    joint vertices values between the two tori.
    """
    nu, nv, step = 24, 12, 7.0
    base, triangles0, _ = torus_grid(nu, nv)
    size = len(base)
    positions, values, triangles = [], [], []
    for k in range(n):
        positions += [(x, y, z + step * k) for x, y, z in base]
        values += [z + step * k for _, _, z in base]
        triangles += [(a + k * size, b + k * size, c + k * size)
                      for a, b, c in triangles0]

    def vid(k, i, j):
        return k * size + i * nv + j

    merged: dict[int, int] = {}
    dropped = set()
    for k in range(n - 1):
        top = (vid(k, 7, 1), vid(k, 8, 1), vid(k, 8, 2))
        bottom = (vid(k + 1, 17, 1), vid(k + 1, 18, 1), vid(k + 1, 18, 2))
        dropped.add(frozenset(top))
        dropped.add(frozenset(bottom))
        for b, t in zip(bottom, top):
            merged[b] = t
        for t, lift in zip(top, (3.2, 3.4, 3.6)):
            values[t] = step * k + lift
    triangles = [tuple(merged.get(x, x) for x in t) for t in triangles
                 if frozenset(t) not in dropped]

    used = sorted({x for t in triangles for x in t})
    renumber = {old: new for new, old in enumerate(used)}
    return Mesh("chained-tori-%d" % n, [positions[u] for u in used],
                [tuple(renumber[x] for x in t) for t in triangles],
                [values[u] for u in used])
