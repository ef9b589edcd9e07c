"""Inviscid Burgers dynamics with sampled initial velocity.

The solution at time t is read off the greatest convex minorant of the
potential U(x) + x^2/(2t), where U is the antiderivative of the initial
velocity: grid indices where the minorant touches the potential are the
regular (surviving) particles, the gaps between them are shock clusters,
and the minorant slope at a contact is the Lagrangian velocity there.

``sticky_simulate`` evolves completely inelastic particles (mass and
momentum conserved on collision) and serves as an independent oracle: its
merge clusters must coincide with the minorant's shock clusters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .envelopes import ConvexEnvelope, lower_envelope
from .fbm import integrate_values
from .grids import GridPath, write_csv, write_jsonl


# collision times closer than this (relative) count as simultaneous
COLLISION_TIE_TOL = 1e-12


@dataclass(frozen=True)
class LagrangianSolution:
    """Minorant solution: contact set, shock clusters and contact velocities."""

    potential: GridPath
    minorant: ConvexEnvelope
    contact_indices: np.ndarray
    shock_clusters: tuple[tuple[int, int], ...]  # inclusive interior intervals
    lagrangian_velocity: np.ndarray              # minorant slope at contacts

    @property
    def contact_coordinates(self) -> np.ndarray:
        # the entries of grid.coordinates, without building all of it
        grid = self.potential.grid
        return grid.left + grid.spacing * self.contact_indices

    def to_csv(self, path) -> None:
        grid = self.potential.grid
        env_vals = self.minorant.evaluate()
        is_contact = np.zeros(grid.count, dtype=int)
        is_contact[self.contact_indices] = 1
        # per-index velocity: slope of the minorant segment covering the index
        seg = np.searchsorted(self.minorant.node_indices, np.arange(grid.count),
                              side="right") - 1
        seg = np.clip(seg, 0, len(self.minorant.segment_slopes) - 1)
        vel = self.minorant.segment_slopes[seg] / grid.spacing
        write_csv(path, ("coordinate", "potential", "minorant", "is_contact",
                         "velocity"),
                  zip(grid.coordinates, self.potential.values, env_vals,
                      is_contact, vel))

    def clusters_to_jsonl(self, path, u0: GridPath) -> None:
        grid = self.potential.grid
        coords = grid.coordinates
        write_jsonl(path, ({
            "left": coords[left], "right": coords[right],
            "mass": (right - left + 1) * grid.spacing,
            "momentum": float(np.sum(u0.values[left:right + 1])
                              * grid.spacing),
        } for left, right in self.shock_clusters))


def build_potential(u0: GridPath, t: float = 1.0) -> GridPath:
    """Potential U(x) + x^2/(2t) with U the trapezoidal antiderivative of u0."""
    if t <= 0:
        raise ValueError(f"time must be > 0, got {t}")
    grid = u0.grid
    u_levels = integrate_values(u0.values, grid.spacing, grid.anchor_index)
    psi = u_levels + grid.coordinates ** 2 / (2.0 * t)
    return GridPath(grid, psi, "potential", hurst=u0.hurst)


def solve(u0: GridPath, t: float = 1.0) -> LagrangianSolution:
    """Convex-minorant solution at time t; contacts are the surviving particles."""
    potential = build_potential(u0, t)
    minorant = lower_envelope(potential.values)
    contacts = minorant.node_indices
    # the grid points strictly between two consecutive contacts, if any
    gaps = np.flatnonzero(np.diff(contacts) > 1)
    clusters = zip((contacts[gaps] + 1).tolist(),
                   (contacts[gaps + 1] - 1).tolist())
    slopes = minorant.segment_slopes / potential.grid.spacing
    velocity = np.append(slopes, slopes[-1]) if slopes.size else np.zeros(1)
    return LagrangianSolution(potential=potential, minorant=minorant,
                              contact_indices=contacts,
                              shock_clusters=tuple(clusters),
                              lagrangian_velocity=velocity[:len(contacts)])


# ---------------------------------------------------------------------------
# sticky particles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ParticleSystem:
    """Point particles on the line; ``members`` records, per cluster, the
    inclusive range of initial particle indices it has absorbed."""

    positions: np.ndarray
    velocities: np.ndarray
    masses: np.ndarray
    members: tuple[tuple[int, int], ...] | None = None

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        vel = np.asarray(self.velocities, dtype=float)
        mass = np.asarray(self.masses, dtype=float)
        if not (pos.shape == vel.shape == mass.shape) or pos.ndim != 1:
            raise ValueError("positions, velocities, masses must be equal-length "
                             "1-d arrays")
        if pos.size and np.any(np.diff(pos) <= 0):
            raise ValueError("positions must be strictly increasing")
        if np.any(mass <= 0):
            raise ValueError("masses must be positive")
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "velocities", vel)
        object.__setattr__(self, "masses", mass)


def midpoint_particles(u0: GridPath) -> ParticleSystem:
    """One particle per grid cell, at the cell midpoint with the midpoint-
    averaged velocity.

    This placement corresponds exactly to the trapezoidal potential used by
    ``solve``: the variational (cumulative mass vs cumulative free-flight
    momentum) hull of these particles has a breakpoint at cell i precisely
    when grid index i is a minorant contact.  Grid-point particles instead
    match a left-Riemann potential and can disagree with the minorant by
    several cells at marginal contacts.
    """
    grid = u0.grid
    x = grid.coordinates
    v = u0.values
    return ParticleSystem(positions=0.5 * (x[:-1] + x[1:]),
                          velocities=0.5 * (v[:-1] + v[1:]),
                          masses=np.full(grid.count - 1, grid.spacing),
                          members=tuple((i, i) for i in range(grid.count - 1)))


def sticky_shock_clusters(u0: GridPath, t: float = 1.0) -> list[tuple[int, int]]:
    """Shock clusters (interior grid-index intervals) obtained purely from
    sticky dynamics of the midpoint particles; directly comparable with
    ``solve(u0, t).shock_clusters``."""
    out = sticky_simulate(midpoint_particles(u0), t)
    return [(c + 1, d) for c, d in merged_intervals(out)]


def sticky_simulate(system: ParticleSystem, t: float) -> ParticleSystem:
    """Event-driven completely inelastic dynamics up to time t.

    Adjacent clusters merge at their earliest collision (collisions at
    exactly t included); simultaneous collisions merge all tied parties.
    Total mass is conserved exactly, momentum to rounding.
    """
    if t < 0:
        raise ValueError(f"time must be >= 0, got {t}")
    pos = system.positions.astype(float).copy()
    vel = system.velocities.astype(float).copy()
    mass = system.masses.astype(float).copy()
    members = list(system.members) if system.members is not None \
        else [(i, i) for i in range(pos.size)]
    elapsed = 0.0
    while pos.size > 1:
        gaps = np.diff(pos)
        closing = vel[:-1] - vel[1:]
        with np.errstate(divide="ignore"):
            dt = np.where(closing > 0, gaps / np.where(closing > 0, closing, 1.0),
                          np.inf)
        tmin = dt.min()
        if not np.isfinite(tmin) or elapsed + tmin > t:
            break
        pos += vel * tmin
        elapsed += tmin
        tied = np.flatnonzero(dt <= tmin + COLLISION_TIE_TOL * max(1.0, tmin))
        pos, vel, mass, members = _merge_pairs(pos, vel, mass, members, tied)
    pos += vel * (t - elapsed)
    return ParticleSystem(positions=pos, velocities=vel, masses=mass,
                          members=tuple(members))


def _merge_pairs(pos, vel, mass, members, pair_indices):
    """Merge each maximal run of tied adjacent pairs into one cluster."""
    groups = []
    for i in pair_indices:
        if groups and i == groups[-1][-1]:
            groups[-1].append(i + 1)
        else:
            groups.append([i, i + 1])
    keep_pos, keep_vel, keep_mass, keep_members = [], [], [], []
    gi = 0
    i = 0
    n = pos.size
    while i < n:
        if gi < len(groups) and groups[gi][0] == i:
            g = groups[gi]
            m = mass[g].sum()
            keep_pos.append(float(np.dot(mass[g], pos[g]) / m))
            keep_vel.append(float(np.dot(mass[g], vel[g]) / m))
            keep_mass.append(float(m))
            keep_members.append((members[g[0]][0], members[g[-1]][1]))
            i = g[-1] + 1
            gi += 1
        else:
            keep_pos.append(float(pos[i]))
            keep_vel.append(float(vel[i]))
            keep_mass.append(float(mass[i]))
            keep_members.append(members[i])
            i += 1
    return (np.array(keep_pos), np.array(keep_vel), np.array(keep_mass),
            keep_members)


def merged_intervals(system: ParticleSystem) -> list[tuple[int, int]]:
    """Initial-index intervals of clusters that absorbed more than one particle."""
    if system.members is None:
        raise ValueError("system carries no membership records")
    return [m for m in system.members if m[1] > m[0]]


def clusters_match(minorant_clusters, sticky_intervals, tol_cells: int = 1) -> bool:
    """Shock clusters agree with sticky merge clusters up to ``tol_cells``
    grid cells at each boundary.

    A minorant cluster is the open gap between consecutive contacts; the
    matching sticky cluster also swallows those two contacts' neighbours or
    not depending on rounding, hence the one-cell allowance.
    """
    if len(minorant_clusters) != len(sticky_intervals):
        return False
    for (a, b), (c, d) in zip(minorant_clusters, sticky_intervals):
        if abs(a - c) > tol_cells or abs(b - d) > tol_cells:
            return False
    return True
