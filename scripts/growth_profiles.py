"""Write growth profiles of the standard menagerie to CSV files.

Usage: python scripts/growth_profiles.py [outdir]

Profiles: the integer line with half-space walls, the diverging-weight lamp
sum over Z/2 factors, the Z/4 * Z/6 amalgam with naive quotient structures
(full letter generating set), the rank-2 free-group tree family and the
infinite dihedral gluing.  Minimum energies per sphere are exact rationals.
"""

import sys
from fractions import Fraction
from pathlib import Path

from labparts.amalgam import TreeOfCosetSpaces, amalgam_space, naive_quotient_structures
from labparts.cli import infinite_dihedral_built, profile_csv
from labparts.constructions import weighted_naive_sum_space
from labparts.core import energy_to_dist, pair_energy
from labparts.examples import free_tree_space
from labparts.groups import DirectSumGroup, FiniteGroup, sphere_list, z4_z6_amalgam
from labparts.walls import z_line_walls_space


def profile(space, group, basepoint, move, radius, generators=None):
    """Per-sphere rows in the form ``cli.profile_csv`` writes; unlike ``cli.growth_profile``
    the spheres may be taken over any generating set."""
    rows = []
    for r, sphere in enumerate(sphere_list(group, radius, generators)):
        energies = [pair_energy(space, move(g, basepoint), basepoint) for g in sphere]
        dists = sorted(energy_to_dist(space.norm, e) for e in energies)
        rows.append({"radius": r, "sphere_size": len(sphere), "min_energy": min(energies),
                     "min_dist": dists[0], "max_dist": dists[-1], "mean_dist": sum(dists) / len(dists)})
    return {"rows": rows, "partial": False, "radius": radius, "reached": radius}


def main():
    outdir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("profiles")
    outdir.mkdir(parents=True, exist_ok=True)
    profiles = {}

    space, action = z_line_walls_space(2)
    profiles["z_walls"] = profile(space, action.group, (0,), lambda g, x: (x[0] + g,), 8)

    group = DirectSumGroup(FiniteGroup.cyclic(2), range(-4, 5))
    wspace, waction = weighted_naive_sum_space(group, lambda i: Fraction(1 + abs(i)), 2)
    profiles["lamp_sum"] = profile(wspace, group, group.identity, waction.point_map, 5)

    am = z4_z6_amalgam()
    tree = TreeOfCosetSpaces(am)
    sgc, agc, shc, ahc = naive_quotient_structures(tree, 1)
    aspace, aaction = amalgam_space(tree, sgc, agc, shc, ahc, 1)
    letters = [am.letter_word("L", g) for g in range(1, 4)] + [am.letter_word("R", h) for h in range(1, 6)]
    profiles["amalgam"] = profile(aspace, am, tree.base_point, aaction.point_map, 6, generators=letters)

    fspace, faction, free = free_tree_space(2, 2)
    profiles["free_tree"] = profile(fspace, free, free.identity, faction.point_map, 5)

    dihedral = infinite_dihedral_built(2)
    move = dihedral.actions["main"].point_map
    profiles["infinite_dihedral"] = profile(dihedral.space, dihedral.group, dihedral.basepoint, move, 8)

    for name, prof in profiles.items():
        path = outdir / f"{name}.csv"
        path.write_text(profile_csv(prof))
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
