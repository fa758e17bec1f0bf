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
from labparts.cli import Built, growth_profile, infinite_dihedral_built, profile_csv
from labparts.constructions import weighted_naive_sum_space
from labparts.examples import free_tree_space
from labparts.groups import DirectSumGroup, FiniteGroup, z4_z6_amalgam
from labparts.walls import z_line_walls_space


def main():
    outdir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("profiles")
    outdir.mkdir(parents=True, exist_ok=True)
    profiles = {}

    space, action = z_line_walls_space(2)
    profiles["z_walls"] = growth_profile(Built(space, {"main": action}, basepoint=(0,)), 8)

    group = DirectSumGroup(FiniteGroup.cyclic(2), range(-4, 5))
    wspace, waction = weighted_naive_sum_space(group, lambda i: Fraction(1 + abs(i)), 2)
    profiles["lamp_sum"] = growth_profile(Built(wspace, {"main": waction}, basepoint=group.identity), 5)

    am = z4_z6_amalgam()
    tree = TreeOfCosetSpaces(am)
    sgc, agc, shc, ahc = naive_quotient_structures(tree, 1)
    aspace, aaction = amalgam_space(tree, sgc, agc, shc, ahc)
    letters = [am.letter_word("L", g) for g in range(1, 4)] + [am.letter_word("R", h) for h in range(1, 6)]
    amalgam = Built(aspace, {"main": aaction}, basepoint=tree.base_point)
    profiles["amalgam"] = growth_profile(amalgam, 6, generators=letters)

    fspace, faction, free = free_tree_space(2, 2)
    profiles["free_tree"] = growth_profile(Built(fspace, {"main": faction}, basepoint=free.identity), 5)

    profiles["infinite_dihedral"] = growth_profile(infinite_dihedral_built(2), 8)

    for name, prof in profiles.items():
        path = outdir / f"{name}.csv"
        path.write_text(profile_csv(prof))
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
