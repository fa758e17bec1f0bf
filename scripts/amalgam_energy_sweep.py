"""Sweep the closed-form amalgam energy against the projection-sum oracle.

Usage: python scripts/amalgam_energy_sweep.py [radius] [q]

For every reduced word in the ball of the given radius (generators a, b) of
Z/4 * Z/6 over Z/2 with naive quotient structures, print the word, its
syllable count, the tree distance, the oracle energy, the closed-form value
with the linear tree term, and the value with the (wrong) power tree term,
formula - d_T + d_T**q, the negative control for the closed form.  The last
two columns agree exactly at q = 1 and split at q >= 2 as soon as the tree
distance reaches 2.

Exit status 0 when every linear-formula value equals the oracle, 1 otherwise,
and 2 when q is not a rational >= 1 (the sup norm, "sup", has no closed form).
"""

import sys
from fractions import Fraction

from labparts.amalgam import (
    TreeOfCosetSpaces,
    amalgam_energy_formula,
    amalgam_space,
    naive_quotient_structures,
)
from labparts.core import NormSpec, pair_energy
from labparts.groups import ball_enumerate, z4_z6_amalgam


def word_str(am, word):
    parts = []
    for side, x in am.letters(word):
        name = "a" if side == "L" else "b"
        parts.append(name if x == 1 else f"{name}{x}")
    return ".".join(parts) if parts else "e"


def main():
    radius = int(sys.argv[1]) if len(sys.argv) > 1 else 4
    try:
        q = NormSpec(Fraction(sys.argv[2]) if len(sys.argv) > 2 else Fraction(2)).q
    except ValueError as exc:  # "sup" included: a sup-norm energy is a maximum, not a sum
        print(f"amalgam_energy_sweep.py: q must be a rational >= 1, as the closed form sums q-th powers: {exc}",
              file=sys.stderr)
        return 2

    am = z4_z6_amalgam()
    tree = TreeOfCosetSpaces(am)
    sgc, agc, shc, ahc = naive_quotient_structures(tree, q)
    space, _ = amalgam_space(tree, sgc, agc, shc, ahc, q)

    print(f"word | n | d_T | oracle | formula(linear) | formula(power), q={q}")
    mismatches = 0
    linear_mismatches = 0
    for gamma, _ in ball_enumerate(am, radius):
        x = tree.act_point(gamma, tree.base_point)
        d_t = tree.tree_distance(x.vertex, tree.base_vertex)
        oracle = pair_energy(space, x, tree.base_point)
        lin = amalgam_energy_formula(tree, sgc, shc, q, gamma)
        pow_ = lin - d_t + d_t ** q
        flag = ""
        if lin != oracle:
            linear_mismatches += 1
            flag = "  <-- LINEAR MISMATCH"
        if pow_ != oracle:
            mismatches += 1
            flag += "  (power differs)"
        print(f"{word_str(am, gamma):>18} | {gamma.syllable_count} | {d_t} | {oracle} | {lin} | {pow_}{flag}")
    print(f"\npower-term mismatches: {mismatches}")
    if linear_mismatches:
        print(f"linear-formula mismatches: {linear_mismatches}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
