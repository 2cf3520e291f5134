"""Bundled reference design values.

These are the target numbers the reproduce-tables command and the
acceptance suite check the solvers against: disk thicknesses for a
resonant TM mode at the NV zero-phonon line, and inter-disk hopping
energies over a grid of spacings.  The TABLE1 rows and L_OVER_R are
also the default solve_rows and l_over_r of config.SimConfig.

A note on the hopping units: the hopping tables are stored in units of
1e-3 eV.  At the tabulated design points the computed kappa lands in the
1e-2..1e-5 eV range, i.e. the tables match the computation when read
with that 1e-3 eV scale, and all acceptance checks on them are therefore
phrased as ratios between grid points (which are scale-free) rather
than absolute energies.  See README, section "Units".
"""

from __future__ import annotations

# thickness h (um) of the resonant disk vs radius R (um), lambda = 637 nm,
# n_c = 2.4, fundamental radial mode
TABLE1_M40 = {
    2.0: 0.469,
    2.5: 0.185,
    3.0: 0.143,
    3.3: 0.128,
    3.5: 0.118,
    3.7: 0.108,
    4.0: 0.088,
}

TABLE1_M50 = {
    2.5: 0.397,
    3.0: 0.194,
    3.5: 0.153,
    3.7: 0.143,
    4.0: 0.130,
    4.5: 0.111,
    5.0: 0.085,
}

# spacing grid for the hopping tables, as L / R
L_OVER_R = (2.01, 2.11, 2.21, 2.31, 2.41, 2.49)

# hopping |kappa| in units of 1e-3 eV, m = 40, rows keyed by R (um),
# columns following L_OVER_R
TABLE2_M40 = {
    2.0: (5.4162318, 0.19195095, 8.4024303e-3, 4.4752246e-4,
          2.8629954e-5, 3.5948418e-6),
    2.5: (6.1629656, 0.31170879, 2.0020717e-2, 1.6128662e-3,
          1.6140768e-4, 2.9785056e-5),
    3.0: (7.3221493, 0.60936661, 6.8041825e-2, 1.0331791e-2,
          2.0305286e-3, 8.0271189e-4),
}

# same grid for m = 50
TABLE3_M50 = {
    2.5: (3.7089467, 5.7043459e-2, 1.1423516e-3, 2.9232764e-5,
          9.4061343e-7, 7.0305704e-8),
    3.0: (4.1999312, 9.0470660e-2, 2.6025582e-3, 9.8328396e-5,
          4.8134632e-6, 5.1537858e-7),
    3.5: (4.7383159, 0.15825279, 7.3626257e-3, 4.7248165e-4,
          4.1644441e-5, 7.5212790e-6),
}
