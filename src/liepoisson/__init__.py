"""Lie-Poisson brackets, quantum reductions, orbit two-forms, and integrable
flows on finite truncations of operator algebras.

The package treats a square complex matrix as a trace-class element paired
with observables through tr(x rho).  On top of that pairing it builds:

* ``operators``    matrix algebra, triangular/Hermitian splittings, class
                   tags, decompositions of unity, JSON serialization;
* ``brackets``     the Lie-Poisson bracket and Hamiltonian fields for the
                   full, lower-triangular coinduced, skew-Hermitian real,
                   and product variants, plus Poisson-map diagnostics;
* ``reduction``    measurement, triangular, and group-average projections
                   with their duals and algebraic law checks;
* ``orbits``       coadjoint action, orbit tangent spaces, and the orbit
                   two-form with rank diagnostics;
* ``integrators``  fixed-step RK4 and an exactly isospectral conjugation
                   scheme, trajectory recording, drift monitors;
* ``toda``         the open Toda chain: canonical equations, the map onto
                   lower Lax matrices, conserved charges in involution;
* ``fixtures``     seeded reproducible random states;
* ``verification`` the named-check registry behind `liepoisson verify`;
* ``cli``          the configuration-driven command line front end.

The package namespace re-exports nothing: import the module you need, as in
``from liepoisson import toda as td``.
"""
