"""loopstable: exact symbolic engine and verifier for a loop-stable
homotopy category of algebras.

Subpackages/modules:

- :mod:`loopstable.simplicial` — finite simplicial sets, cube pairs given by
  coordinate profiles, subdivision, last-vertex maps.
- :mod:`loopstable.algebras` — finite-dimensional algebras by structure
  constants, built-ins, and the algebra file format.
- :mod:`loopstable.funalg` — algebras of polynomial functions on subdivided
  simplicial pairs; restriction, transition, μ, concatenation, ω.
- :mod:`loopstable.tensorj` — tensor algebras, J, classifying maps, λ, κ.
- :mod:`loopstable.extensions` — extension records, mapping paths/cylinders,
  the TR4 tower, and homotopy certificates replayed exactly on samples.
- :mod:`loopstable.kkcat` — objects (A, m), Λ, ⋆ with its signs, and
  mapping-path and extension triangles.
- :mod:`loopstable.verifier` — the check catalog and report machinery.
- :mod:`loopstable.cli` — the ``loopstable-verify`` command line interface.
"""

__version__ = "0.1.0"
