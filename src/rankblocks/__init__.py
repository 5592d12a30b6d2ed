"""rankblocks: exact enumeration of integer partitions by successive-rank
parity blocks, the lattice-path and poset structures behind the counts, and a
verification suite comparing the enumeration side against closed-form
q-series, coefficient by coefficient.

Import each name from its module, e.g. ``from rankblocks.partitions import
build_census``; the package itself holds only ``__version__``.
"""

__version__ = "0.1.0"
