"""kslab: exact-arithmetic construction and certification of sign-cube
measures on product grids, their rectangle and tensor bounds, summable
subsequence certificates, and triangular bases of dense sequence subspaces.

The API is the submodules (``kslab.ks_measure``, ``kslab.rect_sup``, ...).
This package module re-exports nothing, so loading it or ``kslab.cli``
pulls in no submodule a subcommand does not use.
"""

__version__ = "0.1.0"
