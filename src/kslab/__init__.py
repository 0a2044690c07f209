"""kslab: exact-arithmetic construction and certification of sign-cube
measures on product grids, their rectangle and tensor bounds, summable
subsequence certificates, and triangular bases of dense sequence subspaces.

The API is the submodules (``kslab.ks_measure``, ``kslab.rect_sup``, ...).
This package module re-exports nothing, so loading it loads no submodule;
``kslab.cli`` loads every submodule but ``kslab.basic_seq_diag``.
"""

__version__ = "0.1.0"
