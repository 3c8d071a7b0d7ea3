"""The two sparse polynomial kernels, re-exported from coxmap._kernel_py.

The library itself imports coxmap._kernel_py.  This module stays because the
benchmark in coxbench/ imports coxmap._kernel (and coxmap._kernel_py) and
reports coxmap.kernel_backend, which is BACKEND below.
"""

from coxmap._kernel_py import poly_exact_div, poly_mul

BACKEND = "python"

__all__ = ["poly_mul", "poly_exact_div", "BACKEND"]
