"""Sparse dictionary learning with l0-penalized rank-one updates.

Import each name from the module that defines it, e.g. ``from
sparsedl.learner import learn``.  Importing the package itself loads no
numeric code, so the command line front end can still pin the BLAS
thread counts (``SPARSEDL_THREADS``) before numpy loads.
"""

__version__ = "0.1.0"
