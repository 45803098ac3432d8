"""Reference implementations the production code is held exact to.

Scalar, per-sample versions of hot paths that were rewritten as
columnar kernels.  They live with the tests, not in ``src/``: nothing
in the program calls them, and each one's only job is to be obviously
right.
"""
