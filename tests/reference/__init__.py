"""Scalar reference implementations that the production kernels are checked against."""
