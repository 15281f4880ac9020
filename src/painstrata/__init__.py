"""Exact stratum classification and verification for Painleve parameter spaces."""

__version__ = "0.1.0"
