"""Fake-news classification pipeline.

Soft/hard ensemble voting over per-model prediction vectors, with a
conditional-probability heuristic over username handles and URL domains
that can override the ensemble label. Includes a self-contained
bag-of-words baseline so the whole flow runs without external models.
"""

__version__ = "0.1.0"
