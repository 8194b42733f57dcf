"""Shared utilities: seeded randomness helpers."""

from repro.utils.rng import RngMixin, derive_rng, ensure_rng

__all__ = ["RngMixin", "derive_rng", "ensure_rng"]
