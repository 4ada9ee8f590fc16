"""Shared utility helpers."""

from .clock import wall_now

__all__ = ["wall_now"]
